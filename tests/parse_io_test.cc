#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "disc/obs/metrics.h"
#include "disc/seq/io.h"
#include "disc/seq/parse.h"

namespace disc {
namespace {

TEST(Parse, LettersAndAngleBrackets) {
  const Sequence s = ParseSequence("<(a, e, g)(b)>");
  EXPECT_EQ(s.NumTransactions(), 2u);
  EXPECT_EQ(s.ToString(), "(a,e,g)(b)");
}

TEST(Parse, Numeric) {
  const Sequence s = ParseSequence("(1,5,7)(2)");
  EXPECT_EQ(s.Length(), 4u);
  EXPECT_EQ(s.ItemAt(2), 7u);
}

TEST(Parse, MixedCaseAndWhitespace) {
  EXPECT_EQ(ParseSequence("( A , b )( C )"), ParseSequence("(a,b)(c)"));
}

TEST(Parse, UnsortedInputIsNormalized) {
  EXPECT_EQ(ParseSequence("(d,b)").ToString(), "(b,d)");
}

TEST(Parse, Database) {
  const SequenceDatabase db = MakeDatabase({"(a)(b)", "(c)"});
  ASSERT_EQ(db.size(), 2u);
  EXPECT_EQ(db[0].ToString(), "(a)(b)");
  EXPECT_EQ(db[1].ToString(), "(c)");
  EXPECT_EQ(db.max_item(), 3u);
}

TEST(Io, SpmfRoundTrip) {
  const SequenceDatabase db = MakeDatabase({
      "(a,e,g)(b)(h)(f)(c)(b,f)",
      "(b)(d,f)(e)",
  });
  const std::string text = ToSpmfString(db);
  EXPECT_EQ(text, "1 5 7 -1 2 -1 8 -1 6 -1 3 -1 2 6 -1 -2\n2 -1 4 6 -1 5 -1 -2\n");
  const SequenceDatabase back = TryFromSpmfString(text).value();
  ASSERT_EQ(back.size(), db.size());
  for (Cid cid = 0; cid < db.size(); ++cid) {
    EXPECT_EQ(back[cid], db[cid]) << cid;
  }
}

TEST(Io, FileRoundTrip) {
  const SequenceDatabase db = MakeDatabase({"(a)(b,c)", "(z)"});
  const std::string path = ::testing::TempDir() + "/disc_io_test.spmf";
  ASSERT_TRUE(SaveSpmf(db, path));
  const SequenceDatabase back = TryLoadSpmf(path).value();
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[0], db[0]);
  EXPECT_EQ(back[1], db[1]);
}

// The SPMF loader streams straight into the arena, so structural
// invariants are checked at parse time; value() on the failed parse aborts
// with the status text.
TEST(IoDeathTest, EmptyItemsetAborts) {
  EXPECT_DEATH(TryFromSpmfString("1 -1 -1 -2").value(), "empty itemset");
  EXPECT_DEATH(TryFromSpmfString("-1 -2").value(), "empty itemset");
}

TEST(IoDeathTest, UnsortedTransactionAborts) {
  EXPECT_DEATH(TryFromSpmfString("3 2 -1 -2").value(),
               "strictly ascending");
  // Duplicates within a transaction are rejected by the same check.
  EXPECT_DEATH(TryFromSpmfString("2 2 -1 -2").value(),
               "strictly ascending");
}

TEST(IoDeathTest, ItemZeroAborts) {
  EXPECT_DEATH(TryFromSpmfString("0 -1 -2").value(), "positive");
  EXPECT_DEATH(TryFromSpmfString("1 -1 0 -1 -2").value(), "positive");
}

TEST(IoDeathTest, UnterminatedInputAborts) {
  EXPECT_DEATH(TryFromSpmfString("1 -1").value(), "unterminated");
  EXPECT_DEATH(TryFromSpmfString("1 2").value(), "unterminated");
}

TEST(Io, SortedTransactionsAcrossSequenceBoundaryOk) {
  // A descending item straight after -2 starts a fresh transaction and
  // must not trip the ascending check.
  const SequenceDatabase db =
      TryFromSpmfString("5 -1 -2\n2 -1 -2\n").value();
  ASSERT_EQ(db.size(), 2u);
  EXPECT_EQ(db[1].ItemAt(0), 2u);
}

TEST(Io, DatabaseStats) {
  const SequenceDatabase db = MakeDatabase({"(a,b)(c)", "(d)"});
  EXPECT_EQ(db.TotalItems(), 4u);
  EXPECT_DOUBLE_EQ(db.AvgTransactionsPerCustomer(), 1.5);
  EXPECT_DOUBLE_EQ(db.AvgItemsPerTransaction(), 4.0 / 3.0);
  EXPECT_EQ(db.max_item(), 4u);
}

// --- Recoverable parsing (TryFromSpmfString / TryLoadSpmf) ---

TEST(TryIo, StrictReportsDataLossWithLineNumber) {
  const auto result = TryFromSpmfString("1 -1 -2\nbogus -1 -2\n");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(result.status().message().find("line 2"), std::string::npos);
  EXPECT_NE(result.status().message().find("bogus"), std::string::npos);
}

TEST(TryIo, PermissiveSkipsAndCountsMalformedRecords) {
  ParseReport report;
  const auto result = TryFromSpmfString(
      "1 -1 -2\n"
      "3 2 -1 -2\n"   // unsorted: skipped
      "2 -1 -2\n"
      "0 -1 -2\n",    // item zero: skipped
      ParseOptions::Permissive(), &report);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 2u);
  EXPECT_EQ(report.records, 2u);  // successfully ingested
  EXPECT_EQ(report.skipped, 2u);
  EXPECT_NE(report.first_error.find("line 2"), std::string::npos);
}

TEST(TryIo, PermissiveSkipBumpsSkippedCounter) {
#if DISC_OBS_ENABLED
  const std::uint64_t before =
      obs::MetricsRegistry::Global().counter("io.records.skipped")->value();
#endif
  ParseReport report;
  ASSERT_TRUE(TryFromSpmfString("oops\n1 -1 -2\n",
                                ParseOptions::Permissive(), &report)
                  .ok());
  EXPECT_EQ(report.skipped, 1u);
#if DISC_OBS_ENABLED
  EXPECT_EQ(
      obs::MetricsRegistry::Global().counter("io.records.skipped")->value(),
      before + 1);
#endif
}

TEST(TryIo, CrlfLineEndingsAccepted) {
  const auto result = TryFromSpmfString("1 -1 -2\r\n2 3 -1 -2\r\n");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->size(), 2u);
  EXPECT_EQ((*result)[1].ToString(), "(b,c)");
}

TEST(TryIo, WhitespaceOnlyLinesIgnored) {
  const auto result = TryFromSpmfString("1 -1 -2\n   \n\t\n2 -1 -2\n");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 2u);
}

TEST(TryIo, MissingTrailingNewlineAccepted) {
  const auto result = TryFromSpmfString("1 -1 -2\n2 -1 -2");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 2u);
}

TEST(TryIo, MultipleSequencesPerLine) {
  const auto result = TryFromSpmfString("1 -1 -2 2 -1 -2\n");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 2u);
}

TEST(TryIo, GarbageTokenIsDataLossNotAbort) {
  const auto result = TryFromSpmfString("1x -1 -2\n");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("malformed token"),
            std::string::npos);
}

TEST(TryIo, ItemOutOfRangeRejected) {
  const auto result = TryFromSpmfString("99999999999 -1 -2\n");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDataLoss);
}

TEST(TryIo, MissingFileIsIoError) {
  const auto result = TryLoadSpmf("/nonexistent/disc_try_load.spmf");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIoError);
}

TEST(TryIo, LoadErrorIncludesPathAndLine) {
  const std::string path = ::testing::TempDir() + "/disc_try_io_bad.spmf";
  {
    std::ofstream out(path);
    out << "1 -1 -2\n\n2 2 -1 -2\n";
  }
  const auto result = TryLoadSpmf(path);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find(path), std::string::npos);
  EXPECT_NE(result.status().message().find("line 3"), std::string::npos);
  std::remove(path.c_str());
}

TEST(TryIo, RoundTripMatchesLegacyLoader) {
  const SequenceDatabase db = MakeDatabase({"(a,e,g)(b)(h)", "(b)(d,f)(e)"});
  const std::string text = ToSpmfString(db);
  const auto strict = TryFromSpmfString(text);
  ASSERT_TRUE(strict.ok());
  ASSERT_EQ(strict->size(), db.size());
  for (Cid cid = 0; cid < db.size(); ++cid) {
    EXPECT_EQ((*strict)[cid], db[cid]) << cid;
  }
}

// --- Recoverable sequence parsing (TryParseSequence) ---

TEST(TryParse, GoodSequence) {
  const auto result = TryParseSequence("(a,b)(c)");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->ToString(), "(a,b)(c)");
}

TEST(TryParse, ErrorsCarryPosition) {
  const auto missing_paren = TryParseSequence("a,b)");
  ASSERT_FALSE(missing_paren.ok());
  EXPECT_EQ(missing_paren.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(missing_paren.status().message().find("expected '('"),
            std::string::npos);
  EXPECT_NE(missing_paren.status().message().find("at position"),
            std::string::npos);

  EXPECT_FALSE(TryParseSequence("(a,)").ok());
  EXPECT_FALSE(TryParseSequence("(a").ok());
  EXPECT_FALSE(TryParseSequence("(0)").ok());
}

}  // namespace
}  // namespace disc
