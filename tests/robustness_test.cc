// Failure-injection and fuzz-ish robustness tests: malformed inputs must
// abort loudly (never corrupt results), and serialization must round-trip
// arbitrary well-formed databases.
#include <gtest/gtest.h>

#include "disc/algo/miner.h"
#include "disc/common/rng.h"
#include "disc/seq/io.h"
#include "disc/seq/parse.h"
#include "test_util.h"

namespace disc {
namespace {

using testutil::Seq;

TEST(RobustnessDeathTest, MalformedSequenceLiteralsAbort) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(ParseSequence("(a"), "unterminated|expected");
  EXPECT_DEATH(ParseSequence("a)"), "expected");
  EXPECT_DEATH(ParseSequence("(a,)"), "expected");
  EXPECT_DEATH(ParseSequence("()"), "expected");
  EXPECT_DEATH(ParseSequence("(0)"), "reserved");
}

TEST(RobustnessDeathTest, MalformedSpmfAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(TryFromSpmfString("1 -2").value(), "closed");
  EXPECT_DEATH(TryFromSpmfString("-1 -2").value(), "empty itemset");
  EXPECT_DEATH(TryFromSpmfString("1 -1").value(), "unterminated");
  EXPECT_DEATH(TryFromSpmfString("0 -1 -2").value(), "positive");
  EXPECT_DEATH(TryLoadSpmf("/nonexistent/path/db.spmf").value(),
               "cannot open");
}

TEST(RobustnessDeathTest, MinerMisuseAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(CreateMiner("no-such-algorithm"), "unknown miner");
  SequenceDatabase db;
  db.Add(Seq("(a)"));
  MineOptions options;
  options.min_support_count = 0;  // invalid: delta must be >= 1
  EXPECT_DEATH(CreateMiner("disc-all")->Mine(db, options), "min_support");
}

TEST(Robustness, SpmfRoundTripFuzz) {
  Rng rng(4242);
  for (int trial = 0; trial < 40; ++trial) {
    testutil::RandomDbSpec spec;
    spec.num_seqs = 20 + static_cast<std::uint32_t>(rng.NextBounded(30));
    spec.alphabet = 1 + static_cast<std::uint32_t>(rng.NextBounded(200));
    spec.max_txns = 1 + static_cast<std::uint32_t>(rng.NextBounded(8));
    spec.max_items_per_txn =
        1 + static_cast<std::uint32_t>(rng.NextBounded(5));
    const SequenceDatabase db = testutil::RandomDatabase(rng.Next(), spec);
    const SequenceDatabase back =
        TryFromSpmfString(ToSpmfString(db)).value();
    ASSERT_EQ(back.size(), db.size());
    for (Cid cid = 0; cid < db.size(); ++cid) {
      ASSERT_EQ(back[cid], db[cid]);
    }
  }
}

TEST(Robustness, ParsePrintRoundTrip) {
  Rng rng(777);
  for (int trial = 0; trial < 200; ++trial) {
    const Sequence s = testutil::RandomSequence(&rng, 26, 5, 4);
    EXPECT_EQ(ParseSequence(s.ToString()), s);
  }
}

TEST(Robustness, LargeItemIdsWork) {
  // Items near the top of a large alphabet must flow through every miner
  // (counting arrays are sized by max_item).
  SequenceDatabase db;
  db.Add(ParseSequence("(999)(1000)"));
  db.Add(ParseSequence("(999)(1000)"));
  db.Add(ParseSequence("(7)(999)"));
  MineOptions options;
  options.min_support_count = 2;
  const PatternSet reference = CreateMiner("pseudo")->Mine(db, options);
  EXPECT_EQ(reference.SupportOf(ParseSequence("(999)(1000)")), 2u);
  for (const std::string& name : AllMinerNames()) {
    EXPECT_EQ(CreateMiner(name)->Mine(db, options), reference) << name;
  }
}

TEST(Robustness, ManyIdenticalSingleItemTransactions) {
  // Degenerate repetition: one item repeated; patterns are pure chains.
  SequenceDatabase db;
  std::vector<Itemset> txns(30, Itemset({1}));
  for (int i = 0; i < 3; ++i) db.Add(Sequence(txns));
  MineOptions options;
  options.min_support_count = 3;
  options.max_length = 6;
  const PatternSet reference = CreateMiner("pseudo")->Mine(db, options);
  EXPECT_EQ(reference.size(), 6u);  // (a), (a)(a), ..., length 6
  for (const std::string& name : AllMinerNames()) {
    EXPECT_EQ(CreateMiner(name)->Mine(db, options), reference) << name;
  }
}

}  // namespace
}  // namespace disc
