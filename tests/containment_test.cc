#include "disc/seq/containment.h"

#include <gtest/gtest.h>

#include "disc/common/rng.h"
#include "disc/order/kmin_brute.h"
#include "test_util.h"

namespace disc {
namespace {

using testutil::Seq;

TEST(Containment, PaperDefinitionExamples) {
  // From §1: <(a,g)(b)> occurs in CIDs 1 and 4 of Table 1.
  const SequenceDatabase db = testutil::Table1Database();
  const Sequence p = Seq("(a,g)(b)");
  EXPECT_TRUE(Contains(db[0], p));
  EXPECT_FALSE(Contains(db[1], p));
  EXPECT_FALSE(Contains(db[2], p));
  EXPECT_TRUE(Contains(db[3], p));
}

TEST(Containment, ItemsetMustBeWithinOneTransaction) {
  EXPECT_FALSE(Contains(Seq("(a)(b)"), Seq("(a,b)")));
  EXPECT_TRUE(Contains(Seq("(a,b)"), Seq("(a,b)")));
  EXPECT_TRUE(Contains(Seq("(c)(a,b,d)"), Seq("(a,b)")));
}

TEST(Containment, OrderMatters) {
  EXPECT_TRUE(Contains(Seq("(a)(b)"), Seq("(a)(b)")));
  EXPECT_FALSE(Contains(Seq("(b)(a)"), Seq("(a)(b)")));
  // Distinct transactions are required for distinct pattern itemsets.
  EXPECT_FALSE(Contains(Seq("(a,b)"), Seq("(a)(b)")));
}

TEST(Containment, EmptyPattern) {
  const EmbeddingEnds e = LeftmostEnds(Seq("(a)"), Sequence());
  EXPECT_TRUE(e.contained);
  EXPECT_EQ(e.full_end, kNoTxn);
  EXPECT_EQ(e.prefix_end, kNoTxn);
}

TEST(Containment, LeftmostEmbeddingIsGreedy) {
  const Sequence s = Seq("(a)(x,a)(b)(a,b)");
  const EmbeddingEnds e = LeftmostEnds(s, Seq("(a)(b)"));
  ASSERT_TRUE(e.contained);
  EXPECT_EQ(e.prefix_end, 0u);
  EXPECT_EQ(e.full_end, 2u);
}

TEST(Containment, FindTxnWithItemset) {
  const Sequence s = Seq("(a)(a,b)(c)(a,b)");
  const Item ab[] = {1, 2};
  EXPECT_EQ(FindTxnWithItemset(s, 0, ab, ab + 2), 1u);
  EXPECT_EQ(FindTxnWithItemset(s, 2, ab, ab + 2), 3u);
  EXPECT_EQ(FindTxnWithItemset(s, 4, ab, ab + 2), kNoTxn);
  const Item d[] = {4};
  EXPECT_EQ(FindTxnWithItemset(s, 0, d, d + 1), kNoTxn);
}

TEST(Containment, CountSupportMatchesPaper) {
  const SequenceDatabase db = testutil::Table1Database();
  EXPECT_EQ(CountSupport(db, Seq("(b)")), 4u);
  EXPECT_EQ(CountSupport(db, Seq("(b,f)")), 3u);
  EXPECT_EQ(CountSupport(db, Seq("(d)")), 1u);
  EXPECT_EQ(CountSupport(db, Seq("(z)")), 0u);
}

// Property: greedy leftmost embedding end transaction is minimal over all
// embeddings — verified against the brute-force subsequence enumerator (a
// pattern is contained iff it appears among the distinct k-subsequences).
TEST(Containment, AgreesWithBruteForceEnumeration) {
  Rng rng(99);
  for (int trial = 0; trial < 60; ++trial) {
    const Sequence s = testutil::RandomSequence(&rng, 5, 4, 3);
    for (std::uint32_t k = 1; k <= 3 && k <= s.Length(); ++k) {
      for (const Sequence& sub : AllDistinctKSubsequences(s, k)) {
        EXPECT_TRUE(Contains(s, sub))
            << sub.ToString() << " in " << s.ToString();
      }
    }
    // A pattern using an item beyond the alphabet is never contained.
    Sequence absent;
    absent.AppendNewItemset(9);
    EXPECT_FALSE(Contains(s, absent));
  }
}

}  // namespace
}  // namespace disc
