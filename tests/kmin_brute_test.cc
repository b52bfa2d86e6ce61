#include "disc/order/kmin_brute.h"

#include <gtest/gtest.h>

#include "disc/seq/containment.h"
#include "test_util.h"

namespace disc {
namespace {

using testutil::Seq;

TEST(KminBrute, EnumeratesAllDistinctSubsequences) {
  // (a,b)(a): 2-subsequences are (a,b), (a)(a), (b)(a) — and (a) x2
  // collapses for k=1.
  const Sequence s = Seq("(a,b)(a)");
  const std::vector<Sequence> k1 = AllDistinctKSubsequences(s, 1);
  ASSERT_EQ(k1.size(), 2u);
  EXPECT_EQ(k1[0].ToString(), "(a)");
  EXPECT_EQ(k1[1].ToString(), "(b)");
  const std::vector<Sequence> k2 = AllDistinctKSubsequences(s, 2);
  ASSERT_EQ(k2.size(), 3u);
  // Token order: (a)(a) < (a,b) (second token (a,2) < (b,1) on item).
  EXPECT_EQ(k2[0].ToString(), "(a)(a)");
  EXPECT_EQ(k2[1].ToString(), "(a,b)");
  EXPECT_EQ(k2[2].ToString(), "(b)(a)");
  const std::vector<Sequence> k3 = AllDistinctKSubsequences(s, 3);
  ASSERT_EQ(k3.size(), 1u);
  EXPECT_EQ(k3[0].ToString(), "(a,b)(a)");
  EXPECT_TRUE(AllDistinctKSubsequences(s, 4).empty());
}

TEST(KminBrute, ResultsAreSortedAndContained) {
  const Sequence s = Seq("(c,a)(b)(a,c)");
  for (std::uint32_t k = 1; k <= s.Length(); ++k) {
    const std::vector<Sequence> all = AllDistinctKSubsequences(s, k);
    for (std::size_t i = 0; i < all.size(); ++i) {
      EXPECT_EQ(all[i].Length(), k);
      EXPECT_TRUE(Contains(s, all[i]));
      if (i > 0) {
        EXPECT_LT(CompareSequences(all[i - 1], all[i]), 0);
      }
    }
  }
}

TEST(KminBrute, KMinExamples) {
  EXPECT_EQ(BruteKMin(Seq("(b)(d,f)(e)"), 3)->ToString(), "(b)(d)(e)");
  EXPECT_EQ(BruteKMin(Seq("(b,f,g)"), 3)->ToString(), "(b,f,g)");
  EXPECT_FALSE(BruteKMin(Seq("(a)"), 2).has_value());
}

TEST(KminBrute, FrequentPrefixRestriction) {
  const Sequence s = Seq("(a)(b)(c)");
  // Unrestricted 2-min is (a)(b); restricting prefixes to {(b)} forces
  // (b)(c).
  EXPECT_EQ(BruteKMin(s, 2)->ToString(), "(a)(b)");
  const std::vector<Sequence> only_b = {Seq("(b)")};
  EXPECT_EQ(BruteKMinWithFrequentPrefix(s, 2, only_b)->ToString(), "(b)(c)");
  const std::vector<Sequence> only_c = {Seq("(c)")};
  EXPECT_FALSE(BruteKMinWithFrequentPrefix(s, 2, only_c).has_value());
}

TEST(KminBrute, ConditionalBounds) {
  const Sequence s = Seq("(a)(b)(c)");
  const std::vector<Sequence> prefixes = {Seq("(a)"), Seq("(b)")};
  // Strictly above (a)(b): next qualifying is (a)(c).
  EXPECT_EQ(BruteConditionalKMin(s, 2, prefixes, Seq("(a)(b)"), true)
                ->ToString(),
            "(a)(c)");
  // At-or-above (a)(b): (a)(b) itself.
  EXPECT_EQ(BruteConditionalKMin(s, 2, prefixes, Seq("(a)(b)"), false)
                ->ToString(),
            "(a)(b)");
  // Above everything: nothing qualifies.
  EXPECT_FALSE(
      BruteConditionalKMin(s, 2, prefixes, Seq("(z)(z)"), false).has_value());
}

}  // namespace
}  // namespace disc
