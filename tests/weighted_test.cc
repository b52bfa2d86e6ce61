// Weighted DISC mining (paper §5 future work) against the brute-force
// weighted-support oracle, plus consistency with unweighted mining when all
// weights are 1.
#include "disc/core/weighted.h"

#include <gtest/gtest.h>

#include "disc/algo/miner.h"
#include "disc/common/rng.h"
#include "disc/core/ksorted.h"
#include "disc/order/kmin_brute.h"
#include "test_util.h"

namespace disc {
namespace {

using testutil::KeyOf;
using testutil::Seq;

TEST(Weighted, HandExample) {
  SequenceDatabase db;
  db.Add(Seq("(a)(b)"));  // weight 5
  db.Add(Seq("(a)(b)"));  // weight 0.5
  db.Add(Seq("(a)(c)"));  // weight 1
  WeightedOptions options;
  options.weights = {5.0, 0.5, 1.0};
  options.min_weight = 5.0;
  const WeightedPatternSet got = MineWeighted(db, options);
  // (a): 6.5, (b): 5.5, (a)(b): 5.5; (c) and (a)(c) only weigh 1.
  ASSERT_EQ(got.size(), 3u);
  EXPECT_DOUBLE_EQ(got.at(Seq("(a)")), 6.5);
  EXPECT_DOUBLE_EQ(got.at(Seq("(b)")), 5.5);
  EXPECT_DOUBLE_EQ(got.at(Seq("(a)(b)")), 5.5);
}

TEST(Weighted, UnitWeightsEqualUnweighted) {
  for (std::uint64_t seed = 70; seed < 76; ++seed) {
    const SequenceDatabase db = testutil::RandomDatabase(seed);
    MineOptions plain;
    plain.min_support_count = 3;
    const PatternSet reference = CreateMiner("disc-all")->Mine(db, plain);
    WeightedOptions options;
    options.weights.assign(db.size(), 1.0);
    options.min_weight = 3.0;
    const WeightedPatternSet got = MineWeighted(db, options);
    ASSERT_EQ(got.size(), reference.size()) << "seed " << seed;
    for (const auto& [p, w] : got) {
      EXPECT_EQ(static_cast<std::uint32_t>(w + 0.5), reference.SupportOf(p))
          << p.ToString();
    }
  }
}

TEST(Weighted, MatchesBruteForceOracle) {
  Rng rng(313);
  for (std::uint64_t seed = 80; seed < 88; ++seed) {
    const SequenceDatabase db = testutil::RandomDatabase(seed);
    WeightedOptions options;
    options.weights.reserve(db.size());
    for (Cid cid = 0; cid < db.size(); ++cid) {
      options.weights.push_back(rng.NextDouble() * 4.0);
    }
    options.min_weight = 8.0;
    const WeightedPatternSet got = MineWeighted(db, options);
    // Soundness: every reported pattern's weight matches the oracle.
    for (const auto& [p, w] : got) {
      EXPECT_NEAR(w, WeightedSupport(db, options.weights, p), 1e-6)
          << p.ToString();
      EXPECT_GE(w, options.min_weight);
    }
    // Completeness for lengths 1-3 by brute-force enumeration.
    std::set<Sequence, SequenceLess> candidates;
    for (const SequenceView s : db) {
      for (std::uint32_t k = 1; k <= 3; ++k) {
        for (const Sequence& sub : AllDistinctKSubsequences(s, k)) {
          candidates.insert(sub);
        }
      }
    }
    for (const Sequence& c : candidates) {
      const double w = WeightedSupport(db, options.weights, c);
      EXPECT_EQ(got.count(c) > 0, w >= options.min_weight)
          << c.ToString() << " weight " << w;
    }
  }
}

TEST(Weighted, ZeroWeightCustomersAreInert) {
  SequenceDatabase db;
  db.Add(Seq("(a)(b)"));
  db.Add(Seq("(a)(b)"));
  db.Add(Seq("(z)(z)"));
  WeightedOptions options;
  options.weights = {1.0, 1.0, 0.0};
  options.min_weight = 2.0;
  const WeightedPatternSet got = MineWeighted(db, options);
  EXPECT_TRUE(got.count(Seq("(a)(b)")));
  EXPECT_FALSE(got.count(Seq("(z)")));
  EXPECT_FALSE(got.count(Seq("(z)(z)")));
}

TEST(Weighted, MaxLengthRespected) {
  SequenceDatabase db;
  for (int i = 0; i < 3; ++i) db.Add(Seq("(a)(b)(c)(d)"));
  WeightedOptions options;
  options.weights.assign(db.size(), 1.0);
  options.min_weight = 3.0;
  options.max_length = 2;
  const WeightedPatternSet got = MineWeighted(db, options);
  for (const auto& [p, w] : got) {
    (void)w;
    EXPECT_LE(p.Length(), 2u);
  }
  EXPECT_EQ(got.size(), 4u + 6u);  // four 1-sequences, six 2-sequences
}

TEST(WeightedDeathTest, InvalidOptionsAbort) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  SequenceDatabase db;
  db.Add(Seq("(a)"));
  WeightedOptions options;
  options.weights = {1.0, 2.0};  // size mismatch
  EXPECT_DEATH(MineWeighted(db, options), "one weight per");
  options.weights = {-1.0};
  EXPECT_DEATH(MineWeighted(db, options), "w >= 0");
  options.weights = {1.0};
  options.min_weight = 0.0;
  EXPECT_DEATH(MineWeighted(db, options), "min_weight");
}

TEST(Weighted, SelectKeyByRunningWeight) {
  // Three members keyed (s)(a), (s)(b), (s)(c) over the list <(s)>,
  // weighing 2.0, 0.5 and 3.0.
  SequenceDatabase db;
  db.Add(Seq("(s)(a)"));
  db.Add(Seq("(s)(b)"));
  db.Add(Seq("(s)(c)"));
  const std::vector<double> weights = {2.0, 0.5, 3.0};
  const std::vector<Sequence> list = {Seq("(s)")};
  const testutil::PassInput in(db, list);
  KSortedDatabase sd(in.members(), &list, 2, /*locative=*/true, &in.groups);
  auto select = [&](double min_weight) -> std::string {
    const std::optional<RankKey> key =
        WeightedSelectKey(sd, weights, min_weight);
    return key ? KeySequence(list, *key).ToString() : "end";
  };
  EXPECT_EQ(select(0.1), "(s)(a)");  // inside the first bucket
  EXPECT_EQ(select(2.0), "(s)(a)");  // on its boundary
  EXPECT_EQ(select(2.2), "(s)(b)");  // just past it
  EXPECT_EQ(select(5.5), "(s)(c)");  // the total
  EXPECT_EQ(select(5.6), "end");     // above the total: the pass ends
  std::vector<std::uint32_t> handles;
  sd.PopMinBucket(&handles);
  EXPECT_EQ(select(3.5), "(s)(c)");
  EXPECT_EQ(select(3.6), "end");
}

}  // namespace
}  // namespace disc
