// Cross-algorithm agreement across Quest workload *shapes*: the paper's
// evaluation sweeps database size, density (tlen), sequence length (slen)
// and pattern length; this suite sweeps the same axes at test scale and
// demands identical output from every miner.
#include <tuple>

#include <gtest/gtest.h>

#include "disc/algo/miner.h"
#include "disc/common/rng.h"
#include "disc/core/weighted.h"
#include "disc/gen/quest.h"
#include "test_util.h"

namespace disc {
namespace {

class QuestShapes
    : public ::testing::TestWithParam<std::tuple<double, double, double>> {};

TEST_P(QuestShapes, AllMinersAgree) {
  const auto [slen, tlen, patlen] = GetParam();
  const SequenceDatabase db = testutil::MakeQuestDb({.ncust = 150,
                                                     .nitems = 50,
                                                     .slen = slen,
                                                     .tlen = tlen,
                                                     .seq_patlen = patlen,
                                                     .npats = 40,
                                                     .nlits = 80,
                                                     .seed = 20240705});
  // The Figure 9 corner packs 8 of the 50 items into every transaction: at
  // the other shapes' 0.08 it holds 1.4M patterns of length <= 4, where
  // 0.6 still leaves about 6K of every length up to 4.
  const double minsup = tlen >= 8.0 ? 0.6 : 0.08;
  MineOptions options;
  options.min_support_count = MineOptions::CountForFraction(db.size(), minsup);
  options.max_length = 4;  // bounds GSP's candidate sets on dense corners
  const PatternSet reference = CreateMiner("pseudo")->Mine(db, options);
  EXPECT_FALSE(reference.empty());
  for (const std::string& name : AllMinerNames()) {
    if (name == "pseudo") continue;
    const PatternSet got = CreateMiner(name)->Mine(db, options);
    EXPECT_EQ(got, reference)
        << name << " on slen=" << slen << " tlen=" << tlen
        << " patlen=" << patlen << "\n"
        << reference.Diff(got);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, QuestShapes,
    ::testing::Values(std::make_tuple(4.0, 1.5, 3.0),   // sparse short
                      std::make_tuple(10.0, 2.5, 4.0),  // Figure 8 shape
                      std::make_tuple(8.0, 8.0, 8.0),   // Figure 9 shape
                      std::make_tuple(14.0, 2.5, 4.0),  // high theta
                      std::make_tuple(3.0, 6.0, 2.0),   // wide baskets
                      std::make_tuple(12.0, 1.2, 6.0)   // near-item sequences
                      ));

class WeightedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WeightedSweep, WeightedMatchesOracleEverywhere) {
  // Random weights over random shapes: every reported pattern's weight is
  // oracle-exact, and unit weights reduce to the unweighted miner.
  Rng rng(GetParam());
  testutil::RandomDbSpec spec;
  spec.num_seqs = 25;
  spec.alphabet = 6;
  spec.max_txns = 4;
  spec.max_items_per_txn = 2;
  const SequenceDatabase db = testutil::RandomDatabase(rng.Next(), spec);
  WeightedOptions options;
  for (Cid cid = 0; cid < db.size(); ++cid) {
    options.weights.push_back(0.25 + rng.NextDouble() * 2.0);
  }
  options.min_weight = 6.0;
  const WeightedPatternSet got = MineWeighted(db, options);
  for (const auto& [p, w] : got) {
    EXPECT_NEAR(w, WeightedSupport(db, options.weights, p), 1e-6)
        << p.ToString();
  }
  // Downward closure under weights (weights are non-negative, so prefixes
  // weigh at least as much).
  for (const auto& [p, w] : got) {
    for (std::uint32_t k = 1; k < p.Length(); ++k) {
      const auto it = got.find(p.Prefix(k));
      ASSERT_NE(it, got.end()) << p.Prefix(k).ToString();
      EXPECT_GE(it->second + 1e-9, w);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WeightedSweep,
                         ::testing::Range<std::uint64_t>(500, 510));

}  // namespace
}  // namespace disc
