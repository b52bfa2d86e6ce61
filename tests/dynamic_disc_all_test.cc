#include "disc/core/dynamic_disc_all.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>

#include "disc/algo/prefixspan.h"
#include "disc/core/disc_all.h"
#include "disc/obs/metrics.h"
#include "disc/seq/containment.h"
#include "test_util.h"

namespace disc {
namespace {

using testutil::Seq;

TEST(DynamicDiscAll, MatchesPrefixSpanOnPaperExample) {
  const SequenceDatabase db = testutil::Table6Database();
  MineOptions options;
  options.min_support_count = 3;
  DynamicDiscAll dynamic;
  PrefixSpan ps(PrefixSpan::Projection::kPseudo);
  EXPECT_EQ(dynamic.Mine(db, options), ps.Mine(db, options));
}

TEST(DynamicDiscAll, GammaExtremes) {
  // gamma <= 0: the NRR test always fails, so the root does not split and
  // one DISC run from length 2 covers the whole database. gamma > 1:
  // partition all the way down (never switch to DISC). Both must be
  // correct.
  const SequenceDatabase db = testutil::RandomDatabase(8);
  MineOptions options;
  options.min_support_count = 3;
  const PatternSet reference =
      PrefixSpan(PrefixSpan::Projection::kPseudo).Mine(db, options);

  DynamicDiscAll::Config disc_only;
  disc_only.gamma = 0.0;
  DynamicDiscAll a(disc_only);
  EXPECT_EQ(a.Mine(db, options), reference);
  EXPECT_EQ(a.last_stats().Counter("dynamic.partitions_split"), 0u);
#if DISC_OBS_ENABLED
  EXPECT_GT(a.last_stats().Counter("dynamic.partitions_to_disc"), 0u);
#endif

  DynamicDiscAll::Config growth_only;
  growth_only.gamma = 1.01;
  DynamicDiscAll b(growth_only);
  EXPECT_EQ(b.Mine(db, options), reference);
  EXPECT_EQ(b.last_stats().Counter("dynamic.partitions_to_disc"), 0u);
#if DISC_OBS_ENABLED
  EXPECT_GT(b.last_stats().Counter("dynamic.partitions_split"), 0u);
#endif
}

TEST(DynamicDiscAll, MidGammaMixesStrategies) {
  const SequenceDatabase db = testutil::RandomDatabase(21);
  MineOptions options;
  options.min_support_count = 2;
  DynamicDiscAll::Config config;
  config.gamma = 0.5;
  DynamicDiscAll miner(config);
  const PatternSet got = miner.Mine(db, options);
  EXPECT_EQ(got, PrefixSpan(PrefixSpan::Projection::kPseudo).Mine(db, options));
#if DISC_OBS_ENABLED
  const auto& stats = miner.last_stats();
  EXPECT_GT(stats.Counter("dynamic.partitions_split") +
                stats.Counter("dynamic.partitions_to_disc"),
            0u);
#endif
}

TEST(DynamicDiscAll, FixedLevelsSweepAgrees) {
  // Every split rule must produce the same pattern set; only the strategy
  // mix changes: no split at the root (fixed_levels 0, gamma 0), DISC from
  // length 3 on each reduced root child (fixed_levels 1), DISC-all's two
  // levels, deeper fixed splits, and the NRR rule up to splitting all the
  // way down.
  MineOptions options;
  options.min_support_count = 3;
  for (const std::uint64_t seed : {8u, 21u, 33u, 66u}) {
    const SequenceDatabase db = testutil::RandomDatabase(seed);
    const PatternSet reference =
        PrefixSpan(PrefixSpan::Projection::kPseudo).Mine(db, options);
    for (const std::int32_t levels : {0, 1, 2, 3, 4, 10}) {
      DynamicDiscAll::Config config;
      config.fixed_levels = levels;
      EXPECT_EQ(DynamicDiscAll(config).Mine(db, options), reference)
          << "seed " << seed << " levels " << levels;
    }
    for (const double gamma : {0.0, 0.25, 0.5, 1.01}) {
      DynamicDiscAll::Config config;
      config.gamma = gamma;
      EXPECT_EQ(DynamicDiscAll(config).Mine(db, options), reference)
          << "seed " << seed << " gamma " << gamma;
    }
  }
  const SequenceDatabase db = testutil::RandomDatabase(33);
  // levels=0 must never split; a large level count must never reach DISC
  // on this shallow data.
  DynamicDiscAll::Config zero;
  zero.fixed_levels = 0;
  DynamicDiscAll z(zero);
  z.Mine(db, options);
  EXPECT_EQ(z.last_stats().Counter("dynamic.partitions_split"), 0u);
  DynamicDiscAll::Config deep;
  deep.fixed_levels = 100;
  DynamicDiscAll d(deep);
  d.Mine(db, options);
  EXPECT_EQ(d.last_stats().Counter("dynamic.partitions_to_disc"), 0u);
}

// The work counters of a run that depend only on what the recursion mines,
// not on how it is scheduled.
std::map<std::string, std::uint64_t> WorkCounters(const MineStats& stats) {
  std::map<std::string, std::uint64_t> work;
  for (const auto& [name, value] : stats.counters) {
    if (name == "disc.iterations" || name == "disc.frequent_buckets" ||
        name == "disc.infrequent_skips" || name.rfind("kms.", 0) == 0 ||
        name.rfind("counting_array.", 0) == 0 ||
        name == "partition.reduced_sequences" ||
        name == "disc.partitions.second_level") {
      work[name] = value;
    }
  }
  return work;
}

TEST(DynamicDiscAll, TwoFixedLevelsAreDiscAll) {
  // Ablation D's claim that two partitioning levels are DISC-all's scheme,
  // pinned by the work as well as the output: both miners run the same
  // partition recursion with the same split rule.
  for (const std::uint64_t seed : {5u, 17u, 29u}) {
    testutil::RandomDbSpec spec;
    spec.num_seqs = 60;
    spec.alphabet = 10;
    spec.max_txns = 6;
    const SequenceDatabase db = testutil::RandomDatabase(seed, spec);
    MineOptions options;
    options.min_support_count = 4;
    for (const bool bilevel : {true, false}) {
      for (const std::uint32_t threads : {1u, 4u}) {
        options.threads = threads;
        const std::string label = "seed " + std::to_string(seed) +
                                  " bilevel " + std::to_string(bilevel) +
                                  " threads " + std::to_string(threads);
        DiscAll::Config disc_config;
        disc_config.bilevel = bilevel;
        DiscAll disc(disc_config);
        DynamicDiscAll::Config dynamic_config;
        dynamic_config.fixed_levels = 2;
        dynamic_config.bilevel = bilevel;
        DynamicDiscAll dynamic(dynamic_config);
        EXPECT_EQ(disc.Mine(db, options), dynamic.Mine(db, options)) << label;
        const auto work = WorkCounters(disc.last_stats());
        EXPECT_EQ(work, WorkCounters(dynamic.last_stats())) << label;
#if DISC_OBS_ENABLED
        EXPECT_GT(work.count("disc.iterations"), 0u) << label;
        EXPECT_GT(work.count("partition.reduced_sequences"), 0u) << label;
        EXPECT_GT(work.count("disc.partitions.second_level"), 0u) << label;
#endif
      }
    }
  }
}

TEST(DynamicDiscAll, SupportsAreExact) {
  const SequenceDatabase db = testutil::RandomDatabase(66);
  MineOptions options;
  options.min_support_count = 4;
  const PatternSet got = DynamicDiscAll().Mine(db, options);
  ASSERT_FALSE(got.empty());
  for (const auto& [p, sup] : got) {
    EXPECT_EQ(sup, CountSupport(db, p)) << p.ToString();
  }
}

TEST(DynamicDiscAll, MaxLengthRespected) {
  const SequenceDatabase db = testutil::RandomDatabase(9);
  MineOptions options;
  options.min_support_count = 2;
  options.max_length = 3;
  const PatternSet got = DynamicDiscAll().Mine(db, options);
  EXPECT_LE(got.MaxLength(), 3u);
  MineOptions full = options;
  full.max_length = 0;
  const PatternSet all = DynamicDiscAll().Mine(db, full);
  std::size_t expected = 0;
  for (const auto& [p, sup] : all) {
    (void)sup;
    if (p.Length() <= 3) ++expected;
  }
  EXPECT_EQ(got.size(), expected);
}

}  // namespace
}  // namespace disc
