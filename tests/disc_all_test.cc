#include "disc/core/disc_all.h"

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "disc/algo/prefixspan.h"
#include "disc/seq/containment.h"
#include "test_util.h"

namespace disc {
namespace {

using testutil::Seq;

TEST(DiscAll, Table6AtDelta3MatchesPrefixSpan) {
  const SequenceDatabase db = testutil::Table6Database();
  MineOptions options;
  options.min_support_count = 3;
  DiscAll disc;
  PrefixSpan ps(PrefixSpan::Projection::kPseudo);
  const PatternSet got = disc.Mine(db, options);
  const PatternSet expected = ps.Mine(db, options);
  EXPECT_EQ(got, expected) << expected.Diff(got);
#if DISC_OBS_ENABLED
  EXPECT_GT(disc.last_stats().Counter("disc.partitions.first_level"), 0u);
#endif
}

TEST(DiscAll, MaxLengthIsRespectedAtEveryBoundary) {
  const SequenceDatabase db = testutil::RandomDatabase(17);
  MineOptions base;
  base.min_support_count = 2;
  DiscAll disc;
  const PatternSet full = disc.Mine(db, base);
  const std::uint32_t deepest = full.MaxLength();
  ASSERT_GE(deepest, 4u);  // the shapes below need some depth
  for (std::uint32_t cap = 1; cap <= deepest + 1; ++cap) {
    MineOptions options = base;
    options.max_length = cap;
    const PatternSet capped = disc.Mine(db, options);
    EXPECT_EQ(capped.MaxLength(), std::min(cap, deepest)) << "cap " << cap;
    // Capped result is exactly the full result filtered by length.
    std::size_t expected_count = 0;
    for (const auto& [p, sup] : full) {
      if (p.Length() <= cap) {
        ++expected_count;
        EXPECT_EQ(capped.SupportOf(p), sup) << p.ToString();
      }
    }
    EXPECT_EQ(capped.size(), expected_count);
  }
}

TEST(DiscAll, PlainAndBilevelAgree) {
  for (std::uint64_t seed = 40; seed < 46; ++seed) {
    const SequenceDatabase db = testutil::RandomDatabase(seed);
    MineOptions options;
    options.min_support_count = 3;
    DiscAll::Config plain;
    plain.bilevel = false;
    const PatternSet a = DiscAll(plain).Mine(db, options);
    const PatternSet b = DiscAll().Mine(db, options);
    EXPECT_EQ(a, b) << a.Diff(b);
  }
}

TEST(DiscAll, SupportsAreExact) {
  // Every reported support equals a brute-force recount.
  const SequenceDatabase db = testutil::RandomDatabase(55);
  MineOptions options;
  options.min_support_count = 4;
  const PatternSet got = DiscAll().Mine(db, options);
  ASSERT_FALSE(got.empty());
  for (const auto& [p, sup] : got) {
    EXPECT_EQ(sup, CountSupport(db, p)) << p.ToString();
  }
}

TEST(DiscAll, StatsAccumulate) {
  const SequenceDatabase db = testutil::RandomDatabase(3);
  MineOptions options;
  options.min_support_count = 2;
  DiscAll disc;
  disc.Mine(db, options);
  const MineStats s = disc.last_stats();
  EXPECT_EQ(s.miner, "disc-all");
  EXPECT_EQ(s.db_sequences, db.size());
  EXPECT_GT(s.num_patterns, 0u);
#if DISC_OBS_ENABLED
  EXPECT_GT(s.Counter("disc.partitions.first_level"), 0u);
  EXPECT_GT(s.Counter("disc.partitions.second_level"), 0u);
  EXPECT_GT(s.Counter("disc.iterations"), 0u);
#endif
  // Counters are per-run deltas, not process totals: a fresh run on an
  // empty database reports no work even though the globals keep growing.
  SequenceDatabase empty;
  disc.Mine(empty, options);
  EXPECT_EQ(disc.last_stats().Counter("disc.partitions.first_level"), 0u);
  EXPECT_EQ(disc.last_stats().num_patterns, 0u);
}

TEST(DiscAll, PhysicalNrrInstrumentation) {
  const SequenceDatabase db = testutil::RandomDatabase(3);
  MineOptions options;
  options.min_support_count = 2;
  DiscAll disc;
  disc.Mine(db, options);
  // First-level partitions cover disjoint subsets at creation but members
  // are revisited via reassignment, so the per-partition ratio is a
  // genuine fraction of the database.
#if DISC_OBS_ENABLED
  const MineStats& s = disc.last_stats();
  EXPECT_GT(s.Gauge("disc.physical_nrr.level0"), 0.0);
  EXPECT_LE(s.Gauge("disc.physical_nrr.level0"), 1.0);
  EXPECT_GT(s.Gauge("disc.physical_nrr.level1"), 0.0);
  EXPECT_LE(s.Gauge("disc.physical_nrr.level1"), 1.0);
#endif
  // Degenerate runs never set the gauges (and Gauge() reports NaN).
  DiscAll empty_miner;
  empty_miner.Mine(SequenceDatabase(), options);
  EXPECT_FALSE(empty_miner.last_stats().HasGauge("disc.physical_nrr.level0"));
  EXPECT_TRUE(
      std::isnan(empty_miner.last_stats().Gauge("disc.physical_nrr.level0")));
}

TEST(DiscAll, PhysicalNrrLevel1CountsEveryMemberOfAChild) {
  // Only ⟨a⟩ = all three sequences reaches the second level (⟨b⟩ and ⟨c⟩
  // have no frequent 2-sequence). Its frequent 2-sequences are (a)(b) and
  // (a)(c), and (a)(b)(c) contains both: it starts in the (a)(b) child and
  // is reassigned to (a)(c), so the children are mined with {1, 2} and
  // {1, 3}. Level-1 NRR = (2 + 2) / (2 children × 3 members) = 2/3; sizes
  // taken before the reassignment would give (2 + 1) / 6 = 1/2. Level 0
  // averages 3/3, 2/3 and 2/3.
  SequenceDatabase db;
  db.Add(Seq("(a)(b)(c)"));
  db.Add(Seq("(a)(b)(b)"));
  db.Add(Seq("(a)(c)(c)"));
  MineOptions options;
  options.min_support_count = 2;
  for (const std::uint32_t threads : {1u, 4u}) {
    options.threads = threads;
    DiscAll disc;
    const PatternSet got = disc.Mine(db, options);
    EXPECT_EQ(got.size(), 5u);
    EXPECT_EQ(got.SupportOf(Seq("(a)(c)")), 2u);
#if DISC_OBS_ENABLED
    const MineStats& s = disc.last_stats();
    EXPECT_EQ(s.Counter("disc.partitions.second_level"), 2u);
    EXPECT_DOUBLE_EQ(s.Gauge("disc.physical_nrr.level1"), 2.0 / 3.0);
    EXPECT_NEAR(s.Gauge("disc.physical_nrr.level0"), 7.0 / 9.0, 1e-12);
#endif
  }
}

TEST(DiscAll, RepeatedItemsAcrossTransactions) {
  SequenceDatabase db;
  for (int i = 0; i < 3; ++i) db.Add(Seq("(a)(a)(a)(a)"));
  MineOptions options;
  options.min_support_count = 3;
  const PatternSet got = DiscAll().Mine(db, options);
  EXPECT_EQ(got.size(), 4u);
  EXPECT_EQ(got.SupportOf(Seq("(a)(a)(a)(a)")), 3u);
}

}  // namespace
}  // namespace disc
