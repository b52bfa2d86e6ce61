// Cross-miner MineStats invariants: every algorithm behind the common
// Miner interface must produce a populated, per-run work report, and the
// work counters must reflect each strategy's defining behavior — most
// importantly the paper's headline claim that DISC (without the bi-level
// option the experiments enable) discovers frequent k-sequences for
// k >= 4 without counting supports.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>

#include "disc/algo/miner.h"
#include "disc/benchlib/workload.h"
#include "disc/gen/quest.h"
#include "disc/obs/metrics.h"
#include "disc/seq/parse.h"

namespace disc {
namespace {

// Fig9-shaped Quest workload, scaled for unit-test speed.
SequenceDatabase DenseDb() {
  QuestParams params = Fig9Params(200);
  params.nitems = 200;
  params.seed = 7;
  return GenerateQuestDatabase(params);
}

MineOptions DenseOptions(const SequenceDatabase& db) {
  MineOptions options;
  options.min_support_count = MineOptions::CountForFraction(db.size(), 0.1);
  return options;
}

// 30 customers, 20 of which contain the planted pattern (a)(b)(c)(d)(e):
// with delta 10 every miner must find frequent 5-sequences, so the
// k >= 4 support-counting attribution is guaranteed to be exercised.
#if DISC_OBS_ENABLED
SequenceDatabase PlantedDb() {
  SequenceDatabase db;
  for (int i = 0; i < 30; ++i) {
    std::string s;
    if (i % 3 != 0) s += "(a)(b)(c)(d)(e)";
    s += '(';
    s += static_cast<char>('f' + i % 5);
    s += ")(";
    s += static_cast<char>('k' + i % 7);
    s += ')';
    db.Add(ParseSequence(s));
  }
  return db;
}
#endif  // DISC_OBS_ENABLED

TEST(MineStats, EveryMinerReportsAPopulatedRun) {
  const SequenceDatabase db = DenseDb();
  const MineOptions options = DenseOptions(db);
  std::set<std::string> all_counters;
  std::size_t expected_patterns = 0;
  for (const std::string& name : AllMinerNames()) {
    const auto miner = CreateMiner(name);
    const PatternSet result = miner->Mine(db, options);
    const obs::MineStats& stats = miner->last_stats();
    EXPECT_EQ(stats.miner, name);
    EXPECT_EQ(stats.db_sequences, db.size());
    EXPECT_EQ(stats.num_patterns, result.size());
    EXPECT_EQ(stats.max_length, result.MaxLength());
    EXPECT_GE(stats.wall_seconds, 0.0);
    EXPECT_GT(stats.peak_rss_bytes, 0u);
#if DISC_OBS_ENABLED
    EXPECT_GE(stats.counters.size(), 2u) << name;
#endif
    for (const auto& [counter_name, value] : stats.counters) {
      all_counters.insert(counter_name);
      EXPECT_GT(value, 0u) << name << " harvested a zero-delta counter "
                           << counter_name;
    }
    // All miners agree on the result (the cross-check tests verify the
    // contents; here we only need identical shapes for the stats below).
    if (expected_patterns == 0) expected_patterns = result.size();
    EXPECT_EQ(result.size(), expected_patterns) << name;
  }
#if DISC_OBS_ENABLED
  EXPECT_GE(all_counters.size(), 5u);
#endif
}

TEST(MineStats, StatsAreFreshPerRunAndDeterministic) {
  const SequenceDatabase db = DenseDb();
  const MineOptions options = DenseOptions(db);
  const auto miner = CreateMiner("disc-all");
  miner->Mine(db, options);
  const obs::MineStats first = miner->last_stats();
  miner->Mine(db, options);
  const obs::MineStats& second = miner->last_stats();
  // Mining is deterministic and single-threaded: the second run must
  // harvest exactly the same per-run counter deltas, not an accumulation.
  EXPECT_EQ(first.counters, second.counters);
  EXPECT_EQ(first.num_patterns, second.num_patterns);
}

#if DISC_OBS_ENABLED
TEST(MineStats, DiscMinesLongPatternsWithoutSupportCounting) {
  const SequenceDatabase db = PlantedDb();
  MineOptions options;
  options.min_support_count = 10;

  // The workload must actually produce k >= 4 patterns for the claim to
  // mean anything.
  const auto nobilevel = CreateMiner("disc-all-nobilevel");
  nobilevel->Mine(db, options);
  ASSERT_GE(nobilevel->last_stats().max_length, 5u);

  // DISC without bi-level never support-counts past the partitioning
  // levels (lengths 2 and 3): k >= 4 patterns come from the sorted-set
  // intersection strategy alone.
  EXPECT_EQ(nobilevel->last_stats().Counter("support.increments.k4plus"), 0u);

  // Counting-based baselines must show k >= 4 support counting on the
  // same workload, proving the attribution counter works.
  for (const char* name : {"pseudo", "gsp"}) {
    const auto miner = CreateMiner(name);
    miner->Mine(db, options);
    EXPECT_GT(miner->last_stats().Counter("support.increments.k4plus"), 0u)
        << name;
  }
}

TEST(MineStats, DiscAllReportsPhysicalNrrGauges) {
  const SequenceDatabase db = DenseDb();
  const auto miner = CreateMiner("disc-all");
  miner->Mine(db, DenseOptions(db));
  const obs::MineStats& stats = miner->last_stats();
  ASSERT_TRUE(stats.HasGauge("disc.physical_nrr.level0"));
  const double nrr0 = stats.Gauge("disc.physical_nrr.level0");
  EXPECT_GT(nrr0, 0.0);
  EXPECT_LE(nrr0, 1.0);
}
#endif  // DISC_OBS_ENABLED

TEST(MineStats, TimeMineCarriesTheStats) {
  const SequenceDatabase db = DenseDb();
  const MineOptions options = DenseOptions(db);
  const auto miner = CreateMiner("prefixspan");
  const MineTiming t = TimeMine(miner.get(), db, options);
  EXPECT_EQ(t.stats.miner, "prefixspan");
  EXPECT_EQ(t.stats.num_patterns, t.num_patterns);
  EXPECT_EQ(t.stats.max_length, t.max_length);
}

}  // namespace
}  // namespace disc
