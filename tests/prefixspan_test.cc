#include "disc/algo/prefixspan.h"

#include <gtest/gtest.h>

#include "disc/core/first_level.h"
#include "disc/obs/mine_stats.h"
#include "disc/seq/containment.h"
#include "disc/seq/extension.h"
#include "test_util.h"

namespace disc {
namespace {

using testutil::Seq;

TEST(PrefixSpan, Table2ProjectionSemantics) {
  // §1.1: the projected database of <(a)> over Table 1 contains CIDs 1 and
  // 4; frequent 2-sequences with prefix (a) at delta=2 follow from it.
  const SequenceDatabase db = testutil::Table1Database();
  MineOptions options;
  options.min_support_count = 2;
  options.max_length = 2;
  const PatternSet got =
      PrefixSpan(PrefixSpan::Projection::kPseudo).Mine(db, options);
  // From CIDs 1 and 4: (a)(b), (a)(f), (a)(h)? CID1 has h after a, CID4 has
  // h after a -> support 2. (a,g) i-extension in both.
  EXPECT_EQ(got.SupportOf(Seq("(a)(b)")), 2u);
  EXPECT_EQ(got.SupportOf(Seq("(a)(f)")), 2u);
  EXPECT_EQ(got.SupportOf(Seq("(a)(h)")), 2u);
  EXPECT_EQ(got.SupportOf(Seq("(a,g)")), 2u);
  EXPECT_FALSE(got.Contains(Seq("(a)(c)")));  // only CID 1
  EXPECT_FALSE(got.Contains(Seq("(a,e)")));   // only CID 1
}

TEST(PrefixSpan, PhysicalAndPseudoAgree) {
  for (std::uint64_t seed = 60; seed < 70; ++seed) {
    const SequenceDatabase db = testutil::RandomDatabase(seed);
    for (const std::uint32_t delta : {2u, 4u}) {
      MineOptions options;
      options.min_support_count = delta;
      const PatternSet a =
          PrefixSpan(PrefixSpan::Projection::kPhysical).Mine(db, options);
      const PatternSet b =
          PrefixSpan(PrefixSpan::Projection::kPseudo).Mine(db, options);
      EXPECT_EQ(a, b) << "seed " << seed << " delta " << delta << "\n"
                      << a.Diff(b);
    }
  }
}

TEST(PrefixSpan, SupportsAreExact) {
  const SequenceDatabase db = testutil::RandomDatabase(71);
  MineOptions options;
  options.min_support_count = 3;
  const PatternSet got =
      PrefixSpan(PrefixSpan::Projection::kPseudo).Mine(db, options);
  ASSERT_FALSE(got.empty());
  for (const auto& [p, sup] : got) {
    EXPECT_EQ(sup, CountSupport(db, p)) << p.ToString();
  }
}

TEST(PrefixSpan, ClosureUnderPrefixes) {
  // Every mined pattern's every prefix is also mined with >= support
  // (anti-monotonicity sanity).
  const SequenceDatabase db = testutil::RandomDatabase(72);
  MineOptions options;
  options.min_support_count = 3;
  const PatternSet got =
      PrefixSpan(PrefixSpan::Projection::kPseudo).Mine(db, options);
  for (const auto& [p, sup] : got) {
    for (std::uint32_t k = 1; k < p.Length(); ++k) {
      const Sequence prefix = p.Prefix(k);
      EXPECT_TRUE(got.Contains(prefix)) << prefix.ToString();
      EXPECT_GE(got.SupportOf(prefix), sup);
    }
  }
}

TEST(PrefixSpan, ItemsetExtensionViaLaterTransaction) {
  // The postfix rule for non-leftmost itemset extensions: pattern (a)(c,z)
  // is frequent even though the leftmost (c) after (a) has no z.
  SequenceDatabase db;
  db.Add(Seq("(a)(c)(c,z)"));
  db.Add(Seq("(a)(c,z)"));
  MineOptions options;
  options.min_support_count = 2;
  const PatternSet got =
      PrefixSpan(PrefixSpan::Projection::kPseudo).Mine(db, options);
  EXPECT_EQ(got.SupportOf(Seq("(a)(c,z)")), 2u);
}

#if DISC_OBS_ENABLED
TEST(PrefixSpan, WorkCountsFollowTheRecursion) {
  // One node per frequent pattern, whose projection holds one point per
  // sequence supporting it; physical projection copies every point below
  // level 1. The run tallies these and publishes them once.
  const SequenceDatabase db = testutil::RandomDatabase(73);
  MineOptions options;
  options.min_support_count = 3;
  for (const auto mode :
       {PrefixSpan::Projection::kPseudo, PrefixSpan::Projection::kPhysical}) {
    PrefixSpan miner(mode);
    const PatternSet got = miner.Mine(db, options);
    ASSERT_FALSE(got.empty());
    std::uint64_t points = 0;
    std::uint64_t deeper_points = 0;
    for (const auto& [p, sup] : got) {
      points += sup;
      if (p.Length() > 1) deeper_points += sup;
    }
    const obs::MineStats& stats = miner.last_stats();
    EXPECT_EQ(stats.Counter("prefixspan.nodes"), got.size()) << miner.name();
    EXPECT_EQ(stats.Counter("prefixspan.projection_points"), points);
    EXPECT_EQ(stats.Counter("prefixspan.projected_db_size.count"),
              got.size());
    EXPECT_EQ(stats.Counter("prefixspan.projected_db_size.sum"), points);
    EXPECT_EQ(stats.Counter("prefixspan.materialized_sequences"),
              mode == PrefixSpan::Projection::kPhysical ? deeper_points : 0)
        << miner.name();
  }
}

TEST(PrefixSpan, SupportIncrementsMatchTheExtensionOracle) {
  // The first scan counts each (customer, distinct item) once. Each node P
  // then counts every valid extension of P once per customer containing P:
  // the two sets ScanExtensions computes. The counting array publishes the
  // node share as counting_array.increments, and the share at counted
  // lengths >= 4 (|P| >= 3) is support.increments.k4plus.
  for (std::uint64_t seed = 73; seed <= 75; ++seed) {
    const SequenceDatabase db = testutil::RandomDatabase(seed);
    MineOptions options;
    options.min_support_count = 3;
    std::uint64_t first_scan = 0;
    for (const std::uint32_t sup : CountItemSupport(db)) first_scan += sup;
    for (const auto mode : {PrefixSpan::Projection::kPseudo,
                            PrefixSpan::Projection::kPhysical}) {
      PrefixSpan miner(mode);
      const PatternSet got = miner.Mine(db, options);
      ASSERT_FALSE(got.empty());
      std::uint64_t node_sum = 0;
      std::uint64_t node_sum_k4 = 0;
      for (const auto& [p, sup] : got) {
        for (Cid cid = 0; cid < db.size(); ++cid) {
          const ExtensionSets ext = ScanExtensions(db[cid], p);
          const std::uint64_t n = ext.i_items.size() + ext.s_items.size();
          node_sum += n;
          if (p.Length() >= 3) node_sum_k4 += n;
        }
      }
      const obs::MineStats& stats = miner.last_stats();
      EXPECT_EQ(stats.Counter("support.increments"), first_scan + node_sum)
          << miner.name() << " seed " << seed;
      EXPECT_EQ(stats.Counter("support.increments.k4plus"), node_sum_k4)
          << miner.name() << " seed " << seed;
      EXPECT_EQ(stats.Counter("counting_array.increments"), node_sum)
          << miner.name() << " seed " << seed;
    }
  }
}
#endif

TEST(PrefixSpan, NamesAreStable) {
  EXPECT_EQ(PrefixSpan(PrefixSpan::Projection::kPhysical).name(),
            "prefixspan");
  EXPECT_EQ(PrefixSpan(PrefixSpan::Projection::kPseudo).name(), "pseudo");
}

}  // namespace
}  // namespace disc
