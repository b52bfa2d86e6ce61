// Frequent k-sequence discovery (Figure 4) against brute-force support
// counting, including the bi-level variant and the instrumentation.
#include "disc/core/discovery.h"

#include <algorithm>
#include <map>

#include <gtest/gtest.h>

#include "disc/core/kms.h"
#include "disc/order/kmin_brute.h"
#include "disc/seq/extension.h"
#include "disc/seq/containment.h"
#include "test_util.h"

namespace disc {
namespace {

using testutil::BruteGroups;
using testutil::PassInput;
using testutil::Seq;

// All frequent k-sequences whose (k-1)-prefix is in `list`, by brute force.
std::map<Sequence, std::uint32_t, SequenceLess> BruteFrequentK(
    const SequenceDatabase& db, const std::vector<Sequence>& list,
    std::uint32_t k, std::uint32_t delta) {
  std::map<Sequence, std::uint32_t, SequenceLess> counts;
  for (const SequenceView s : db) {
    for (const Sequence& sub : AllDistinctKSubsequences(s, k)) {
      if (!std::binary_search(list.begin(), list.end(), sub.Prefix(k - 1),
                              SequenceLess())) {
        continue;
      }
      ++counts[sub];
    }
  }
  std::map<Sequence, std::uint32_t, SequenceLess> out;
  for (const auto& [p, c] : counts) {
    if (c >= delta) out.emplace(p, c);
  }
  return out;
}

void ExpectDiscoveryMatchesBrute(const SequenceDatabase& db,
                                 const std::vector<Sequence>& list,
                                 std::uint32_t k, std::uint32_t delta) {
  DiscoveryOptions opt;
  opt.k = k;
  opt.delta = delta;
  opt.bilevel = false;
  const PassInput in(db, list);
  const DiscoveryResult res =
      DiscoverFrequentK(in.members(), list, opt, nullptr, in.groups);
  const auto expected = BruteFrequentK(db, list, k, delta);
  ASSERT_EQ(res.frequent_k.size(), expected.size());
  std::size_t i = 0;
  for (const auto& [p, sup] : expected) {
    EXPECT_EQ(CompareSequences(res.frequent_k[i].first, p), 0)
        << "at " << i << ": " << res.frequent_k[i].first.ToString() << " vs "
        << p.ToString();
    EXPECT_EQ(res.frequent_k[i].second, sup) << p.ToString();
    ++i;
  }
}

TEST(Discovery, MatchesBruteForceOnRandomPartitions) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const SequenceDatabase db = testutil::RandomDatabase(seed);
    // Use all frequent 1-sequences as the sorted list for k=2.
    std::vector<Sequence> list;
    for (Item x = 1; x <= 8; ++x) {
      Sequence s;
      s.AppendNewItemset(x);
      if (CountSupport(db, s) >= 3) list.push_back(s);
    }
    ExpectDiscoveryMatchesBrute(db, list, 2, 3);
  }
}

TEST(Discovery, ChainedLevels) {
  // Feed the output of level k back as the list for level k+1, twice, and
  // compare against brute force each time.
  const SequenceDatabase db = testutil::RandomDatabase(99);
  const std::uint32_t delta = 3;
  std::vector<Sequence> list;
  for (Item x = 1; x <= 8; ++x) {
    Sequence s;
    s.AppendNewItemset(x);
    if (CountSupport(db, s) >= delta) list.push_back(s);
  }
  for (std::uint32_t k = 2; k <= 4; ++k) {
    ExpectDiscoveryMatchesBrute(db, list, k, delta);
    DiscoveryOptions opt;
    opt.k = k;
    opt.delta = delta;
    const PassInput in(db, list);
    const DiscoveryResult res =
        DiscoverFrequentK(in.members(), list, opt, nullptr, in.groups);
    list.clear();
    for (const auto& [p, sup] : res.frequent_k) {
      (void)sup;
      list.push_back(p);
    }
    if (list.empty()) break;
  }
}

TEST(Discovery, BilevelMatchesTwoPlainPasses) {
  const SequenceDatabase db = testutil::RandomDatabase(7);
  const std::uint32_t delta = 3;
  std::vector<Sequence> list;
  for (Item x = 1; x <= 8; ++x) {
    Sequence s;
    s.AppendNewItemset(x);
    if (CountSupport(db, s) >= delta) list.push_back(s);
  }
  DiscoveryOptions plain;
  plain.k = 2;
  plain.delta = delta;
  const PassInput in(db, list);
  const DiscoveryResult r2 =
      DiscoverFrequentK(in.members(), list, plain, nullptr, in.groups);
  std::vector<Sequence> list3;
  for (const auto& [p, sup] : r2.frequent_k) {
    (void)sup;
    list3.push_back(p);
  }
  DiscoveryOptions plain3 = plain;
  plain3.k = 3;
  const PassInput in3(db, list3);
  const DiscoveryResult r3 =
      DiscoverFrequentK(in3.members(), list3, plain3, nullptr, in3.groups);

  DiscoveryOptions bilevel = plain;
  bilevel.bilevel = true;
  CountingArray counts(db.max_item());
  const DiscoveryResult rb =
      DiscoverFrequentK(in.members(), list, bilevel, &counts, in.groups);
  EXPECT_EQ(rb.frequent_k, r2.frequent_k);
  EXPECT_EQ(rb.frequent_k1, r3.frequent_k);
}

TEST(Discovery, ResortVariantIsIdentical) {
  // The naive re-sort ablation must match the locative run exactly
  // (patterns, supports, bi-level output) across shapes.
  for (std::uint64_t seed = 20; seed < 28; ++seed) {
    const SequenceDatabase db = testutil::RandomDatabase(seed);
    std::vector<Sequence> list;
    for (Item x = 1; x <= 8; ++x) {
      Sequence s;
      s.AppendNewItemset(x);
      if (CountSupport(db, s) >= 3) list.push_back(s);
    }
    DiscoveryOptions locative;
    locative.k = 2;
    locative.delta = 3;
    locative.bilevel = true;
    DiscoveryOptions resort = locative;
    resort.locative = false;
    CountingArray counts(db.max_item());
    const PassInput in(db, list);
    const DiscoveryResult a =
        DiscoverFrequentK(in.members(), list, locative, &counts, in.groups);
    const DiscoveryResult b =
        DiscoverFrequentK(in.members(), list, resort, &counts, in.groups);
    EXPECT_EQ(a.frequent_k, b.frequent_k) << "seed " << seed;
    EXPECT_EQ(a.frequent_k1, b.frequent_k1) << "seed " << seed;
  }
}

// Property: a pass's next_groups record its frequent buckets' supporters.
// The groups tile the next pass's list, each group's entries extend one
// parent by one item, and a member holds a group — ascending, with the
// parent's leftmost ends — exactly when it contains the sequence whose
// bucket made the group: α₁, which is the parent with bi-level and the
// group's single entry without. A pass seeded with those groups finds what
// a pass seeded with the brute-force groups by parent finds, and hands on
// the same groups.
TEST(Discovery, NextGroupsAreBucketSupporters) {
  for (std::uint64_t seed = 30; seed < 38; ++seed) {
    for (const bool bilevel : {false, true}) {
      const SequenceDatabase db = testutil::RandomDatabase(seed);
      std::vector<Sequence> list;
      for (Item x = 1; x <= 8; ++x) {
        Sequence s;
        s.AppendNewItemset(x);
        if (CountSupport(db, s) >= 3) list.push_back(s);
      }
      const PassInput in(db, list);
      const PartitionMembers& members = in.members();
      DiscoveryOptions opt;
      opt.k = 2;
      opt.delta = 3;
      opt.bilevel = bilevel;
      CountingArray counts(db.max_item());
      const DiscoveryResult res =
          DiscoverFrequentK(members, list, opt, &counts, in.groups);
      const auto& found = bilevel ? res.frequent_k1 : res.frequent_k;
      std::vector<Sequence> next;
      for (const auto& [p, sup] : found) next.push_back(p);
      const SupporterGroups& g = res.next_groups;
      ASSERT_FALSE(g.begin.empty());
      EXPECT_EQ(g.begin.front(), 0u);
      EXPECT_EQ(g.begin.back(), next.size());
      std::vector<Sequence> parents, makers;
      for (std::size_t j = 0; j + 1 < g.begin.size(); ++j) {
        ASSERT_LT(g.begin[j], g.begin[j + 1]) << "empty group " << j;
        const Sequence& first = next[g.begin[j]];
        parents.push_back(first.Prefix(first.Length() - 1));
        for (std::uint32_t e = g.begin[j]; e < g.begin[j + 1]; ++e) {
          EXPECT_EQ(CompareSequences(next[e].Prefix(next[e].Length() - 1),
                                     parents.back()),
                    0)
              << next[e].ToString();
        }
        if (!bilevel) {
          EXPECT_EQ(g.begin[j + 1] - g.begin[j], 1u);
        }
        makers.push_back(bilevel ? parents.back() : first);
      }
      ASSERT_EQ(g.offsets.size(), members.size() + 1);
      for (std::uint32_t m = 0; m < members.size(); ++m) {
        std::vector<std::uint32_t> want;
        for (std::uint32_t j = 0; j < makers.size(); ++j) {
          if (Contains(db[m], makers[j])) want.push_back(j);
        }
        std::vector<std::uint32_t> got;
        for (const SupportedGroup& sg : g.Of(m)) {
          got.push_back(sg.group);
          const EmbeddingEnds ends = LeftmostEnds(db[m], parents[sg.group]);
          EXPECT_EQ(sg.full_end, ends.full_end) << "member " << m;
          EXPECT_EQ(sg.prefix_end, ends.prefix_end) << "member " << m;
        }
        EXPECT_EQ(got, want) << "seed " << seed << " member " << m;
      }
      if (next.empty()) continue;

      DiscoveryOptions opt2 = opt;
      opt2.k = bilevel ? 4 : 3;
      const DiscoveryResult grouped =
          DiscoverFrequentK(members, next, opt2, &counts, g);
      const DiscoveryResult plain = DiscoverFrequentK(
          members, next, opt2, &counts, BruteGroups(members, next));
      EXPECT_EQ(grouped.frequent_k, plain.frequent_k) << "seed " << seed;
      EXPECT_EQ(grouped.frequent_k1, plain.frequent_k1) << "seed " << seed;
      EXPECT_EQ(grouped.iterations, plain.iterations) << "seed " << seed;
      EXPECT_EQ(grouped.next_groups.begin, plain.next_groups.begin);
      EXPECT_EQ(grouped.next_groups.offsets, plain.next_groups.offsets);
      ASSERT_EQ(grouped.next_groups.supported.size(),
                plain.next_groups.supported.size());
      for (std::size_t i = 0; i < plain.next_groups.supported.size(); ++i) {
        const SupportedGroup& a = grouped.next_groups.supported[i];
        const SupportedGroup& b = plain.next_groups.supported[i];
        EXPECT_EQ(a.group, b.group);
        EXPECT_EQ(a.full_end, b.full_end);
        EXPECT_EQ(a.prefix_end, b.prefix_end);
      }
    }
  }
}

TEST(Discovery, EmptyListOrTooFewMembers) {
  const SequenceDatabase db = testutil::RandomDatabase(3);
  DiscoveryOptions opt;
  opt.k = 2;
  opt.delta = static_cast<std::uint32_t>(db.size()) + 1;
  std::vector<Sequence> list = {Seq("(a)")};
  const PassInput in(db, list);
  EXPECT_TRUE(DiscoverFrequentK(in.members(), list, opt, nullptr, in.groups)
                  .frequent_k.empty());
  opt.delta = 2;
  const PassInput none(db, {});
  EXPECT_TRUE(DiscoverFrequentK(none.members(), {}, opt, nullptr, none.groups)
                  .frequent_k.empty());
}

TEST(Discovery, IterationCountIsBounded) {
  // The point of DISC: far fewer iterations than candidate k-sequences.
  const SequenceDatabase db = testutil::RandomDatabase(11);
  std::vector<Sequence> list;
  for (Item x = 1; x <= 8; ++x) {
    Sequence s;
    s.AppendNewItemset(x);
    if (CountSupport(db, s) >= 3) list.push_back(s);
  }
  DiscoveryOptions opt;
  opt.k = 2;
  opt.delta = 3;
  const PassInput in(db, list);
  const DiscoveryResult res =
      DiscoverFrequentK(in.members(), list, opt, nullptr, in.groups);
  EXPECT_GT(res.iterations, 0u);
  // Each iteration either certifies one frequent k-sequence or skips a
  // whole range; it can never exceed #frequent + #members * #keys bound.
  EXPECT_LE(res.iterations,
            res.frequent_k.size() + db.size() * list.size() * 8);
}

}  // namespace
}  // namespace disc
