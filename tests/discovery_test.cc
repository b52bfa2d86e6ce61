// Frequent k-sequence discovery (Figure 4) against brute-force support
// counting, including the bi-level variant and the instrumentation.
#include "disc/core/discovery.h"

#include <algorithm>
#include <map>

#include <gtest/gtest.h>

#include "disc/order/kmin_brute.h"
#include "disc/seq/containment.h"
#include "test_util.h"

namespace disc {
namespace {

using testutil::Seq;

PartitionMembers Members(const SequenceDatabase& db) {
  PartitionMembers out;
  for (Cid cid = 0; cid < db.size(); ++cid) {
    out.push_back({db[cid], nullptr, cid});
  }
  return out;
}

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
  const DiscoveryResult res =
      DiscoverFrequentK(Members(db), list, opt, nullptr);
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
    const DiscoveryResult res =
        DiscoverFrequentK(Members(db), list, opt, nullptr);
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
  const DiscoveryResult r2 =
      DiscoverFrequentK(Members(db), list, plain, nullptr);
  std::vector<Sequence> list3;
  for (const auto& [p, sup] : r2.frequent_k) {
    (void)sup;
    list3.push_back(p);
  }
  DiscoveryOptions plain3 = plain;
  plain3.k = 3;
  const DiscoveryResult r3 =
      DiscoverFrequentK(Members(db), list3, plain3, nullptr);

  DiscoveryOptions bilevel = plain;
  bilevel.bilevel = true;
  CountingArray counts(db.max_item());
  const DiscoveryResult rb =
      DiscoverFrequentK(Members(db), list, bilevel, &counts);
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
    const DiscoveryResult a =
        DiscoverFrequentK(Members(db), list, locative, &counts);
    const DiscoveryResult b =
        DiscoverFrequentK(Members(db), list, resort, &counts);
    EXPECT_EQ(a.frequent_k, b.frequent_k) << "seed " << seed;
    EXPECT_EQ(a.frequent_k1, b.frequent_k1) << "seed " << seed;
  }
}

TEST(Discovery, EmptyListOrTooFewMembers) {
  const SequenceDatabase db = testutil::RandomDatabase(3);
  DiscoveryOptions opt;
  opt.k = 2;
  opt.delta = static_cast<std::uint32_t>(db.size()) + 1;
  std::vector<Sequence> list = {Seq("(a)")};
  EXPECT_TRUE(
      DiscoverFrequentK(Members(db), list, opt, nullptr).frequent_k.empty());
  opt.delta = 2;
  EXPECT_TRUE(
      DiscoverFrequentK(Members(db), {}, opt, nullptr).frequent_k.empty());
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
  const DiscoveryResult res =
      DiscoverFrequentK(Members(db), list, opt, nullptr);
  EXPECT_GT(res.iterations, 0u);
  // Each iteration either certifies one frequent k-sequence or skips a
  // whole range; it can never exceed #frequent + #members * #keys bound.
  EXPECT_LE(res.iterations,
            res.frequent_k.size() + db.size() * list.size() * 8);
}

}  // namespace
}  // namespace disc
