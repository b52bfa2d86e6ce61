// Property tests establishing that the comparative order has exactly the
// structure the DISC lemmas require: a strict total order on sequences that
// is prefix-compatible (F < F' implies every extension of F precedes every
// extension of F').
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "disc/common/rng.h"
#include "disc/core/rank_key.h"
#include "disc/order/compare.h"
#include "test_util.h"

namespace disc {
namespace {

int Sign(int v) { return (v > 0) - (v < 0); }

class OrderProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OrderProperty, TotalOrderAxioms) {
  Rng rng(GetParam());
  std::vector<Sequence> pool;
  for (int i = 0; i < 24; ++i) {
    pool.push_back(testutil::RandomSequence(&rng, 4, 3, 2));
  }
  for (const Sequence& a : pool) {
    EXPECT_EQ(CompareSequences(a, a), 0);  // reflexive equality
    for (const Sequence& b : pool) {
      const int ab = CompareSequences(a, b);
      const int ba = CompareSequences(b, a);
      // Antisymmetry of the three-way comparison.
      EXPECT_EQ(ab < 0, ba > 0);
      EXPECT_EQ(ab == 0, ba == 0);
      // Comparison equality coincides with structural equality.
      EXPECT_EQ(ab == 0, a == b);
      for (const Sequence& c : pool) {
        // Transitivity.
        if (ab <= 0 && CompareSequences(b, c) <= 0) {
          EXPECT_LE(CompareSequences(a, c), 0)
              << a.ToString() << " " << b.ToString() << " " << c.ToString();
        }
      }
    }
  }
}

TEST_P(OrderProperty, PrefixCompatibility) {
  // For random same-length F < F', every one-item extension of F precedes
  // every one-item extension of F'.
  Rng rng(GetParam() + 1000);
  for (int trial = 0; trial < 200; ++trial) {
    const Sequence f1 = testutil::RandomSequence(&rng, 4, 3, 2);
    Sequence f2 = testutil::RandomSequence(&rng, 4, 3, 2);
    if (f1.Length() != f2.Length()) continue;
    const int cmp = CompareSequences(f1, f2);
    if (cmp == 0) continue;
    const Sequence& lo = cmp < 0 ? f1 : f2;
    const Sequence& hi = cmp < 0 ? f2 : f1;
    for (Item z = 1; z <= 5; ++z) {
      for (Item w = 1; w <= 5; ++w) {
        std::vector<Sequence> lo_exts = {Extend(lo, z, ExtType::kSequence)};
        if (z > lo.LastItem()) {
          lo_exts.push_back(Extend(lo, z, ExtType::kItemset));
        }
        std::vector<Sequence> hi_exts = {Extend(hi, w, ExtType::kSequence)};
        if (w > hi.LastItem()) {
          hi_exts.push_back(Extend(hi, w, ExtType::kItemset));
        }
        for (const Sequence& le : lo_exts) {
          for (const Sequence& he : hi_exts) {
            EXPECT_LT(CompareSequences(le, he), 0)
                << le.ToString() << " should precede " << he.ToString()
                << " (prefixes " << lo.ToString() << " < " << hi.ToString()
                << ")";
          }
        }
      }
    }
  }
}

TEST_P(OrderProperty, ExtensionOrderMatchesSequenceOrder) {
  // CompareExtensions must be the comparative order restricted to
  // extensions of a common pattern.
  Rng rng(GetParam() + 2000);
  for (int trial = 0; trial < 100; ++trial) {
    const Sequence base = testutil::RandomSequence(&rng, 4, 3, 2);
    for (Item z = 1; z <= 5; ++z) {
      for (Item w = 1; w <= 5; ++w) {
        for (const ExtType tz : {ExtType::kItemset, ExtType::kSequence}) {
          for (const ExtType tw : {ExtType::kItemset, ExtType::kSequence}) {
            if (tz == ExtType::kItemset && z <= base.LastItem()) continue;
            if (tw == ExtType::kItemset && w <= base.LastItem()) continue;
            const int ext_cmp = CompareExtensions(z, tz, w, tw);
            const int seq_cmp =
                CompareSequences(Extend(base, z, tz), Extend(base, w, tw));
            EXPECT_EQ(ext_cmp < 0, seq_cmp < 0);
            EXPECT_EQ(ext_cmp == 0, seq_cmp == 0);
          }
        }
      }
    }
  }
}

// A k-sequence is encoded as its rank key (core/rank_key.h): the index of
// its (k-1)-prefix in an ascending list, plus its last item and extension
// type. The two tests below check that comparing encodings is comparing
// sequences.

TEST_P(OrderProperty, EncodedCompareAgreesWithCompareSequences) {
  // Rank keys must induce exactly the comparative order: over a random
  // ascending list of distinct (k-1)-sequences, comparing two keys gives
  // the sign CompareSequences gives their extended sequences, and KeyOf
  // inverts KeySequence.
  Rng rng(GetParam() + 3000);
  for (int trial = 0; trial < 30; ++trial) {
    const std::uint32_t len =
        1 + static_cast<std::uint32_t>(rng.NextBounded(3));
    std::vector<Sequence> list;
    for (int i = 0; i < 40; ++i) {
      // A narrow alphabet with long sequences keeps shared prefixes long.
      const Sequence s = testutil::RandomSequence(&rng, 4, 4, 3);
      if (s.Length() >= len) list.push_back(s.Prefix(len));
    }
    std::sort(list.begin(), list.end(), SequenceLess());
    list.erase(std::unique(list.begin(), list.end()), list.end());
    if (list.empty()) continue;
    std::vector<RankKey> keys;
    for (int i = 0; i < 40; ++i) {
      RankKey key{static_cast<std::uint32_t>(rng.NextBounded(list.size())),
                  static_cast<Item>(1 + rng.NextBounded(5)),
                  rng.NextBounded(2) == 0 ? ExtType::kItemset
                                          : ExtType::kSequence};
      // An itemset extension must exceed the prefix's last item.
      if (key.item <= list[key.prefix].LastItem()) {
        key.type = ExtType::kSequence;
      }
      keys.push_back(key);
    }
    for (const RankKey& a : keys) {
      const Sequence sa = KeySequence(list, a);
      EXPECT_EQ(testutil::KeyOf(list, sa), a) << sa.ToString();
      for (const RankKey& b : keys) {
        const Sequence sb = KeySequence(list, b);
        EXPECT_EQ(Sign(CompareRankKeys(a, b)), Sign(CompareSequences(sa, sb)))
            << sa.ToString() << " vs " << sb.ToString();
        EXPECT_EQ(CompareRankKeys(a, b) == 0, a == b);
      }
    }
  }
}

TEST_P(OrderProperty, EncodedCompareIsAStrictTotalOrder) {
  // Antisymmetry, equality-iff-structural-equality and transitivity of
  // CompareRankKeys itself (spot checks mirroring TotalOrderAxioms), over
  // fuzzed k-sequences encoded by KeyOf against the ascending list of their
  // distinct (k-1)-prefixes; and sorting the keys sorts the sequences, the
  // order the k-sorted database's run keeps under both reorder policies.
  Rng rng(GetParam() + 4000);
  for (int trial = 0; trial < 10; ++trial) {
    const std::uint32_t k =
        2 + static_cast<std::uint32_t>(rng.NextBounded(3));
    std::vector<Sequence> pool;
    for (int i = 0; i < 60 && pool.size() < 20; ++i) {
      const Sequence s = testutil::RandomSequence(&rng, 4, 3, 2);
      if (s.Length() >= k) pool.push_back(s.Prefix(k));
    }
    std::vector<Sequence> list;
    for (const Sequence& s : pool) list.push_back(s.Prefix(k - 1));
    std::sort(list.begin(), list.end(), SequenceLess());
    list.erase(std::unique(list.begin(), list.end()), list.end());
    std::vector<RankKey> keys;
    for (const Sequence& s : pool) keys.push_back(testutil::KeyOf(list, s));
    for (std::size_t i = 0; i < pool.size(); ++i) {
      const RankKey& a = keys[i];
      EXPECT_EQ(CompareRankKeys(a, a), 0);
      for (std::size_t j = 0; j < pool.size(); ++j) {
        const RankKey& b = keys[j];
        const int ab = CompareRankKeys(a, b);
        const int ba = CompareRankKeys(b, a);
        EXPECT_EQ(ab < 0, ba > 0);
        EXPECT_EQ(ab == 0, ba == 0);
        EXPECT_EQ(ab == 0, pool[i] == pool[j])
            << pool[i].ToString() << " vs " << pool[j].ToString();
        for (const RankKey& c : keys) {
          if (ab <= 0 && CompareRankKeys(b, c) <= 0) {
            EXPECT_LE(CompareRankKeys(a, c), 0);
          }
        }
      }
    }
    std::vector<std::size_t> order(pool.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(),
              [&keys](std::size_t x, std::size_t y) {
                return CompareRankKeys(keys[x], keys[y]) < 0;
              });
    for (std::size_t i = 1; i < order.size(); ++i) {
      EXPECT_LE(CompareSequences(pool[order[i - 1]], pool[order[i]]), 0)
          << pool[order[i - 1]].ToString() << " after sorting before "
          << pool[order[i]].ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OrderProperty,
                         ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace disc
