// Apriori-KMS / Apriori-CKMS against the brute-force k-minimum oracle — the
// test that guards the corrected extension rule (DESIGN.md deviation 2).
#include "disc/core/kms.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "disc/common/rng.h"
#include "disc/order/kmin_brute.h"
#include "disc/seq/containment.h"
#include "test_util.h"

namespace disc {
namespace {

using testutil::KeyOf;
using testutil::Seq;

// Builds a plausible frequent-(k-1) list from a pool of sequences: all
// distinct (k-1)-subsequences that occur in at least `min_occurrence` pool
// members.
std::vector<Sequence> FrequentList(const std::vector<Sequence>& pool,
                                   std::uint32_t k_minus_1,
                                   std::uint32_t min_occurrence) {
  std::vector<Sequence> candidates;
  for (const Sequence& s : pool) {
    const auto all = AllDistinctKSubsequences(s, k_minus_1);
    candidates.insert(candidates.end(), all.begin(), all.end());
  }
  std::sort(candidates.begin(), candidates.end(), SequenceLess());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());
  std::vector<Sequence> out;
  for (const Sequence& c : candidates) {
    std::uint32_t occ = 0;
    for (const Sequence& s : pool) {
      if (Contains(s, c)) ++occ;
    }
    if (occ >= min_occurrence) out.push_back(c);
  }
  return out;
}

TEST(AprioriKms, NonLeftmostItemsetExtension) {
  // S = (a)(c)(c,z), frequent 2-list = {(a)(c)}: the unconditional
  // 3-minimum is <(a)(c)(c)>, but once the bound passes it, the next key
  // is <(a)(c,z)> — an itemset extension realized only through the second
  // (c) transaction, which the paper's literal Figure 5/6 rule ("minimum
  // item right of the leftmost matching point") cannot produce. The
  // corrected extension scan finds it (DESIGN.md deviation 2).
  const std::vector<Sequence> list = {Seq("(a)(c)")};
  const Sequence s = Seq("(a)(c)(c,z)");
  const KmsResult base = AprioriKms(s, list);
  ASSERT_TRUE(base.found);
  EXPECT_EQ(KeySequence(list, base.key).ToString(), "(a)(c)(c)");
  const KmsResult next = AprioriCkms(s, list, {base.key, /*strict=*/true});
  ASSERT_TRUE(next.found);
  EXPECT_EQ(KeySequence(list, next.key).ToString(), "(a)(c,z)");
  const KmsResult last = AprioriCkms(s, list, {next.key, /*strict=*/true});
  ASSERT_TRUE(last.found);
  EXPECT_EQ(KeySequence(list, last.key).ToString(), "(a)(c)(z)");
  EXPECT_FALSE(AprioriCkms(s, list, {last.key, /*strict=*/true}).found);
}

TEST(AprioriKms, SkipsUncontainedPrefixes) {
  const std::vector<Sequence> list = {Seq("(a)(a,e)"), Seq("(a)(a,g)")};
  const KmsResult r = AprioriKms(Seq("(a)(a,g,h)(c)"), list);
  ASSERT_TRUE(r.found);
  EXPECT_EQ(KeySequence(list, r.key).ToString(), "(a)(a,g)(c)");
  EXPECT_EQ(r.key.prefix, 1u);
}

TEST(AprioriKms, NoResultWhenNothingExtends) {
  // (a) is contained but has no extension; (b) is absent.
  const std::vector<Sequence> list = {Seq("(a)"), Seq("(b)")};
  EXPECT_FALSE(AprioriKms(Seq("(a)"), list).found);
}

class KmsProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(KmsProperty, KmsMatchesBruteForce) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 60; ++trial) {
    std::vector<Sequence> pool;
    for (int i = 0; i < 8; ++i) {
      pool.push_back(testutil::RandomSequence(&rng, 5, 4, 3));
    }
    for (std::uint32_t k = 2; k <= 4; ++k) {
      const std::vector<Sequence> list = FrequentList(pool, k - 1, 3);
      if (list.empty()) continue;
      for (const Sequence& s : pool) {
        const KmsResult got = AprioriKms(s, list);
        const auto expected = BruteKMinWithFrequentPrefix(s, k, list);
        ASSERT_EQ(got.found, expected.has_value())
            << s.ToString() << " k=" << k;
        if (got.found) {
          const Sequence kmin = KeySequence(list, got.key);
          EXPECT_EQ(CompareSequences(kmin, *expected), 0)
              << "got " << kmin.ToString() << " expected "
              << expected->ToString() << " for " << s.ToString();
          EXPECT_EQ(KeyOf(list, kmin), got.key);
        }
      }
    }
  }
}

TEST_P(KmsProperty, CkmsMatchesBruteForce) {
  Rng rng(GetParam() + 500);
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<Sequence> pool;
    for (int i = 0; i < 8; ++i) {
      pool.push_back(testutil::RandomSequence(&rng, 5, 4, 3));
    }
    for (std::uint32_t k = 2; k <= 3; ++k) {
      const std::vector<Sequence> list = FrequentList(pool, k - 1, 3);
      if (list.empty()) continue;
      for (const Sequence& s : pool) {
        // Bounds: every qualifying k-subsequence of a pool member.
        for (const Sequence& other : pool) {
          const auto bounds = AllDistinctKSubsequences(other, k);
          for (const Sequence& bound : bounds) {
            // CKMS requires the bound's prefix to be in the list.
            if (!std::binary_search(list.begin(), list.end(),
                                    bound.Prefix(k - 1), SequenceLess())) {
              continue;
            }
            for (const bool strict : {false, true}) {
              const KmsResult got =
                  AprioriCkms(s, list, {KeyOf(list, bound), strict});
              const auto expected =
                  BruteConditionalKMin(s, k, list, bound, strict);
              ASSERT_EQ(got.found, expected.has_value())
                  << s.ToString() << " bound " << bound.ToString()
                  << " strict " << strict;
              if (got.found) {
                const Sequence kmin = KeySequence(list, got.key);
                EXPECT_EQ(CompareSequences(kmin, *expected), 0)
                    << "got " << kmin.ToString() << " expected "
                    << expected->ToString();
              }
            }
          }
        }
      }
    }
  }
}

TEST_P(KmsProperty, AprioriPointerSpeedupIsTransparent) {
  // CKMS starts its scan at the bound's prefix index — the advanced
  // entry's own apriori pointer — instead of walking the list from entry
  // 0; a chain of advances must still visit exactly the brute-force
  // conditional minima over the whole list, with and without the scan
  // state carried across calls.
  Rng rng(GetParam() + 900);
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<Sequence> pool;
    for (int i = 0; i < 8; ++i) {
      pool.push_back(testutil::RandomSequence(&rng, 5, 4, 3));
    }
    const std::uint32_t k = 3;
    const std::vector<Sequence> list = FrequentList(pool, k - 1, 3);
    if (list.empty()) continue;
    for (const Sequence& s : pool) {
      KmsScanState state;
      KmsResult cached = AprioriKms(s, list, nullptr, &state);
      KmsResult plain = AprioriKms(s, list);
      while (cached.found) {
        ASSERT_TRUE(plain.found);
        ASSERT_EQ(cached.key, plain.key);
        const Sequence key = KeySequence(list, cached.key);
        const auto expected =
            BruteConditionalKMin(s, k, list, key, /*strict=*/true);
        cached = AprioriCkms(s, list, {cached.key, true}, nullptr, &state);
        plain = AprioriCkms(s, list, {plain.key, true});
        ASSERT_EQ(cached.found, expected.has_value()) << s.ToString();
        if (cached.found) {
          EXPECT_EQ(CompareSequences(KeySequence(list, cached.key), *expected),
                    0);
        }
      }
      EXPECT_FALSE(plain.found);
    }
  }
}

// Cuts `list` (ascending, all (k-1)-sequences) into supporter groups:
// each run of entries sharing their (k-2)-prefix is split at random points
// into contiguous groups with that parent. Returns the group bounds and
// each group's parent.
std::vector<std::uint32_t> RandomGroups(const std::vector<Sequence>& list,
                                        Rng* rng,
                                        std::vector<Sequence>* parents) {
  std::vector<std::uint32_t> begin;
  for (std::uint32_t i = 0; i < list.size(); ++i) {
    const Sequence parent = list[i].Prefix(list[i].Length() - 1);
    if (i == 0 || CompareSequences(parent, parents->back()) != 0 ||
        rng->NextBounded(3) == 0) {
      begin.push_back(i);
      parents->push_back(parent);
    }
  }
  begin.push_back(static_cast<std::uint32_t>(list.size()));
  return begin;
}

// The members' supporter groups by brute force: member m supports every
// group whose parent it contains, with the parent's leftmost ends.
SupporterGroups BruteGroups(const std::vector<Sequence>& pool,
                            std::vector<std::uint32_t> begin,
                            const std::vector<Sequence>& parents) {
  SupporterGroups g;
  g.begin = std::move(begin);
  g.offsets.push_back(0);
  for (const Sequence& s : pool) {
    for (std::uint32_t j = 0; j < parents.size(); ++j) {
      const EmbeddingEnds ends = LeftmostEnds(s, parents[j]);
      if (!ends.contained) continue;
      g.supported.push_back(SupportedGroup{j, ends.full_end, ends.prefix_end});
    }
    g.offsets.push_back(static_cast<std::uint32_t>(g.supported.size()));
  }
  return g;
}

TEST_P(KmsProperty, GroupedWalkMatchesBruteForce) {
  // The grouped walk — entries tested by one probe from their group's
  // parent ends, answers read off the cursors — against the brute-force
  // k-minimum, then along a chain of monotone random bounds (strict and
  // non-strict) against the brute-force conditional k-minimum. k = 2 runs
  // under the empty parent; longer k reach multi-item last itemsets (the
  // i-extension probe).
  Rng rng(GetParam() + 1300);
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<Sequence> pool;
    for (int i = 0; i < 8; ++i) {
      pool.push_back(testutil::RandomSequence(&rng, 5, 4, 3));
    }
    for (std::uint32_t k = 2; k <= 4; ++k) {
      const std::vector<Sequence> list = FrequentList(pool, k - 1, 2);
      if (list.empty()) continue;
      std::vector<Sequence> parents;
      std::vector<std::uint32_t> begin = RandomGroups(list, &rng, &parents);
      const SupporterGroups groups = BruteGroups(pool, begin, parents);
      // Candidate bounds: every k-subsequence of the pool whose prefix is
      // in the list, ascending.
      std::vector<Sequence> bounds;
      for (const Sequence& other : pool) {
        for (const Sequence& b : AllDistinctKSubsequences(other, k)) {
          if (std::binary_search(list.begin(), list.end(), b.Prefix(k - 1),
                                 SequenceLess())) {
            bounds.push_back(b);
          }
        }
      }
      std::sort(bounds.begin(), bounds.end(), SequenceLess());
      for (std::uint32_t m = 0; m < pool.size(); ++m) {
        const Sequence& s = pool[m];
        const SequenceIndex index(s);
        const KmsWalk walk{s, &index, &list, &groups, m};
        KmsScanState state;
        KmsTally tally;
        KmsResult got = AprioriKms(walk, &state, &tally);
        const auto expected = BruteKMinWithFrequentPrefix(s, k, list);
        ASSERT_EQ(got.found, expected.has_value()) << s.ToString();
        if (got.found) {
          EXPECT_EQ(CompareSequences(KeySequence(list, got.key), *expected),
                    0)
              << s.ToString();
        }
        while (got.found) {
          // The next bound: the key itself (strict or not) or a random
          // candidate above it — monotone, as in the DISC loop.
          const Sequence key = KeySequence(list, got.key);
          const auto above = std::upper_bound(bounds.begin(), bounds.end(),
                                              key, SequenceLess());
          const std::size_t later =
              static_cast<std::size_t>(bounds.end() - above);
          const bool at_key = later == 0 || rng.NextBounded(2) == 0;
          const Sequence bound =
              at_key ? key : *(above + rng.NextBounded(later));
          // A non-strict bound at the key returns the key again; only a
          // strict one moves the chain along.
          const bool strict = at_key || rng.NextBounded(2) == 0;
          got = AprioriCkms(walk, {KeyOf(list, bound), strict}, &state,
                            &tally);
          const auto want = BruteConditionalKMin(s, k, list, bound, strict);
          ASSERT_EQ(got.found, want.has_value())
              << s.ToString() << " bound " << bound.ToString() << " strict "
              << strict;
          if (got.found) {
            EXPECT_EQ(CompareSequences(KeySequence(list, got.key), *want), 0)
                << "got " << KeySequence(list, got.key).ToString()
                << " expected " << want->ToString() << " bound "
                << bound.ToString();
          }
        }
        EXPECT_EQ(tally.embeds, 0u);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KmsProperty, ::testing::Values(11, 22, 33));

}  // namespace
}  // namespace disc
