// Apriori-KMS / Apriori-CKMS against the brute-force k-minimum oracle — the
// test that guards the corrected extension rule (DESIGN.md deviation 2).
#include "disc/core/kms.h"

#include <algorithm>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "disc/common/rng.h"
#include "disc/order/kmin_brute.h"
#include "disc/seq/containment.h"
#include "test_util.h"

namespace disc {
namespace {

using testutil::BruteGroups;
using testutil::IndexedMembers;
using testutil::KeyOf;
using testutil::Seq;

// A pass over `list` whose members are the sequences `seqs`, walking the
// list's groups by parent.
struct Pass {
  Pass(std::vector<Sequence> seqs, const std::vector<Sequence>& sorted_list)
      : pool(std::move(seqs)), list(sorted_list), in(pool, list) {}

  KmsWalk Walk(std::uint32_t m) const {
    const PartitionMember& pm = in.members()[m];
    return KmsWalk{pm.seq, pm.index, &list, &in.groups, m};
  }

  // Member m's Apriori-KMS, and its Apriori-CKMS under `bound`, with the
  // cursors carried in `state`, or in a fresh one when it is null.
  KmsResult Kms(std::uint32_t m, KmsScanState* state = nullptr) const {
    KmsScanState fresh;
    KmsTally tally;
    return AprioriKms(Walk(m), state != nullptr ? state : &fresh, &tally);
  }
  KmsResult Ckms(std::uint32_t m, const CkmsBound& bound,
                 KmsScanState* state = nullptr) const {
    KmsScanState fresh;
    KmsTally tally;
    return AprioriCkms(Walk(m), bound, state != nullptr ? state : &fresh,
                       &tally);
  }

  const std::vector<Sequence> pool;
  const std::vector<Sequence>& list;
  const testutil::PassInput in;
};

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
  const Pass pass({Seq("(a)(c)(c,z)")}, list);
  const KmsResult base = pass.Kms(0);
  ASSERT_TRUE(base.found);
  EXPECT_EQ(KeySequence(list, base.key).ToString(), "(a)(c)(c)");
  const KmsResult next = pass.Ckms(0, {base.key, /*strict=*/true});
  ASSERT_TRUE(next.found);
  EXPECT_EQ(KeySequence(list, next.key).ToString(), "(a)(c,z)");
  const KmsResult last = pass.Ckms(0, {next.key, /*strict=*/true});
  ASSERT_TRUE(last.found);
  EXPECT_EQ(KeySequence(list, last.key).ToString(), "(a)(c)(z)");
  EXPECT_FALSE(pass.Ckms(0, {last.key, /*strict=*/true}).found);
}

TEST(AprioriKms, SkipsUncontainedPrefixes) {
  const std::vector<Sequence> list = {Seq("(a)(a,e)"), Seq("(a)(a,g)")};
  const KmsResult r = Pass({Seq("(a)(a,g,h)(c)")}, list).Kms(0);
  ASSERT_TRUE(r.found);
  EXPECT_EQ(KeySequence(list, r.key).ToString(), "(a)(a,g)(c)");
  EXPECT_EQ(r.key.prefix, 1u);
}

TEST(AprioriKms, NoResultWhenNothingExtends) {
  // (a) is contained but has no extension; (b) is absent.
  const std::vector<Sequence> list = {Seq("(a)"), Seq("(b)")};
  EXPECT_FALSE(Pass({Seq("(a)")}, list).Kms(0).found);
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
      const Pass pass(pool, list);
      for (std::uint32_t m = 0; m < pool.size(); ++m) {
        const Sequence& s = pool[m];
        const KmsResult got = pass.Kms(m);
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
      const Pass pass(pool, list);
      for (std::uint32_t m = 0; m < pool.size(); ++m) {
        const Sequence& s = pool[m];
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
                  pass.Ckms(m, {KeyOf(list, bound), strict});
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
    const Pass pass(pool, list);
    for (std::uint32_t m = 0; m < pool.size(); ++m) {
      const Sequence& s = pool[m];
      KmsScanState state;
      KmsResult cached = pass.Kms(m, &state);
      KmsResult plain = pass.Kms(m);
      while (cached.found) {
        ASSERT_TRUE(plain.found);
        ASSERT_EQ(cached.key, plain.key);
        const Sequence key = KeySequence(list, cached.key);
        const auto expected =
            BruteConditionalKMin(s, k, list, key, /*strict=*/true);
        cached = pass.Ckms(m, {cached.key, true}, &state);
        plain = pass.Ckms(m, {plain.key, true});
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
      const IndexedMembers indexed(pool);
      const SupporterGroups groups = BruteGroups(indexed.members, list, &rng);
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
        const KmsWalk walk{s, indexed.members[m].index, &list, &groups, m};
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
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KmsProperty, ::testing::Values(11, 22, 33));

}  // namespace
}  // namespace disc
