// The k-sorted database: its locative run against a brute-force reference
// (every key recomputed by enumeration, the run re-derived by sorting), the
// paper's Table 9/10 walkthrough, and both reorder policies.
#include "disc/core/ksorted.h"

#include <algorithm>
#include <map>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "disc/common/rng.h"
#include "disc/order/kmin_brute.h"
#include "test_util.h"

namespace disc {
namespace {

using testutil::KeyOf;
using testutil::PassInput;
using testutil::Seq;

// A k = 2 database over the one-entry list <(s)>: member i is <(s)(x)> for
// the i-th item x, so its key is entry 0 extended by (x, S).
struct OneItemKeys {
  explicit OneItemKeys(const std::vector<Item>& items) {
    for (const Item x : items) {
      Sequence s = list[0];
      s.AppendNewItemset(x);
      db.Add(s);
    }
  }
  RankKey Key(Item x) const { return RankKey{0, x, ExtType::kSequence}; }

  const std::vector<Sequence> list = {Seq("(s)")};
  SequenceDatabase db;
};

TEST(KSorted, BasicInsertAndMin) {
  const OneItemKeys keys({2, 1, 1});
  const PassInput in(keys.db, keys.list);
  const KSortedDatabase sd(in.members(), &keys.list, 2, /*locative=*/true,
                           &in.groups);
  EXPECT_EQ(sd.size(), 3u);
  EXPECT_EQ(sd.MinKey(), keys.Key(1));
  EXPECT_EQ(sd.SelectKey(2), keys.Key(1));
  EXPECT_EQ(sd.SelectKey(3), keys.Key(2));
}

TEST(KSorted, SelectKeyCountsMultiplicity) {
  // Over the list {(a)}: keys (a)(a), (a)(a), (a,b), (a)(b).
  SequenceDatabase db;
  db.Add(Seq("(a)(a)"));
  db.Add(Seq("(a)(b)"));
  db.Add(Seq("(a,b)"));
  db.Add(Seq("(a)(a)"));
  const std::vector<Sequence> list = {Seq("(a)")};
  const PassInput in(db, list);
  const KSortedDatabase sd(in.members(), &list, 2, /*locative=*/true,
                           &in.groups);
  ASSERT_EQ(sd.size(), 4u);
  EXPECT_EQ(sd.SelectKey(1), KeyOf(list, Seq("(a)(a)")));
  EXPECT_EQ(sd.SelectKey(2), KeyOf(list, Seq("(a)(a)")));
  // Same item: the itemset extension precedes the sequence extension.
  EXPECT_EQ(sd.SelectKey(3), KeyOf(list, Seq("(a,b)")));
  EXPECT_EQ(sd.SelectKey(4), KeyOf(list, Seq("(a)(b)")));
}

TEST(KSorted, PopMinBucket) {
  // The prefix index decides before the extension.
  SequenceDatabase db;
  db.Add(Seq("(b)(a)"));  // (b)(a): prefix 1
  db.Add(Seq("(a)(z)"));  // (a)(z): prefix 0
  db.Add(Seq("(a)(z)"));
  const std::vector<Sequence> list = {Seq("(a)"), Seq("(b)")};
  const PassInput in(db, list);
  KSortedDatabase sd(in.members(), &list, 2, /*locative=*/true,
                     &in.groups);
  std::vector<std::uint32_t> handles;
  sd.PopMinBucket(&handles);
  ASSERT_EQ(handles.size(), 2u);
  EXPECT_EQ(std::set<Cid>({sd.entry(handles[0]).cid,
                           sd.entry(handles[1]).cid}),
            std::set<Cid>({1, 2}));
  EXPECT_EQ(sd.size(), 1u);
  EXPECT_EQ(sd.MinKey(), KeyOf(list, Seq("(b)(a)")));
}

TEST(KSorted, PopAllLess) {
  const OneItemKeys keys({4, 1, 3, 2});
  const PassInput in(keys.db, keys.list);
  KSortedDatabase sd(in.members(), &keys.list, 2, /*locative=*/true,
                     &in.groups);
  std::vector<std::uint32_t> handles;
  sd.PopAllLess(keys.Key(3), &handles);
  // Ascending key order: the members holding 1, then 2.
  ASSERT_EQ(handles.size(), 2u);
  EXPECT_EQ(sd.entry(handles[0]).cid, 1u);
  EXPECT_EQ(sd.entry(handles[1]).cid, 3u);
  EXPECT_EQ(sd.size(), 2u);
  EXPECT_EQ(sd.MinKey(), keys.Key(3));
}

TEST(KSorted, BuildsTable9) {
  const SequenceDatabase part = testutil::Table8Partition();
  const std::vector<Sequence> list = {Seq("(a)(a,e)"), Seq("(a)(a,g)"),
                                      Seq("(a)(a,h)")};
  const PassInput in(part, list);
  KSortedDatabase sd(in.members(), &list, 4, /*locative=*/true,
                     &in.groups);
  ASSERT_EQ(sd.size(), 6u);
  // Sorted order of Table 9.
  EXPECT_EQ(sd.KeySequence(sd.MinKey()).ToString(), "(a)(a,e)(c)");
  EXPECT_EQ(sd.KeySequence(sd.SelectKey(1)).ToString(), "(a)(a,e)(c)");
  EXPECT_EQ(sd.KeySequence(sd.SelectKey(2)).ToString(), "(a)(a,e,g)");
  EXPECT_EQ(sd.KeySequence(sd.SelectKey(5)).ToString(), "(a)(a,e,g)");
  EXPECT_EQ(sd.KeySequence(sd.SelectKey(6)).ToString(), "(a)(a,g)(c)");
}

TEST(KSorted, DropsMembersWithoutQualifyingKMin) {
  SequenceDatabase db;
  db.Add(Seq("(a)(b)(c)"));
  db.Add(Seq("(z)"));          // cannot host any 2-sequence
  db.Add(Seq("(b)"));          // too short for k=2
  const std::vector<Sequence> list = {Seq("(a)"), Seq("(b)")};
  const PassInput in(db, list);
  KSortedDatabase sd(in.members(), &list, 2, /*locative=*/true,
                     &in.groups);
  EXPECT_EQ(sd.size(), 1u);
  EXPECT_EQ(sd.KeySequence(sd.MinKey()).ToString(), "(a)(b)");
}

TEST(KSorted, AdvanceAndReinsertMovesKeysForward) {
  const SequenceDatabase part = testutil::Table8Partition();
  const std::vector<Sequence> list = {Seq("(a)(a,e)"), Seq("(a)(a,g)"),
                                      Seq("(a)(a,h)")};
  const PassInput in(part, list);
  for (const bool locative : {true, false}) {
    KSortedDatabase sd(in.members(), &list, 4, locative, &in.groups);
    // Pop the minimum (CID 3's (a)(a,e)(c)) and advance it non-strictly to
    // the key at position 3 — Example 3.4.
    const RankKey bound = sd.SelectKey(3);
    EXPECT_EQ(sd.KeySequence(bound).ToString(), "(a)(a,e,g)");
    std::vector<std::uint32_t> handles;
    sd.PopAllLess(bound, &handles);
    ASSERT_EQ(handles.size(), 1u);
    sd.Advance(handles, {bound, /*strict=*/false});
    EXPECT_EQ(sd.size(), 6u);
    // Now everything below the δ=3 position is the (a)(a,e,g) run
    // (Table 10).
    EXPECT_EQ(sd.MinKey(), bound);
    EXPECT_EQ(sd.SelectKey(5), bound);
    EXPECT_EQ(sd.KeySequence(sd.SelectKey(6)).ToString(), "(a)(a,g)(c)");
  }
}

TEST(KSorted, StrictAdvanceDropsExhaustedMembers) {
  SequenceDatabase db;
  db.Add(Seq("(a)(b)"));  // only one 2-subsequence
  const std::vector<Sequence> list = {Seq("(a)")};
  const PassInput in(db, list);
  for (const bool locative : {true, false}) {
    KSortedDatabase sd(in.members(), &list, 2, locative, &in.groups);
    ASSERT_EQ(sd.size(), 1u);
    std::vector<std::uint32_t> handles;
    sd.PopMinBucket(&handles);
    ASSERT_EQ(handles.size(), 1u);
    sd.Advance(handles, {KeyOf(list, Seq("(a)(b)")), /*strict=*/true});
    EXPECT_EQ(sd.size(), 0u);
  }
}

TEST(KSorted, KeysMatchBruteForceMinima) {
  const SequenceDatabase db = testutil::RandomDatabase(321);
  // Frequent 1-list: all items 1..8.
  std::vector<Sequence> list;
  for (Item x = 1; x <= 8; ++x) {
    Sequence s;
    s.AppendNewItemset(x);
    list.push_back(s);
  }
  const PassInput in(db, list);
  KSortedDatabase sd(in.members(), &list, 2, /*locative=*/true,
                     &in.groups);
  // Drain the run bucket by bucket: every popped entry's brute-force
  // 2-minimum must equal the bucket key it was filed under.
  std::vector<std::uint32_t> handles;
  while (sd.size() > 0) {
    const Sequence key = sd.KeySequence(sd.MinKey());
    handles.clear();
    sd.PopMinBucket(&handles);
    ASSERT_FALSE(handles.empty());
    for (const std::uint32_t h : handles) {
      const auto expected =
          BruteKMinWithFrequentPrefix(sd.entry(h).seq, 2, list);
      ASSERT_TRUE(expected.has_value());
      EXPECT_EQ(CompareSequences(key, *expected), 0)
          << sd.entry(h).seq.ToString();
    }
  }
}

// The qualifying (k-1)-sequences of `db` with support >= min_support,
// ascending: a sorted list like a discovery pass gets.
std::vector<Sequence> FrequentList(const SequenceDatabase& db,
                                   std::uint32_t length,
                                   std::uint32_t min_support) {
  std::map<Sequence, std::uint32_t, SequenceLess> support;
  for (const SequenceView s : db) {
    for (const Sequence& sub : AllDistinctKSubsequences(s, length)) {
      ++support[sub];
    }
  }
  std::vector<Sequence> list;
  for (const auto& [p, count] : support) {
    if (count >= min_support) list.push_back(p);
  }
  return list;
}

// Drives a k-sorted database through random pops and batch advances until
// it drains. A batch is the minimum bucket advanced strictly past its key,
// or everything below a bound advanced to at least it. With `disc_bounds`
// the bound is a live key, as in the DISC loop (α₁, or α_δ at a random
// rank); otherwise it is any key some member could hold, live or not, so a
// pop may take nothing or the whole run. A reference keeps every entry's
// key as brute-force enumeration computes it. Every pop must take exactly
// the reference's entries below the bound, in ascending key order; after
// every advance the live run must be ascending and agree with the sorted
// reference at every rank.
void DriveAgainstReference(bool locative, bool disc_bounds) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    testutil::RandomDbSpec spec;
    spec.num_seqs = 16;
    spec.alphabet = 6;
    spec.max_txns = 4;
    const SequenceDatabase db = testutil::RandomDatabase(seed, spec);
    for (const std::uint32_t k : {2u, 3u}) {
      const std::vector<Sequence> list = FrequentList(db, k - 1, 2);
      ASSERT_FALSE(list.empty());
      const std::string where = "seed " + std::to_string(seed) + " k " +
                                std::to_string(k) + " locative " +
                                std::to_string(locative);
      // Every key over the list that some member's k-subsequence has.
      std::vector<RankKey> any_keys;
      const std::set<Sequence, SequenceLess> prefixes(list.begin(),
                                                      list.end());
      for (const SequenceView s : db) {
        for (const Sequence& sub : AllDistinctKSubsequences(s, k)) {
          if (prefixes.count(sub.Prefix(k - 1)) > 0) {
            any_keys.push_back(KeyOf(list, sub));
          }
        }
      }
      Rng rng(seed * 31 + k);
      const PassInput in(db, list);
      KSortedDatabase sd(in.members(), &list, k, locative, &in.groups);
      // handle -> current key, by enumeration.
      std::map<std::uint32_t, RankKey> reference;
      std::size_t qualifying = 0;
      for (const SequenceView s : db) {
        if (BruteKMinWithFrequentPrefix(s, k, list)) ++qualifying;
      }
      for (const KSortedDatabase::Slot& slot : sd.live()) {
        const auto kmin =
            BruteKMinWithFrequentPrefix(sd.entry(slot.handle).seq, k, list);
        ASSERT_TRUE(kmin.has_value()) << where;
        reference[slot.handle] = KeyOf(list, *kmin);
      }
      ASSERT_EQ(reference.size(), qualifying) << where;

      auto check_run = [&] {
        std::vector<RankKey> sorted;
        for (const auto& [h, key] : reference) sorted.push_back(key);
        std::sort(sorted.begin(), sorted.end(),
                  [](const RankKey& a, const RankKey& b) {
                    return CompareRankKeys(a, b) < 0;
                  });
        ASSERT_EQ(sd.size(), sorted.size()) << where;
        const auto live = sd.live();
        for (std::size_t i = 0; i < live.size(); ++i) {
          ASSERT_EQ(live[i].key, reference.at(live[i].handle)) << where;
          if (i > 0) {
            ASSERT_LE(CompareRankKeys(live[i - 1].key, live[i].key), 0)
                << where;
          }
        }
        if (sorted.empty()) return;
        EXPECT_EQ(sd.MinKey(), sorted.front()) << where;
        for (std::size_t r = 1; r <= sorted.size(); ++r) {
          ASSERT_EQ(sd.SelectKey(r), sorted[r - 1]) << where << " rank " << r;
        }
      };

      check_run();
      std::vector<std::uint32_t> handles;
      while (sd.size() > 0) {
        RankKey bound;
        bool strict;
        if (disc_bounds) {
          bound = sd.SelectKey(1 + rng.NextBounded(sd.size()));
          strict = bound == sd.MinKey();
        } else {
          strict = rng.NextBounded(3) == 0;
          bound = strict ? sd.MinKey()
                         : any_keys[rng.NextBounded(any_keys.size())];
        }
        std::vector<std::uint32_t> expected;
        for (const auto& [h, key] : reference) {
          if (CompareRankKeys(key, bound) < (strict ? 1 : 0)) {
            expected.push_back(h);
          }
        }
        handles.clear();
        if (strict) {
          sd.PopMinBucket(&handles);
        } else {
          sd.PopAllLess(bound, &handles);
        }
        for (std::size_t i = 1; i < handles.size(); ++i) {
          ASSERT_LE(CompareRankKeys(reference.at(handles[i - 1]),
                                    reference.at(handles[i])),
                    0)
              << where;
        }
        std::vector<std::uint32_t> popped = handles;
        std::sort(popped.begin(), popped.end());
        ASSERT_EQ(popped, expected) << where;
        if (disc_bounds) {
          ASSERT_FALSE(handles.empty()) << where;
        }
        sd.Advance(handles, {bound, strict});
        const Sequence bound_seq = KeySequence(list, bound);
        for (const std::uint32_t h : handles) {
          const auto next = BruteConditionalKMin(sd.entry(h).seq, k, list,
                                                 bound_seq, strict);
          if (next) {
            reference[h] = KeyOf(list, *next);
          } else {
            reference.erase(h);
          }
        }
        check_run();
      }
    }
  }
}

TEST(KSorted, RandomizedAgainstReference) {
  for (const bool locative : {true, false}) {
    DriveAgainstReference(locative, /*disc_bounds=*/true);
  }
}

// The contracts the paper's locative AVL tree gave DISC, which the
// locative run now keeps: in-order keys, and pops by bucket or below any
// bound, with rank selection, against a reference.

TEST(LocativeAvl, RandomizedAgainstReference) {
  DriveAgainstReference(/*locative=*/true, /*disc_bounds=*/false);
}

TEST(LocativeAvl, InorderKeysSorted) {
  // Over the list {(1), (2), (3)}, (p)(x) and (p, x) for x > 3 each have
  // one qualifying 2-subsequence, so every key a member gets is known.
  const std::vector<Sequence> list = {Seq("(1)"), Seq("(2)"), Seq("(3)")};
  Rng rng(5);
  SequenceDatabase db;
  std::vector<RankKey> member_keys;
  for (int i = 0; i < 100; ++i) {
    const Item p = 1 + static_cast<Item>(rng.NextBounded(3));
    const Item x = 4 + static_cast<Item>(rng.NextBounded(4));
    const bool itemset = rng.NextBounded(2) == 0;
    Sequence s;
    s.AppendNewItemset(p);
    if (itemset) {
      s.AppendToLastItemset(x);
    } else {
      s.AppendNewItemset(x);
    }
    db.Add(s);
    member_keys.push_back(KeyOf(list, s));
  }
  const PassInput in(db, list);
  KSortedDatabase sd(in.members(), &list, 2, /*locative=*/true,
                     &in.groups);
  ASSERT_EQ(sd.size(), member_keys.size());
  std::vector<RankKey> keys;
  for (const KSortedDatabase::Slot& slot : sd.live()) {
    EXPECT_EQ(slot.key, member_keys[sd.entry(slot.handle).cid]);
    if (keys.empty() || !(keys.back() == slot.key)) keys.push_back(slot.key);
  }
  for (std::size_t i = 1; i < keys.size(); ++i) {
    EXPECT_LT(CompareRankKeys(keys[i - 1], keys[i]), 0);
  }
  // Draining bucket by bucket visits each distinct key once, in order.
  std::vector<std::uint32_t> handles;
  for (const RankKey& key : keys) {
    ASSERT_GT(sd.size(), 0u);
    EXPECT_EQ(sd.MinKey(), key);
    handles.clear();
    sd.PopMinBucket(&handles);
    for (const std::uint32_t h : handles) {
      EXPECT_EQ(member_keys[sd.entry(h).cid], key);
    }
  }
  EXPECT_EQ(sd.size(), 0u);
}

}  // namespace
}  // namespace disc
