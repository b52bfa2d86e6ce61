#include "disc/core/partition.h"

#include <algorithm>
#include <deque>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "disc/core/first_level.h"
#include "disc/order/kmin_brute.h"
#include "disc/seq/containment.h"
#include "test_util.h"

namespace disc {
namespace {

using testutil::Seq;

using Exts = std::vector<std::pair<Item, ExtType>>;
using Children = std::vector<std::vector<std::uint32_t>>;

// The paper's reassign-forward walk (Figure 2, step 2.1.3; Appendix, step
// 3), kept as the oracle for ChildSlots: a member starts in the child of
// its minimum frequent extension of `prefix` and, once that child is done,
// moves on to the child of its next one. Returns each child's members in
// the order the walk enrolls them.
Children ReassignForward(const std::vector<SequenceView>& seqs,
                         const Sequence& prefix, const Exts& freq) {
  // The first child at or after `from` whose extension `s` contains;
  // `freq` is ascending, so that is the next minimum frequent extension.
  const auto next_child = [&](SequenceView s, std::size_t from) {
    const ExtensionSets exts = ScanExtensions(s, prefix);
    for (std::size_t j = from; j < freq.size(); ++j) {
      const std::vector<Item>& items = freq[j].second == ExtType::kItemset
                                           ? exts.i_items
                                           : exts.s_items;
      if (std::binary_search(items.begin(), items.end(), freq[j].first)) {
        return j;
      }
    }
    return freq.size();
  };
  Children children(freq.size());
  for (std::uint32_t i = 0; i < seqs.size(); ++i) {
    const std::size_t j = next_child(seqs[i], 0);
    if (j < freq.size()) children[j].push_back(i);
  }
  for (std::size_t j = 0; j < freq.size(); ++j) {
    for (std::size_t m = 0; m < children[j].size(); ++m) {
      const std::uint32_t i = children[j][m];
      const std::size_t next = next_child(seqs[i], j + 1);
      if (next < freq.size()) children[next].push_back(i);
    }
  }
  return children;
}

// Enrolls `seqs` in ascending order, as both miners do, with or without
// occurrence indexes, and checks the result against the oracle: the same
// members in every child (one-scan lists are ascending, so the oracle's
// are sorted first), and Enroll reports exactly the members the walk
// places somewhere. Returns the number of enrollments.
std::size_t ExpectEnrollmentMatchesWalk(const std::vector<SequenceView>& seqs,
                                        const Sequence& prefix,
                                        const Exts& freq, bool indexed,
                                        ChildSlots* slots) {
  std::deque<SequenceIndex> indexes;
  for (const SequenceView s : seqs) indexes.emplace_back(s);
  slots->Build(freq);
  Children got(freq.size());
  std::vector<bool> enrolled;
  for (std::uint32_t i = 0; i < seqs.size(); ++i) {
    enrolled.push_back(slots->Enroll(seqs[i], prefix,
                                     indexed ? &indexes[i] : nullptr, i,
                                     &got));
  }
  Children want = ReassignForward(seqs, prefix, freq);
  std::vector<bool> placed(seqs.size(), false);
  std::size_t enrollments = 0;
  for (std::size_t j = 0; j < freq.size(); ++j) {
    std::sort(want[j].begin(), want[j].end());
    EXPECT_EQ(got[j], want[j]) << "prefix " << prefix.ToString() << " child "
                               << j;
    for (const std::uint32_t i : want[j]) placed[i] = true;
    enrollments += got[j].size();
  }
  EXPECT_EQ(enrolled, placed) << "prefix " << prefix.ToString();
  return enrollments;
}

// The frequent one-item extensions of `prefix` over `seqs`, counted into
// the empty `counts`.
Exts CountFrequentExtensions(const std::vector<SequenceView>& seqs,
                             const Sequence& prefix, std::uint32_t delta,
                             CountingArray* counts) {
  for (std::uint32_t i = 0; i < seqs.size(); ++i) {
    ForEachExtension(seqs[i], prefix, [counts, i](Item x, ExtType type) {
      counts->Add(x, type, i);
    });
  }
  Exts out;
  counts->FrequentExtensions(delta, &out);
  return out;
}

TEST(ChildSlots, OneScanEqualsReassignForwardOnReducedSequences) {
  // DISC-all's second level: the reduced sequences of every first-level
  // ⟨λ⟩-partition, enrolled under the frequent 2-sequences with prefix λ.
  // One ChildSlots serves every partition, as a worker's scratch does.
  ChildSlots slots;
  std::size_t enrollments = 0;
  for (const std::uint64_t seed : {3u, 11u, 29u}) {
    testutil::RandomDbSpec spec;
    spec.num_seqs = 40;
    spec.alphabet = 10;
    spec.max_txns = 6;
    spec.seed = seed;
    const SequenceDatabase db = testutil::MakeRandomDb(spec);
    for (const std::uint32_t delta : {1u, 2u, 4u}) {
      for (Item lambda = 1; lambda <= db.max_item(); ++lambda) {
        Sequence pat1;
        pat1.AppendNewItemset(lambda);
        std::vector<SequenceView> members;
        for (Cid cid = 0; cid < db.size(); ++cid) {
          if (Contains(db[cid], pat1)) members.push_back(db[cid]);
        }
        if (members.size() < delta) continue;
        CountingArray counts(db.max_item());
        const Exts freq2 =
            CountFrequentExtensions(members, pat1, delta, &counts);
        std::vector<Sequence> reduced;
        for (const SequenceView m : members) {
          Sequence red = ReduceCustomerSequence(m, lambda, counts, delta);
          if (red.Length() >= 3) reduced.push_back(std::move(red));
        }
        std::vector<SequenceView> views(reduced.begin(), reduced.end());
        for (const bool indexed : {true, false}) {
          enrollments +=
              ExpectEnrollmentMatchesWalk(views, pat1, freq2, indexed, &slots);
        }
      }
    }
  }
  EXPECT_GT(enrollments, 0u);
}

TEST(ChildSlots, OneScanEqualsReassignForwardOnDynamicMembers) {
  // Dynamic DISC-all's deeper levels: the members of a ⟨prefix⟩-partition
  // (the sequences containing the prefix) enrolled by position under the
  // prefix's frequent extensions, for prefixes of length 0 to 2.
  ChildSlots slots;
  std::size_t enrollments = 0;
  for (const std::uint64_t seed : {5u, 17u}) {
    testutil::RandomDbSpec spec;
    spec.num_seqs = 30;
    spec.alphabet = 7;
    spec.seed = seed;
    const SequenceDatabase db = testutil::MakeRandomDb(spec);
    for (const std::uint32_t delta : {2u, 3u, 6u}) {
      std::vector<Sequence> level = {Sequence()};
      for (std::uint32_t k = 0; k < 3; ++k) {
        std::vector<Sequence> deeper;
        for (const Sequence& prefix : level) {
          std::vector<SequenceView> members;
          for (Cid cid = 0; cid < db.size(); ++cid) {
            if (Contains(db[cid], prefix)) members.push_back(db[cid]);
          }
          CountingArray counts(db.max_item());
          const Exts freq =
              CountFrequentExtensions(members, prefix, delta, &counts);
          enrollments += ExpectEnrollmentMatchesWalk(members, prefix, freq,
                                                     true, &slots);
          for (const auto& [x, type] : freq) {
            deeper.push_back(Extend(prefix, x, type));
          }
        }
        level = std::move(deeper);
      }
    }
  }
  EXPECT_GT(enrollments, 0u);
}

TEST(ChildSlots, RebuildForgetsEarlierExtensions) {
  // A warm table must not keep a previous partition's extensions: after a
  // rebuild to a smaller set, the dropped extensions enroll nobody.
  const Sequence seq = Seq("(a)(b,c)(d)");
  const Sequence prefix = Seq("(a)");
  ChildSlots slots;
  slots.Build({{2, ExtType::kSequence},
               {3, ExtType::kSequence},
               {4, ExtType::kSequence}});
  Children children(3);
  EXPECT_TRUE(slots.Enroll(seq, prefix, nullptr, 0, &children));
  EXPECT_EQ(children, (Children{{0}, {0}, {0}}));
  slots.Build({{3, ExtType::kSequence}});
  children.assign(3, {});
  EXPECT_TRUE(slots.Enroll(seq, prefix, nullptr, 7, &children));
  EXPECT_EQ(children, (Children{{7}, {}, {}}));
  slots.Build({{3, ExtType::kItemset}});  // c never joins a's itemset
  children.assign(3, {});
  EXPECT_FALSE(slots.Enroll(seq, prefix, nullptr, 0, &children));
  EXPECT_EQ(children, (Children{{}, {}, {}}));
}

TEST(Reduce, KeepsLambdaAlways) {
  // Even when every 2-sequence form of an item is rare, λ itself stays.
  CountingArray counts(8);  // all counts zero
  const Sequence red =
      ReduceCustomerSequence(Seq("(b)(a)(a,c)(a)"), 1, counts, 2);
  EXPECT_EQ(red.ToString(), "(a)(a)(a)");
}

TEST(Reduce, RoleSpecificRules) {
  // Set up: <(λ)(c)> frequent, <(λ c)> not; <(λ d)> frequent, <(λ)(d)> not.
  CountingArray counts(8);
  counts.Add(3, ExtType::kSequence, 0);
  counts.Add(3, ExtType::kSequence, 1);
  counts.Add(4, ExtType::kItemset, 0);
  counts.Add(4, ExtType::kItemset, 1);
  const std::uint32_t delta = 2;
  // c in the minimum-point transaction can only serve the itemset form ->
  // dropped; c in a later non-λ transaction serves the sequence form ->
  // kept. d in the min transaction is kept; d later without λ is dropped.
  const Sequence red = ReduceCustomerSequence(Seq("(a,c,d)(c,d)"), 1, counts,
                                              delta);
  EXPECT_EQ(red.ToString(), "(a,d)(c)");
  // In a later transaction that *does* contain λ, either frequent form
  // rescues the occurrence.
  const Sequence red2 =
      ReduceCustomerSequence(Seq("(a)(a,c,d)"), 1, counts, delta);
  EXPECT_EQ(red2.ToString(), "(a)(a,c,d)");
}

TEST(Reduce, DropsLeadingTransactions) {
  CountingArray counts(8);
  counts.Add(2, ExtType::kSequence, 0);
  counts.Add(2, ExtType::kSequence, 1);
  const Sequence red =
      ReduceCustomerSequence(Seq("(c)(b)(a)(b)"), 1, counts, 2);
  EXPECT_EQ(red.ToString(), "(a)(b)");
}

TEST(Reduce, SoundnessOnRandomData) {
  // Reduction must preserve containment of every frequent λ-prefixed
  // pattern: mine the original partition and check each pattern still
  // embeds in the reduced copies it was supported by.
  const SequenceDatabase db = testutil::RandomDatabase(31);
  const std::uint32_t delta = 3;
  const Item lambda = 1;
  std::vector<Cid> members;
  for (Cid cid = 0; cid < db.size(); ++cid) {
    Item mn = db[cid].items().front();
    for (const Item x : db[cid].items()) mn = std::min(mn, x);
    if (mn == lambda) members.push_back(cid);
  }
  ASSERT_GE(members.size(), delta);
  Sequence pat1;
  pat1.AppendNewItemset(lambda);
  CountingArray counts(db.max_item());
  for (const Cid cid : members) {
    const ExtensionSets exts = ScanExtensions(db[cid], pat1);
    for (const Item x : exts.i_items) counts.Add(x, ExtType::kItemset, cid);
    for (const Item x : exts.s_items) counts.Add(x, ExtType::kSequence, cid);
  }
  // Candidate frequent patterns with first item λ, built by brute force
  // over the partition: all 3-subsequences beginning with λ that are
  // frequent among members.
  for (const Cid cid : members) {
    const Sequence red = ReduceCustomerSequence(db[cid], lambda, counts, delta);
    for (const Sequence& sub : AllDistinctKSubsequences(db[cid], 3)) {
      if (sub.ItemAt(0) != lambda) continue;
      std::uint32_t sup = 0;
      for (const Cid other : members) {
        if (Contains(db[other], sub)) ++sup;
      }
      if (sup >= delta) {
        EXPECT_TRUE(Contains(red, sub))
            << sub.ToString() << " lost from reduced " << red.ToString()
            << " (original " << db[cid].ToString() << ")";
      }
    }
  }
}

TEST(Reduce, ArenaReducerMatchesReference) {
  // The miner's arena reducer must produce exactly the owning reference
  // reduction, dropping (and rolling back) the ones shorter than 3 items.
  // One warm arena serves every partition, as a worker's scratch does. The
  // arena reducer starts at each member's recorded first transaction
  // holding λ, taken from the first-level scan as the miner takes it; the
  // reference searches for that transaction itself.
  const SequenceDatabase db = testutil::RandomDatabase(7);
  const std::uint32_t delta = 2;
  const std::vector<std::vector<FirstLevelMember>> members_of =
      CollectPartitionMembers(db, CountItemSupport(db), 1);
  SequenceArena arena;
  std::size_t kept = 0;
  for (Item lambda = 1; lambda <= db.max_item(); ++lambda) {
    Sequence pat1;
    pat1.AppendNewItemset(lambda);
    CountingArray counts(db.max_item());
    for (const FirstLevelMember& m : members_of[lambda]) {
      ForEachExtension(db[m.cid], pat1, [&counts, &m](Item x, ExtType type) {
        counts.Add(x, type, m.cid);
      });
    }
    arena.Clear();
    for (const FirstLevelMember& m : members_of[lambda]) {
      const Cid cid = m.cid;
      const Sequence ref =
          ReduceCustomerSequence(db[cid], lambda, counts, delta);
      const std::size_t before = arena.size();
      const std::uint32_t length = ReduceCustomerSequenceInto(
          db[cid], lambda, m.txn, counts, delta, 3, &arena);
      if (ref.Length() < 3) {
        EXPECT_EQ(length, 0u) << ref.ToString();
        EXPECT_EQ(arena.size(), before);
      } else {
        EXPECT_EQ(length, ref.Length());
        ASSERT_EQ(arena.size(), before + 1);
        EXPECT_EQ(MaterializeSequence(arena.back()), ref)
            << "lambda=" << lambda << " cid=" << cid;
        ++kept;
      }
    }
  }
  EXPECT_GT(kept, 0u);
}

TEST(RunDiscLoop, FindsAllLongPatterns) {
  // Four copies of the same sequence: every subsequence is frequent.
  SequenceDatabase db;
  for (int i = 0; i < 4; ++i) db.Add(Seq("(a)(b)(c)(d)"));
  const testutil::IndexedMembers indexed(db);
  const PartitionMembers& members = indexed.members;
  // Start DISC at k=2 from the frequent 1-list.
  std::vector<Sequence> list;
  for (Item x = 1; x <= 4; ++x) {
    Sequence s;
    s.AppendNewItemset(x);
    list.push_back(s);
  }
  PatternSet out;
  CountingArray counts(db.max_item());
  // The 1-sequences extend the empty prefix, contained in every member.
  const std::vector<EmbeddingEnds> empty_prefix_ends(members.size(),
                                                     EmbeddingEnds{true});
  RunDiscLoop(members, list, empty_prefix_ends, 2, 4, /*bilevel=*/true,
              /*max_length=*/0, &counts, &out);
  // 2^4 - 1 - 4 = 11 patterns of length >= 2.
  EXPECT_EQ(out.size(), 11u);
  EXPECT_EQ(out.SupportOf(Seq("(a)(b)(c)(d)")), 4u);
  EXPECT_EQ(out.SupportOf(Seq("(b)(d)")), 4u);
}

}  // namespace
}  // namespace disc
