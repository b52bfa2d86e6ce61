#include "disc/core/partition.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "disc/order/kmin_brute.h"
#include "disc/seq/containment.h"
#include "test_util.h"

namespace disc {
namespace {

using testutil::Seq;

TEST(ExtFilter, BuildAndQuery) {
  ExtFilter filter;
  filter.Build({{2, ExtType::kItemset}, {2, ExtType::kSequence},
                {5, ExtType::kSequence}},
               8);
  EXPECT_TRUE(filter.IsFrequent(2, ExtType::kItemset));
  EXPECT_TRUE(filter.IsFrequent(2, ExtType::kSequence));
  EXPECT_TRUE(filter.IsFrequent(5, ExtType::kSequence));
  EXPECT_FALSE(filter.IsFrequent(5, ExtType::kItemset));
  EXPECT_FALSE(filter.IsFrequent(3, ExtType::kSequence));
}

TEST(MinFrequentExt, PicksSmallestFrequent) {
  ExtFilter filter;
  filter.Build({{3, ExtType::kSequence}, {4, ExtType::kItemset}}, 8);
  ExtensionSets exts;
  exts.contained = true;
  exts.i_items = {2, 4};
  exts.s_items = {3, 4};
  const auto got = MinFrequentExt(exts, filter, nullptr);
  ASSERT_TRUE(got.has_value());
  // (2,I) is not frequent; (3,S) beats (4,I) on item.
  EXPECT_EQ(got->first, 3u);
  EXPECT_EQ(got->second, ExtType::kSequence);
}

TEST(MinFrequentExt, FloorIsExclusive) {
  ExtFilter filter;
  filter.Build({{3, ExtType::kSequence}, {4, ExtType::kItemset}}, 8);
  ExtensionSets exts;
  exts.contained = true;
  exts.i_items = {4};
  exts.s_items = {3};
  const std::pair<Item, ExtType> floor{3, ExtType::kSequence};
  const auto got = MinFrequentExt(exts, filter, &floor);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->first, 4u);
  EXPECT_EQ(got->second, ExtType::kItemset);
  const std::pair<Item, ExtType> high_floor{4, ExtType::kItemset};
  EXPECT_FALSE(MinFrequentExt(exts, filter, &high_floor).has_value());
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
  // One warm arena serves every partition, as a worker's scratch does.
  const SequenceDatabase db = testutil::RandomDatabase(7);
  const std::uint32_t delta = 2;
  SequenceArena arena;
  std::size_t kept = 0;
  for (Item lambda = 1; lambda <= db.max_item(); ++lambda) {
    Sequence pat1;
    pat1.AppendNewItemset(lambda);
    std::vector<Cid> members;
    CountingArray counts(db.max_item());
    for (Cid cid = 0; cid < db.size(); ++cid) {
      const auto items = db[cid].items();
      if (std::find(items.begin(), items.end(), lambda) == items.end()) {
        continue;
      }
      members.push_back(cid);
      ForEachExtension(db[cid], pat1, [&counts, cid](Item x, ExtType type) {
        counts.Add(x, type, cid);
      });
    }
    arena.Clear();
    for (const Cid cid : members) {
      const Sequence ref =
          ReduceCustomerSequence(db[cid], lambda, counts, delta);
      const std::size_t before = arena.size();
      const std::uint32_t length =
          ReduceCustomerSequenceInto(db[cid], lambda, counts, delta, 3, &arena);
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
  PartitionMembers members;
  for (Cid cid = 0; cid < db.size(); ++cid) {
    members.push_back({db[cid], nullptr, cid});
  }
  // Start DISC at k=2 from the frequent 1-list.
  std::vector<Sequence> list;
  for (Item x = 1; x <= 4; ++x) {
    Sequence s;
    s.AppendNewItemset(x);
    list.push_back(s);
  }
  PatternSet out;
  RunDiscLoop(members, list, 2, 4, /*bilevel=*/true, db.max_item(),
              /*max_length=*/0, &out);
  // 2^4 - 1 - 4 = 11 patterns of length >= 2.
  EXPECT_EQ(out.size(), 11u);
  EXPECT_EQ(out.SupportOf(Seq("(a)(b)(c)(d)")), 4u);
  EXPECT_EQ(out.SupportOf(Seq("(b)(d)")), 4u);
}

}  // namespace
}  // namespace disc
