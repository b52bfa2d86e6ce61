#include "disc/core/ksorted.h"

#include <gtest/gtest.h>

#include "disc/order/kmin_brute.h"
#include "test_util.h"

namespace disc {
namespace {

using testutil::KeyOf;
using testutil::Seq;

PartitionMembers Members(const SequenceDatabase& db) {
  PartitionMembers out;
  for (Cid cid = 0; cid < db.size(); ++cid) {
    out.push_back({db[cid], nullptr, cid});
  }
  return out;
}

TEST(KSorted, BuildsTable9) {
  const SequenceDatabase part = testutil::Table8Partition();
  const std::vector<Sequence> list = {Seq("(a)(a,e)"), Seq("(a)(a,g)"),
                                      Seq("(a)(a,h)")};
  KSortedDatabase sd(Members(part), &list, 4);
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
  KSortedDatabase sd(Members(db), &list, 2);
  EXPECT_EQ(sd.size(), 1u);
  EXPECT_EQ(sd.KeySequence(sd.MinKey()).ToString(), "(a)(b)");
}

TEST(KSorted, AdvanceAndReinsertMovesKeysForward) {
  const SequenceDatabase part = testutil::Table8Partition();
  const std::vector<Sequence> list = {Seq("(a)(a,e)"), Seq("(a)(a,g)"),
                                      Seq("(a)(a,h)")};
  KSortedDatabase sd(Members(part), &list, 4);
  // Pop the minimum (CID 3's (a)(a,e)(c)) and advance it non-strictly to
  // the key at position 3 — Example 3.4.
  const RankKey bound = sd.SelectKey(3);
  EXPECT_EQ(sd.KeySequence(bound).ToString(), "(a)(a,e,g)");
  std::vector<std::uint32_t> handles;
  sd.PopAllLess(bound, &handles);
  ASSERT_EQ(handles.size(), 1u);
  EXPECT_TRUE(sd.AdvanceAndReinsert(handles[0], {bound, /*strict=*/false}));
  EXPECT_EQ(sd.size(), 6u);
  // Now everything below the δ=3 position is the (a)(a,e,g) run (Table 10).
  EXPECT_EQ(sd.MinKey(), bound);
  EXPECT_EQ(sd.SelectKey(5), bound);
}

TEST(KSorted, StrictAdvanceDropsExhaustedMembers) {
  SequenceDatabase db;
  db.Add(Seq("(a)(b)"));  // only one 2-subsequence
  const std::vector<Sequence> list = {Seq("(a)")};
  KSortedDatabase sd(Members(db), &list, 2);
  ASSERT_EQ(sd.size(), 1u);
  std::vector<std::uint32_t> handles;
  sd.PopMinBucket(&handles);
  ASSERT_EQ(handles.size(), 1u);
  EXPECT_FALSE(sd.AdvanceAndReinsert(
      handles[0], {KeyOf(list, Seq("(a)(b)")), /*strict=*/true}));
  EXPECT_EQ(sd.size(), 0u);
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
  KSortedDatabase sd(Members(db), &list, 2);
  // Drain the tree bucket by bucket: every popped entry's brute-force
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

}  // namespace
}  // namespace disc
