// The locative AVL tree against a reference sorted vector, including
// rank-selection (the tree's raison d'être: locating α_δ) and invariant
// checks after every mutation.
#include "disc/core/locative_avl.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "disc/common/rng.h"

namespace disc {
namespace {

RankKey K(std::uint32_t prefix, Item item,
          ExtType type = ExtType::kSequence) {
  return RankKey{prefix, item, type};
}

RankKey RandomKey(Rng* rng) {
  return K(static_cast<std::uint32_t>(rng->NextBounded(3)),
           static_cast<Item>(1 + rng->NextBounded(4)),
           rng->NextBounded(2) == 0 ? ExtType::kItemset : ExtType::kSequence);
}

TEST(LocativeAvl, BasicInsertAndMin) {
  LocativeAvlTree tree;
  EXPECT_TRUE(tree.empty());
  tree.Insert(K(0, 2), 0);
  tree.Insert(K(0, 1), 1);
  tree.Insert(K(0, 1), 2);
  EXPECT_EQ(tree.size(), 3u);
  EXPECT_EQ(tree.NumKeys(), 2u);
  EXPECT_EQ(tree.MinKey(), K(0, 1));
  EXPECT_EQ(tree.MinBucketSize(), 2u);
  EXPECT_TRUE(tree.CheckInvariants());
}

TEST(LocativeAvl, SelectKeyCountsMultiplicity) {
  LocativeAvlTree tree;
  tree.Insert(K(0, 1), 0);
  tree.Insert(K(0, 1), 1);
  tree.Insert(K(0, 2, ExtType::kItemset), 2);
  tree.Insert(K(0, 2), 3);
  EXPECT_EQ(tree.SelectKey(1), K(0, 1));
  EXPECT_EQ(tree.SelectKey(2), K(0, 1));
  // Same item: the itemset extension precedes the sequence extension.
  EXPECT_EQ(tree.SelectKey(3), K(0, 2, ExtType::kItemset));
  EXPECT_EQ(tree.SelectKey(4), K(0, 2));
}

TEST(LocativeAvl, PopMinBucket) {
  LocativeAvlTree tree;
  tree.Insert(K(1, 1), 10);
  tree.Insert(K(0, 9), 11);
  tree.Insert(K(0, 9), 12);
  std::vector<std::uint32_t> handles;
  tree.PopMinBucket(&handles);
  // The prefix index decides before the extension; a bucket pops in
  // insertion order.
  EXPECT_EQ(handles, (std::vector<std::uint32_t>{11, 12}));
  EXPECT_EQ(tree.size(), 1u);
  EXPECT_EQ(tree.MinKey(), K(1, 1));
  EXPECT_TRUE(tree.CheckInvariants());
}

TEST(LocativeAvl, PopAllLess) {
  LocativeAvlTree tree;
  tree.Insert(K(0, 1), 0);
  tree.Insert(K(0, 2), 1);
  tree.Insert(K(0, 3), 2);
  tree.Insert(K(0, 4), 3);
  std::vector<std::uint32_t> handles;
  tree.PopAllLess(K(0, 3), &handles);
  EXPECT_EQ(handles, (std::vector<std::uint32_t>{0, 1}));
  EXPECT_EQ(tree.size(), 2u);
  EXPECT_EQ(tree.MinKey(), K(0, 3));
}

TEST(LocativeAvl, RandomizedAgainstReference) {
  // Pops recycle pooled nodes and re-inserts reuse handles, so every later
  // operation runs on recycled storage; the reference pins the exact handle
  // order (ascending key, insertion order within a key).
  Rng rng(77);
  for (int trial = 0; trial < 20; ++trial) {
    LocativeAvlTree tree;
    std::vector<std::pair<RankKey, std::uint32_t>> reference;
    std::vector<std::uint32_t> free_handles;
    std::uint32_t next_handle = 0;
    auto less = [](const RankKey& k, const auto& entry) {
      return CompareRankKeys(k, entry.first) < 0;
    };
    for (int op = 0; op < 400; ++op) {
      const std::uint64_t what = rng.NextBounded(10);
      if (what < 6 || reference.empty()) {
        const RankKey key = RandomKey(&rng);
        std::uint32_t handle = next_handle;
        if (!free_handles.empty() && rng.NextBounded(2) == 0) {
          handle = free_handles.back();
          free_handles.pop_back();
        } else {
          ++next_handle;
        }
        tree.Insert(key, handle);
        reference.insert(
            std::upper_bound(reference.begin(), reference.end(), key, less),
            {key, handle});
      } else {
        const bool pop_min = what < 8;
        const RankKey bound =
            pop_min ? reference.front().first : RandomKey(&rng);
        std::vector<std::uint32_t> handles;
        if (pop_min) {
          tree.PopMinBucket(&handles);
        } else {
          tree.PopAllLess(bound, &handles);
        }
        std::vector<std::uint32_t> expected;
        while (!reference.empty() &&
               CompareRankKeys(reference.front().first, bound) <
                   (pop_min ? 1 : 0)) {
          expected.push_back(reference.front().second);
          reference.erase(reference.begin());
        }
        EXPECT_EQ(handles, expected);
        free_handles.insert(free_handles.end(), handles.begin(),
                            handles.end());
      }
      ASSERT_TRUE(tree.CheckInvariants());
      ASSERT_EQ(tree.size(), reference.size());
      if (!reference.empty()) {
        EXPECT_EQ(tree.MinKey(), reference.front().first);
        // Spot-check a few ranks.
        for (const std::size_t rank :
             {std::size_t{1}, reference.size() / 2 + 1, reference.size()}) {
          EXPECT_EQ(tree.SelectKey(rank), reference[rank - 1].first)
              << "rank " << rank;
        }
      }
    }
  }
}

TEST(LocativeAvl, InorderKeysSorted) {
  Rng rng(5);
  LocativeAvlTree tree;
  for (std::uint32_t i = 0; i < 100; ++i) tree.Insert(RandomKey(&rng), i);
  std::vector<RankKey> keys;
  tree.InorderKeys(&keys);
  EXPECT_EQ(keys.size(), tree.NumKeys());
  for (std::size_t i = 1; i < keys.size(); ++i) {
    EXPECT_LT(CompareRankKeys(keys[i - 1], keys[i]), 0);
  }
  tree.Clear();
  EXPECT_TRUE(tree.empty());
  EXPECT_TRUE(tree.CheckInvariants());
}

}  // namespace
}  // namespace disc
