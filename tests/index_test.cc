#include "disc/seq/index.h"

#include <gtest/gtest.h>

#include "disc/common/rng.h"
#include "disc/seq/containment.h"
#include "disc/seq/extension.h"
#include "test_util.h"

namespace disc {
namespace {

using testutil::Seq;

TEST(SequenceIndex, NextTxnWithItem) {
  const Sequence s = Seq("(a,c)(b)(a)(c)");
  const SequenceIndex idx(s);
  EXPECT_EQ(idx.NextTxnWithItem(1, 0), 0u);
  EXPECT_EQ(idx.NextTxnWithItem(1, 1), 2u);
  EXPECT_EQ(idx.NextTxnWithItem(1, 3), kNoTxn);
  EXPECT_EQ(idx.NextTxnWithItem(2, 0), 1u);
  EXPECT_EQ(idx.NextTxnWithItem(3, 1), 3u);
  EXPECT_EQ(idx.NextTxnWithItem(9, 0), kNoTxn);
  EXPECT_EQ(idx.NumTransactions(), 4u);
}

TEST(SequenceIndex, NextTxnWithItemset) {
  const Sequence s = Seq("(a,b)(a)(a,b,c)(b,c)");
  const SequenceIndex idx(s);
  const Item ab[] = {1, 2};
  EXPECT_EQ(idx.NextTxnWithItemset(0, ab, ab + 2), 0u);
  EXPECT_EQ(idx.NextTxnWithItemset(1, ab, ab + 2), 2u);
  EXPECT_EQ(idx.NextTxnWithItemset(3, ab, ab + 2), kNoTxn);
  const Item abc[] = {1, 2, 3};
  EXPECT_EQ(idx.NextTxnWithItemset(0, abc, abc + 3), 2u);
  const Item bd[] = {2, 4};
  EXPECT_EQ(idx.NextTxnWithItemset(0, bd, bd + 2), kNoTxn);
}

TEST(SequenceIndex, SuffixMinItem) {
  const Sequence s = Seq("(d)(b,c)(e)(c)");
  const SequenceIndex idx(s);
  EXPECT_EQ(idx.SuffixMinItem(0), 2u);
  EXPECT_EQ(idx.SuffixMinItem(1), 2u);
  EXPECT_EQ(idx.SuffixMinItem(2), 3u);
  EXPECT_EQ(idx.SuffixMinItem(3), 3u);
  EXPECT_EQ(idx.SuffixMinItem(4), kNoItem);
  EXPECT_EQ(idx.SuffixMinItem(99), kNoItem);
}

// Property: every index query agrees with the direct scan.
TEST(SequenceIndex, MatchesDirectScans) {
  Rng rng(808);
  for (int trial = 0; trial < 150; ++trial) {
    const Sequence s = testutil::RandomSequence(&rng, 6, 6, 3);
    const SequenceIndex idx(s);
    for (std::uint32_t start = 0; start <= s.NumTransactions(); ++start) {
      for (Item x = 1; x <= 7; ++x) {
        const Item itemset1[] = {x};
        EXPECT_EQ(idx.NextTxnWithItem(x, start),
                  FindTxnWithItemset(s, start, itemset1, itemset1 + 1));
      }
      for (Item x = 1; x <= 6; ++x) {
        for (Item y = x + 1; y <= 6; ++y) {
          const Item pair[] = {x, y};
          EXPECT_EQ(idx.NextTxnWithItemset(start, pair, pair + 2),
                    FindTxnWithItemset(s, start, pair, pair + 2));
        }
      }
      // Suffix minimum.
      Item expect = kNoItem;
      for (std::uint32_t t = start; t < s.NumTransactions(); ++t) {
        for (const Item* p = s.TxnBegin(t); p != s.TxnEnd(t); ++p) {
          if (expect == kNoItem || *p < expect) expect = *p;
        }
      }
      EXPECT_EQ(idx.SuffixMinItem(start), expect);
    }
  }
}

// Property: indexed and index-less extension machinery agree.
TEST(SequenceIndex, IndexedScansMatchUnindexed) {
  Rng rng(909);
  for (int trial = 0; trial < 200; ++trial) {
    const Sequence s = testutil::RandomSequence(&rng, 6, 5, 3);
    const SequenceIndex idx(s);
    const Sequence pattern = testutil::RandomSequence(&rng, 6, 3, 2);
    const EmbeddingEnds a = LeftmostEnds(s, pattern);
    const EmbeddingEnds b = LeftmostEnds(s, pattern, &idx);
    EXPECT_EQ(a.contained, b.contained);
    EXPECT_EQ(a.full_end, b.full_end);
    EXPECT_EQ(a.prefix_end, b.prefix_end);

    std::vector<std::pair<Item, ExtType>> e1, e2;
    ForEachExtension(s, pattern,
                     [&](Item x, ExtType t) { e1.emplace_back(x, t); });
    ForEachExtension(
        s, pattern, [&](Item x, ExtType t) { e2.emplace_back(x, t); }, &idx);
    std::sort(e1.begin(), e1.end());
    std::sort(e2.begin(), e2.end());
    e1.erase(std::unique(e1.begin(), e1.end()), e1.end());
    e2.erase(std::unique(e2.begin(), e2.end()), e2.end());
    EXPECT_EQ(e1, e2) << pattern.ToString() << " in " << s.ToString();

    // The s-set is read in place off the index rows (NextRowFrom); the
    // index-less scan is its oracle, at every start transaction. s's own
    // first `start` transactions embed leftmost ending at start - 1 (no
    // itemset's earliest match can precede its own position), so their
    // s-set is every item of the transactions from `start` on. Floored
    // cursors land on the set's lower bound.
    std::uint32_t head_length = 0;
    for (std::uint32_t start = 0; start <= s.NumTransactions(); ++start) {
      if (start > 0) head_length += s.TxnSize(start - 1);
      const Sequence head = s.Prefix(head_length);
      const std::vector<Item> expected = ScanExtensions(s, head).s_items;
      std::vector<Item> got;
      for (std::uint32_t r = idx.NextRowFrom(0, 1, start); r < idx.NumRows();
           r = idx.NextRowFrom(r + 1, 1, start)) {
        got.push_back(idx.RowItem(r));
      }
      EXPECT_EQ(got, expected) << "start " << start << " in " << s.ToString();
      std::uint32_t cursor = 0;
      for (Item y = 1; y <= 8; ++y) {
        cursor = idx.NextRowFrom(cursor, y, start);
        const auto it = std::lower_bound(expected.begin(), expected.end(), y);
        EXPECT_EQ(cursor < idx.NumRows() ? idx.RowItem(cursor) : kNoItem,
                  it == expected.end() ? kNoItem : *it)
            << "floor " << y << " start " << start << " in " << s.ToString();
      }
    }
  }
}

// Property: a one-item extension's leftmost embedding, probed from its
// parent's ends (ExtendEnds), is the embedding LeftmostEnds computes from
// transaction 0, for random parents (the empty one included) and every
// s- and i-extension item.
TEST(SequenceIndex, ExtendEndsMatchesLeftmostEnds) {
  Rng rng(1010);
  for (int trial = 0; trial < 200; ++trial) {
    const Sequence s = testutil::RandomSequence(&rng, 6, 5, 3);
    const SequenceIndex idx(s);
    Sequence parent = testutil::RandomSequence(&rng, 6, 3, 2);
    if (trial % 5 == 0) parent = Sequence();
    const EmbeddingEnds parent_ends = LeftmostEnds(s, parent, &idx);
    if (!parent_ends.contained) continue;
    for (Item x = 1; x <= 7; ++x) {
      for (const ExtType type : {ExtType::kItemset, ExtType::kSequence}) {
        if (type == ExtType::kItemset &&
            (parent.Empty() || x <= parent.LastItem())) {
          continue;
        }
        const Sequence child = Extend(parent, x, type);
        const EmbeddingEnds want = LeftmostEnds(s, child);
        const EmbeddingEnds got = ExtendEnds(parent_ends, child, idx);
        EXPECT_EQ(got.contained, want.contained)
            << child.ToString() << " in " << s.ToString();
        if (!want.contained) continue;
        EXPECT_EQ(got.full_end, want.full_end) << child.ToString();
        EXPECT_EQ(got.prefix_end, want.prefix_end) << child.ToString();
      }
    }
  }
}

TEST(SequenceIndex, WideItemsetFallback) {
  // Itemsets wider than the inline cursor buffer take the fallback path.
  std::vector<Item> wide;
  for (Item x = 1; x <= 40; ++x) wide.push_back(x);
  Sequence s;
  s.AppendItemset(Itemset({50}));
  s.AppendItemset(Itemset(wide));
  const SequenceIndex idx(s);
  EXPECT_EQ(idx.NextTxnWithItemset(0, wide.data(), wide.data() + 40), 1u);
  EXPECT_EQ(idx.NextTxnWithItemset(2, wide.data(), wide.data() + 40),
            kNoTxn);
}

}  // namespace
}  // namespace disc
