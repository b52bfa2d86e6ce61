#include "disc/seq/index.h"

#include <algorithm>

#include "disc/common/check.h"

namespace disc {

SequenceIndex::SequenceIndex(SequenceView s)
    : num_txns_(s.NumTransactions()) {
  // Collect (item, txn) pairs; transactions are visited in order and items
  // within a transaction are sorted, so a stable sort by item yields rows
  // with ascending transaction lists.
  std::vector<std::pair<Item, std::uint32_t>> occ;
  occ.reserve(s.Length());
  for (std::uint32_t t = 0; t < num_txns_; ++t) {
    for (const Item* p = s.TxnBegin(t); p != s.TxnEnd(t); ++p) {
      occ.emplace_back(*p, t);
    }
  }
  std::stable_sort(occ.begin(), occ.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });
  row_offsets_.push_back(0);
  for (std::size_t i = 0; i < occ.size(); ++i) {
    if (row_items_.empty() || row_items_.back() != occ[i].first) {
      if (!row_items_.empty()) {
        row_offsets_.push_back(static_cast<std::uint32_t>(i));
      }
      row_items_.push_back(occ[i].first);
    }
    txns_.push_back(occ[i].second);
  }
  row_offsets_.push_back(static_cast<std::uint32_t>(occ.size()));
  row_last_txn_.reserve(row_items_.size());
  for (std::size_t r = 0; r < row_items_.size(); ++r) {
    row_last_txn_.push_back(txns_[row_offsets_[r + 1] - 1]);
  }

  suffix_min_.assign(num_txns_ + 1, kNoItem);
  for (std::uint32_t t = num_txns_; t-- > 0;) {
    const Item txn_min = *s.TxnBegin(t);  // transactions are sorted
    const Item later = suffix_min_[t + 1];
    suffix_min_[t] =
        later == kNoItem ? txn_min : std::min(txn_min, later);
  }
}

std::uint32_t SequenceIndex::NextTxnWithItem(Item x,
                                             std::uint32_t start) const {
  const auto row =
      std::lower_bound(row_items_.begin(), row_items_.end(), x);
  if (row == row_items_.end() || *row != x) return kNoTxn;
  const std::size_t r = static_cast<std::size_t>(row - row_items_.begin());
  const auto begin = txns_.begin() + row_offsets_[r];
  const auto end = txns_.begin() + row_offsets_[r + 1];
  const auto it = std::lower_bound(begin, end, start);
  return it == end ? kNoTxn : *it;
}

std::uint32_t SequenceIndex::NextTxnWithItemset(std::uint32_t start,
                                                const Item* begin,
                                                const Item* end) const {
  DISC_DCHECK(begin != end);
  const std::size_t m = static_cast<std::size_t>(end - begin);
  // Fast path: single-item itemsets are the overwhelmingly common case.
  if (m == 1) return NextTxnWithItem(*begin, start);

  // Resolve each item's occurrence range once, then align the cursors.
  constexpr std::size_t kMaxInline = 32;
  const std::uint32_t* lo[kMaxInline];
  const std::uint32_t* hi[kMaxInline];
  if (m > kMaxInline) {
    // Degenerate itemset: fall back to the per-item formulation.
    std::uint32_t t = start;
    for (;;) {
      std::uint32_t max_next = t;
      bool aligned = true;
      for (const Item* p = begin; p != end; ++p) {
        const std::uint32_t nt = NextTxnWithItem(*p, t);
        if (nt == kNoTxn) return kNoTxn;
        if (nt > max_next) max_next = nt;
        if (nt != t) aligned = false;
      }
      if (aligned) return t;
      t = max_next;
    }
  }
  for (std::size_t j = 0; j < m; ++j) {
    const auto row =
        std::lower_bound(row_items_.begin(), row_items_.end(), begin[j]);
    if (row == row_items_.end() || *row != begin[j]) return kNoTxn;
    const std::size_t r = static_cast<std::size_t>(row - row_items_.begin());
    lo[j] = txns_.data() + row_offsets_[r];
    hi[j] = txns_.data() + row_offsets_[r + 1];
  }
  std::uint32_t t = start;
  std::size_t aligned = 0;
  std::size_t j = 0;
  for (;;) {
    // Advance cursor j to the first occurrence >= t.
    lo[j] = std::lower_bound(lo[j], hi[j], t);
    if (lo[j] == hi[j]) return kNoTxn;
    if (*lo[j] == t) {
      if (++aligned == m) return t;
    } else {
      t = *lo[j];
      aligned = 1;
    }
    j = (j + 1) % m;
  }
}

Item SequenceIndex::SuffixMinItem(std::uint32_t start) const {
  if (start >= num_txns_) return kNoItem;
  return suffix_min_[start];
}

std::uint32_t SequenceIndex::NextRowFrom(std::uint32_t row, Item min_item,
                                         std::uint32_t start) const {
  // No row below the suffix minimum occurs at or after start, so the
  // cursor may jump there by binary search; past it, rows are skipped one
  // by one until one occurs late enough.
  const Item suffix_min = SuffixMinItem(start);
  if (suffix_min == kNoItem) return NumRows();
  if (min_item < suffix_min) min_item = suffix_min;
  if (row < NumRows() && row_items_[row] < min_item) {
    row = static_cast<std::uint32_t>(
        std::lower_bound(row_items_.begin() + row, row_items_.end(),
                         min_item) -
        row_items_.begin());
  }
  while (row < NumRows() && row_last_txn_[row] < start) ++row;
  return row;
}

}  // namespace disc
