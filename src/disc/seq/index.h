// Per-sequence occurrence index: for each distinct item, the sorted list of
// transactions containing it (a "row"), plus a suffix-minimum item table.
//
// The DISC inner loop tests thousands of sorted-list entries against the
// same customer sequences. With this index, testing whether a parent's
// one-item extension is contained is one probe (jump to the next
// transaction containing an item or itemset) instead of a linear scan over
// transactions, and the unconstrained "minimum item in the remaining
// suffix" query is O(1). The rows are ascending by item and each knows its
// last transaction, so the s-extension set after an embedding's end is
// read in place as a forward-only row cursor (NextRowFrom).
//
// An index is immutable and tied to the sequence it was built from. The
// extension scans (seq/extension.h) and LeftmostEnds accept a null index
// and fall back to direct scans; the k-sorted database (core/ksorted.h)
// requires one.
#ifndef DISC_SEQ_INDEX_H_
#define DISC_SEQ_INDEX_H_

#include <cstdint>
#include <vector>

#include "disc/seq/view.h"
#include "disc/seq/types.h"

namespace disc {

/// Occurrence index of one sequence. See file comment.
class SequenceIndex {
 public:
  /// Builds the index in O(length log length). The index copies everything
  /// it needs — it retains no pointers into `s`, so it stays valid even if
  /// the viewed storage later moves or is cleared.
  explicit SequenceIndex(SequenceView s);

  /// First transaction >= start containing item x; kNoTxn if none.
  std::uint32_t NextTxnWithItem(Item x, std::uint32_t start) const;

  /// First transaction >= start whose itemset contains the sorted range
  /// [begin, end); kNoTxn if none. The range must be non-empty.
  std::uint32_t NextTxnWithItemset(std::uint32_t start, const Item* begin,
                                   const Item* end) const;

  /// Smallest item occurring in transactions >= start; kNoItem if none.
  Item SuffixMinItem(std::uint32_t start) const;

  /// Number of rows: the distinct items of the sequence, ascending.
  std::uint32_t NumRows() const {
    return static_cast<std::uint32_t>(row_items_.size());
  }

  /// The item of row r < NumRows().
  Item RowItem(std::uint32_t r) const { return row_items_[r]; }

  /// The first row at or after `row` whose item is >= min_item and occurs
  /// in a transaction >= start; NumRows() if none. The rows this cursor
  /// visits for a fixed start and rising min_item are exactly the distinct
  /// items of transactions >= start, ascending: the s-extension set of an
  /// embedding ending at start - 1, read in place.
  std::uint32_t NextRowFrom(std::uint32_t row, Item min_item,
                            std::uint32_t start) const;

  /// Number of transactions of the indexed sequence.
  std::uint32_t NumTransactions() const { return num_txns_; }

 private:
  // Occurrence lists in CSR form, ordered by item: row r covers item
  // row_items_[r] with transactions txns_[row_offsets_[r] ..
  // row_offsets_[r+1]).
  std::vector<Item> row_items_;           // sorted distinct items
  std::vector<std::uint32_t> row_offsets_;  // size rows+1
  std::vector<std::uint32_t> txns_;         // sorted within each row
  std::vector<std::uint32_t> row_last_txn_;  // last transaction per row
  std::vector<Item> suffix_min_;            // size num_txns_+1, [n] = kNoItem
  std::uint32_t num_txns_ = 0;
};

}  // namespace disc

#endif  // DISC_SEQ_INDEX_H_
