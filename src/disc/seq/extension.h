// Extension scan: the complete sets of valid one-item extensions of a
// pattern within one customer sequence.
//
// A k-sequence with (k-1)-prefix F is F plus one item appended either to
// F's last itemset (an *i-extension*, item > F's last item) or as a new
// trailing transaction (an *s-extension*). This module computes, in one pass
// over the customer sequence, exactly the items z for which the extended
// pattern is still contained:
//
//   * s-extension z valid  <=>  z occurs in a transaction strictly after the
//     leftmost embedding of F (greedy leftmost minimizes the end
//     transaction, so "after leftmost end" captures every embedding);
//   * i-extension z valid  <=>  z > max(F.last itemset) and some transaction
//     t contains F.last itemset + {z} with F's other itemsets embeddable
//     before t (equivalently t is after the leftmost end of F's prefix).
//
// This is the corrected form of the paper's "minimum item to the right of
// the matching point" (Figure 5), which misses i-extensions reachable only
// through non-leftmost embeddings; see DESIGN.md deviation 2. The scan backs
// the counting arrays of §3.1 and the bi-level variant. Apriori-KMS/CKMS
// (core/kms.h) read the same sets through cursors: the s-set in place from
// the occurrence index's rows, the i-set gathered once per landing.
// ScanExtensions and ScanMinExtension compute the sets and the minimum
// directly and are the references the tests check those cursors against.
#ifndef DISC_SEQ_EXTENSION_H_
#define DISC_SEQ_EXTENSION_H_

#include <algorithm>
#include <utility>
#include <vector>

#include "disc/common/check.h"
#include "disc/order/compare.h"
#include "disc/seq/containment.h"
#include "disc/seq/index.h"
#include "disc/seq/sequence.h"
#include "disc/seq/view.h"

namespace disc {

/// Valid one-item extensions of a pattern within one sequence.
struct ExtensionSets {
  /// True if the pattern itself is contained in the sequence. When false the
  /// item vectors are empty.
  bool contained = false;
  /// Sorted, distinct items z such that (pattern i-extended by z) is
  /// contained; all satisfy z > pattern.LastItem().
  std::vector<Item> i_items;
  /// Sorted, distinct items z such that (pattern s-extended by z) is
  /// contained.
  std::vector<Item> s_items;
};

/// Computes the extension sets of `pattern` in `s`. An empty pattern is
/// contained everywhere; its s-extensions are all distinct items of `s`
/// (1-sequences) and it has no i-extensions.
ExtensionSets ScanExtensions(SequenceView s, const Sequence& pattern);

/// Result of a minimum-extension scan.
struct MinExtension {
  bool contained = false;  ///< pattern occurs in the sequence
  bool found = false;      ///< a qualifying extension exists
  Item item = kNoItem;
  ExtType type = ExtType::kSequence;
};

/// The smallest admissible item of each extension type under a floor
/// extension, in the extension order (item first, itemset form before
/// sequence form): extensions must compare >= the floor, or > it when
/// `strict`. Without a floor both are 1.
struct ExtensionFloor {
  Item s_min = 1;
  Item i_min = 1;
};
ExtensionFloor FloorMinItems(const std::pair<Item, ExtType>* floor,
                             bool strict);

/// The smaller, in the extension order, of the minimal admissible
/// i-extension item `best_i` and s-extension item `best_s` (kNoItem when a
/// type has none), with contained set.
MinExtension MinOfExtensions(Item best_i, Item best_s);

/// The minimal valid extension of `pattern` in `s` under the extension
/// order (item first, itemset form before sequence form), optionally
/// restricted to extensions comparing >= (or > when `strict`) the floor
/// extension: the first qualifying element of ScanExtensions' sets, which
/// the tests cross-check. The reference for Apriori-KMS/CKMS's cursors.
MinExtension ScanMinExtension(SequenceView s, const Sequence& pattern,
                              const std::pair<Item, ExtType>* floor = nullptr,
                              bool strict = false);

/// The leftmost-embedding ends of `child`, a one-item extension of a
/// pattern whose ends are `parent` (contained), by one index probe: an
/// s-extension (the item alone in child's last itemset) is contained iff
/// the item occurs after the parent's full end, an i-extension iff child's
/// last itemset occurs after the parent's prefix end. The first such
/// transaction is the child's full end. `index` must be built from the
/// sequence the parent's ends refer to.
EmbeddingEnds ExtendEnds(const EmbeddingEnds& parent, const Sequence& child,
                         const SequenceIndex& index);

/// The i-extension half of ForEachExtensionWithEnds: streams every valid
/// i-extension item occurrence to `fn(item)`, repeats included.
template <typename Fn>
void ForEachItemsetExtensionWithEnds(SequenceView s, const Sequence& pattern,
                                     const EmbeddingEnds& ends, Fn&& fn,
                                     const SequenceIndex* index = nullptr) {
  if (!ends.contained || pattern.Empty()) return;
  const std::uint32_t last_pt = pattern.NumTransactions() - 1;
  const Item* last_begin = pattern.TxnBegin(last_pt);
  const Item* last_end = pattern.TxnEnd(last_pt);
  const Item last_max = *(last_end - 1);
  const std::uint32_t i_from =
      ends.prefix_end == kNoTxn ? 0 : ends.prefix_end + 1;
  for (std::uint32_t t = i_from; t < s.NumTransactions(); ++t) {
    if (index != nullptr) {
      t = index->NextTxnWithItemset(t, last_begin, last_end);
      if (t == kNoTxn) break;
    } else {
      if (s.TxnSize(t) < pattern.TxnSize(last_pt) + 1) continue;
      if (*(s.TxnEnd(t) - 1) <= last_max) continue;  // nothing above max
      if (!SortedRangeIsSubset(last_begin, last_end, s.TxnBegin(t),
                               s.TxnEnd(t))) {
        continue;
      }
    }
    for (const Item* p =
             std::upper_bound(s.TxnBegin(t), s.TxnEnd(t), last_max);
         p != s.TxnEnd(t); ++p) {
      fn(*p);
    }
  }
}

/// Streams every valid extension occurrence to `fn(item, type)` WITHOUT
/// deduplication (an item may be reported several times). The distinct set
/// of reported pairs equals ScanExtensions' sets; consumers that are
/// idempotent per item (CountingArray, min-tracking) use this to skip the
/// sort-unique cost.
template <typename Fn>
void ForEachExtensionWithEnds(SequenceView s, const Sequence& pattern,
                              const EmbeddingEnds& ends, Fn&& fn,
                              const SequenceIndex* index = nullptr) {
  if (!ends.contained) return;
  const std::uint32_t s_from =
      ends.full_end == kNoTxn ? 0 : ends.full_end + 1;
  for (std::uint32_t t = s_from; t < s.NumTransactions(); ++t) {
    for (const Item* p = s.TxnBegin(t); p != s.TxnEnd(t); ++p) {
      fn(*p, ExtType::kSequence);
    }
  }
  ForEachItemsetExtensionWithEnds(
      s, pattern, ends, [&fn](Item x) { fn(x, ExtType::kItemset); }, index);
}

template <typename Fn>
void ForEachExtension(SequenceView s, const Sequence& pattern, Fn&& fn,
                      const SequenceIndex* index = nullptr) {
  ForEachExtensionWithEnds(s, pattern, LeftmostEnds(s, pattern, index),
                           static_cast<Fn&&>(fn), index);
}

/// ForEachExtension(s, ⟨(x)⟩) in one pass over `s` from `first_txn`, the
/// leftmost transaction holding x: the same (item, type) occurrences,
/// repeats included, in another order. `s` must contain x, and `first_txn`
/// is its recorded level-1 projection point (FirstLevelMember,
/// core/first_level.h), so no scan searches for x again. That transaction
/// reports its items above x as i-extensions; each later transaction
/// reports every item as an s-extension and, when it holds x, each item
/// above x as an i-extension too. A one-itemset pattern has no prefix end,
/// so the generic scan walks `s` once to embed x, once for the
/// s-extensions and once more from transaction 0 for the i-extensions; a
/// root child's counting scan (§3.1) runs this form instead.
template <typename Fn>
void ForEachExtensionOfItem(SequenceView s, Item x, std::uint32_t first_txn,
                            Fn&& fn) {
  DISC_DCHECK(s.TxnContains(first_txn, x));
  const std::uint32_t n = s.NumTransactions();
  std::uint32_t t = first_txn;
  const Item* p = std::upper_bound(s.TxnBegin(t), s.TxnEnd(t), x);
  for (; p != s.TxnEnd(t); ++p) fn(*p, ExtType::kItemset);
  for (++t; t < n; ++t) {
    const Item* const end = s.TxnEnd(t);
    for (p = s.TxnBegin(t); p != end && *p < x; ++p) {
      fn(*p, ExtType::kSequence);
    }
    if (p != end && *p == x) {
      fn(x, ExtType::kSequence);
      for (++p; p != end; ++p) {
        fn(*p, ExtType::kSequence);
        fn(*p, ExtType::kItemset);
      }
    }
    for (; p != end; ++p) fn(*p, ExtType::kSequence);
  }
}

}  // namespace disc

#endif  // DISC_SEQ_EXTENSION_H_
