#include "disc/seq/extension.h"

#include "disc/common/check.h"
#include "disc/seq/containment.h"

namespace disc {
namespace {

void SortUnique(std::vector<Item>* v) {
  std::sort(v->begin(), v->end());
  v->erase(std::unique(v->begin(), v->end()), v->end());
}

// Minimum admissible item per extension type, derived from the floor under
// the (item, itemset-before-sequence) extension order. Shared by the scan
// and the set-based lookup so the two can never diverge.
void FloorMinItems(const std::pair<Item, ExtType>* floor, bool strict,
                   Item* s_min_item, Item* i_min_item) {
  *s_min_item = 1;
  *i_min_item = 1;
  if (floor == nullptr) return;
  const Item y = floor->first;
  if (floor->second == ExtType::kSequence) {
    *s_min_item = strict ? y + 1 : y;
    *i_min_item = y + 1;  // (y, I) < (y, S): equality never qualifies
  } else {
    *s_min_item = y;  // (y, S) > (y, I) even when strict
    *i_min_item = strict ? y + 1 : y;
  }
}

}  // namespace

EmbeddingEnds LeftmostEnds(SequenceView s, const Sequence& pattern,
                           const SequenceIndex* index) {
  EmbeddingEnds ends;
  if (pattern.Empty()) {
    ends.contained = true;
    return ends;
  }
  std::uint32_t next = 0;
  std::uint32_t prev = kNoTxn;
  std::uint32_t last = kNoTxn;
  for (std::uint32_t pt = 0; pt < pattern.NumTransactions(); ++pt) {
    const std::uint32_t t =
        index != nullptr
            ? index->NextTxnWithItemset(next, pattern.TxnBegin(pt),
                                        pattern.TxnEnd(pt))
            : FindTxnWithItemset(s, next, pattern.TxnBegin(pt),
                                 pattern.TxnEnd(pt));
    if (t == kNoTxn) return ends;  // not contained
    prev = last;
    last = t;
    next = t + 1;
  }
  ends.contained = true;
  ends.full_end = last;
  ends.prefix_end = pattern.NumTransactions() == 1 ? kNoTxn : prev;
  return ends;
}

ExtensionSets ScanExtensions(SequenceView s, const Sequence& pattern) {
  ExtensionSets out;
  ScanExtensionsWithEnds(s, pattern, LeftmostEnds(s, pattern), nullptr,
                         &out);
  return out;
}

void ScanExtensionsWithEnds(SequenceView s, const Sequence& pattern,
                            const EmbeddingEnds& ends,
                            const SequenceIndex* index, ExtensionSets* out) {
  out->contained = ends.contained;
  out->i_items.clear();
  out->s_items.clear();
  if (!ends.contained) return;
  const std::uint32_t s_from =
      ends.full_end == kNoTxn ? 0 : ends.full_end + 1;
  if (index != nullptr) {
    // The s-set is every item occurring after the embedding's end: the
    // index rows ending there or later, already ascending and distinct.
    index->AppendItemsFrom(s_from, &out->s_items);
  } else {
    for (std::uint32_t t = s_from; t < s.NumTransactions(); ++t) {
      out->s_items.insert(out->s_items.end(), s.TxnBegin(t), s.TxnEnd(t));
    }
    SortUnique(&out->s_items);
  }
  // The i-set holds only items above the last itemset's maximum, in the
  // few transactions containing that itemset: cheap to sort.
  ForEachItemsetExtensionWithEnds(
      s, pattern, ends, [out](Item x) { out->i_items.push_back(x); }, index);
  SortUnique(&out->i_items);
}

MinExtension ScanMinExtension(SequenceView s, const Sequence& pattern,
                              const std::pair<Item, ExtType>* floor,
                              bool strict, const SequenceIndex* index) {
  return MinExtensionWithEnds(s, pattern, LeftmostEnds(s, pattern, index),
                              floor, strict, index);
}

MinExtension MinExtensionWithEnds(SequenceView s, const Sequence& pattern,
                                  const EmbeddingEnds& ends,
                                  const std::pair<Item, ExtType>* floor,
                                  bool strict, const SequenceIndex* index) {
  MinExtension out;
  Item s_min_item, i_min_item;
  FloorMinItems(floor, strict, &s_min_item, &i_min_item);

  if (!ends.contained) return out;
  out.contained = true;

  // Minimal s-extension: smallest item >= s_min_item in any transaction
  // strictly after the pattern's leftmost end. Unconstrained queries come
  // straight from the index's suffix-minimum table.
  Item best_s = kNoItem;
  const std::uint32_t s_from =
      ends.full_end == kNoTxn ? 0 : ends.full_end + 1;
  if (index != nullptr && s_min_item == 1) {
    best_s = index->SuffixMinItem(s_from);
  } else {
    for (std::uint32_t t = s_from; t < s.NumTransactions(); ++t) {
      const Item* p =
          std::lower_bound(s.TxnBegin(t), s.TxnEnd(t), s_min_item);
      if (p != s.TxnEnd(t) && (best_s == kNoItem || *p < best_s)) {
        best_s = *p;
      }
    }
  }

  // Minimal i-extension: smallest admissible item above the last itemset's
  // maximum in a transaction containing that itemset, positioned after the
  // prefix's leftmost end. With an index, only matching transactions are
  // visited; the cheap item probe always runs before the subset test.
  Item best_i = kNoItem;
  if (!pattern.Empty()) {
    const std::uint32_t last_pt = pattern.NumTransactions() - 1;
    const Item* last_begin = pattern.TxnBegin(last_pt);
    const Item* last_end = pattern.TxnEnd(last_pt);
    Item lo = *(last_end - 1) + 1;
    if (lo < i_min_item) lo = i_min_item;
    const std::uint32_t i_from =
        ends.prefix_end == kNoTxn ? 0 : ends.prefix_end + 1;
    for (std::uint32_t t = i_from; t < s.NumTransactions(); ++t) {
      if (index != nullptr) {
        t = index->NextTxnWithItemset(t, last_begin, last_end);
        if (t == kNoTxn) break;
        const Item* p = std::lower_bound(s.TxnBegin(t), s.TxnEnd(t), lo);
        if (p != s.TxnEnd(t) && (best_i == kNoItem || *p < best_i)) {
          best_i = *p;
        }
        continue;
      }
      const Item* p = std::lower_bound(s.TxnBegin(t), s.TxnEnd(t), lo);
      if (p == s.TxnEnd(t)) continue;
      if (best_i != kNoItem && *p >= best_i) continue;
      if (!SortedRangeIsSubset(last_begin, last_end, s.TxnBegin(t),
                               s.TxnEnd(t))) {
        continue;
      }
      best_i = *p;
    }
  }

  if (best_i != kNoItem &&
      (best_s == kNoItem ||
       CompareExtensions(best_i, ExtType::kItemset, best_s,
                         ExtType::kSequence) < 0)) {
    out.found = true;
    out.item = best_i;
    out.type = ExtType::kItemset;
  } else if (best_s != kNoItem) {
    out.found = true;
    out.item = best_s;
    out.type = ExtType::kSequence;
  }
  return out;
}

MinExtension MinExtensionFromSets(const ExtensionSets& sets,
                                  const std::pair<Item, ExtType>* floor,
                                  bool strict) {
  MinExtension out;
  if (!sets.contained) return out;
  out.contained = true;
  Item s_min_item, i_min_item;
  FloorMinItems(floor, strict, &s_min_item, &i_min_item);
  // The sets are sorted and complete, so each floored minimum is one
  // binary search; the tie-break mirrors MinExtensionWithEnds exactly.
  auto si = std::lower_bound(sets.s_items.begin(), sets.s_items.end(),
                             s_min_item);
  auto ii = std::lower_bound(sets.i_items.begin(), sets.i_items.end(),
                             i_min_item);
  const Item best_s = si == sets.s_items.end() ? kNoItem : *si;
  const Item best_i = ii == sets.i_items.end() ? kNoItem : *ii;
  if (best_i != kNoItem &&
      (best_s == kNoItem ||
       CompareExtensions(best_i, ExtType::kItemset, best_s,
                         ExtType::kSequence) < 0)) {
    out.found = true;
    out.item = best_i;
    out.type = ExtType::kItemset;
  } else if (best_s != kNoItem) {
    out.found = true;
    out.item = best_s;
    out.type = ExtType::kSequence;
  }
  return out;
}

}  // namespace disc
