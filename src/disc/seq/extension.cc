#include "disc/seq/extension.h"

#include "disc/common/check.h"

namespace disc {
namespace {

void SortUnique(std::vector<Item>* v) {
  std::sort(v->begin(), v->end());
  v->erase(std::unique(v->begin(), v->end()), v->end());
}

}  // namespace

EmbeddingEnds ExtendEnds(const EmbeddingEnds& parent, const Sequence& child,
                         const SequenceIndex& index) {
  DISC_DCHECK(parent.contained);
  DISC_DCHECK(!child.Empty());
  const std::uint32_t last = child.NumTransactions() - 1;
  const Item* begin = child.TxnBegin(last);
  const Item* end = child.TxnEnd(last);
  // An s-extension's new itemset must follow the whole parent; an
  // i-extension's grown itemset must follow the parent's other itemsets,
  // which the parent's leftmost embedding places as early as possible.
  const std::uint32_t anchor =
      end - begin == 1 ? parent.full_end : parent.prefix_end;
  const std::uint32_t t = index.NextTxnWithItemset(
      anchor == kNoTxn ? 0 : anchor + 1, begin, end);
  if (t == kNoTxn) return EmbeddingEnds{};
  return EmbeddingEnds{true, t, anchor};
}

ExtensionSets ScanExtensions(SequenceView s, const Sequence& pattern) {
  ExtensionSets out;
  const EmbeddingEnds ends = LeftmostEnds(s, pattern);
  out.contained = ends.contained;
  if (!ends.contained) return out;
  const std::uint32_t s_from =
      ends.full_end == kNoTxn ? 0 : ends.full_end + 1;
  for (std::uint32_t t = s_from; t < s.NumTransactions(); ++t) {
    out.s_items.insert(out.s_items.end(), s.TxnBegin(t), s.TxnEnd(t));
  }
  SortUnique(&out.s_items);
  ForEachItemsetExtensionWithEnds(
      s, pattern, ends, [&out](Item x) { out.i_items.push_back(x); });
  SortUnique(&out.i_items);
  return out;
}

ExtensionFloor FloorMinItems(const std::pair<Item, ExtType>* floor,
                             bool strict) {
  ExtensionFloor out;
  if (floor == nullptr) return out;
  const Item y = floor->first;
  if (floor->second == ExtType::kSequence) {
    out.s_min = strict ? y + 1 : y;
    out.i_min = y + 1;  // (y, I) < (y, S): equality never qualifies
  } else {
    out.s_min = y;  // (y, S) > (y, I) even when strict
    out.i_min = strict ? y + 1 : y;
  }
  return out;
}

MinExtension MinOfExtensions(Item best_i, Item best_s) {
  MinExtension out;
  out.contained = true;
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

MinExtension ScanMinExtension(SequenceView s, const Sequence& pattern,
                              const std::pair<Item, ExtType>* floor,
                              bool strict) {
  const EmbeddingEnds ends = LeftmostEnds(s, pattern);
  if (!ends.contained) return MinExtension{};
  const ExtensionFloor f = FloorMinItems(floor, strict);

  // Minimal s-extension: smallest item >= f.s_min in any transaction
  // strictly after the pattern's leftmost end.
  Item best_s = kNoItem;
  const std::uint32_t s_from =
      ends.full_end == kNoTxn ? 0 : ends.full_end + 1;
  for (std::uint32_t t = s_from; t < s.NumTransactions(); ++t) {
    const Item* p = std::lower_bound(s.TxnBegin(t), s.TxnEnd(t), f.s_min);
    if (p != s.TxnEnd(t) && (best_s == kNoItem || *p < best_s)) {
      best_s = *p;
    }
  }

  // Minimal i-extension: smallest admissible item above the last itemset's
  // maximum in a transaction containing that itemset, positioned after the
  // prefix's leftmost end.
  Item best_i = kNoItem;
  if (!pattern.Empty()) {
    const Item last_max = pattern.LastItem();
    const Item lo = std::max<Item>(last_max + 1, f.i_min);
    ForEachItemsetExtensionWithEnds(s, pattern, ends, [lo, &best_i](Item x) {
      if (x >= lo && (best_i == kNoItem || x < best_i)) best_i = x;
    });
  }
  return MinOfExtensions(best_i, best_s);
}

}  // namespace disc
