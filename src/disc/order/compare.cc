#include "disc/order/compare.h"

#include <algorithm>

#include "disc/common/check.h"
#include "disc/obs/metrics.h"

namespace disc {

int CompareSequences(SequenceView a, SequenceView b) {
  DISC_OBS_COUNTER(g_seq_compares, "order.seq_compares");
  DISC_OBS_INC(g_seq_compares);
  const Item* ia = a.ItemsBegin();
  const Item* ib = b.ItemsBegin();
  const std::uint32_t n = std::min(a.Length(), b.Length());
  // Positionwise lexicographic comparison of (item, transaction-number)
  // tokens — Definition 2.2 at the differential point (the first position
  // where the token differs). The transaction cursors advance in O(1)
  // amortized per position.
  std::uint32_t ta = 0;
  std::uint32_t tb = 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    if (ia[i] != ib[i]) return ia[i] < ib[i] ? -1 : 1;
    while (a.TxnEndPos(ta) <= i) ++ta;
    while (b.TxnEndPos(tb) <= i) ++tb;
    if (ta != tb) return ta < tb ? -1 : 1;
  }
  if (a.Length() != b.Length()) return a.Length() < b.Length() ? -1 : 1;
  return 0;
}

Sequence Extend(const Sequence& pattern, Item item, ExtType type) {
  Sequence out = pattern;
  if (type == ExtType::kItemset) {
    DISC_CHECK_MSG(!pattern.Empty(), "cannot i-extend an empty pattern");
    out.AppendToLastItemset(item);
  } else {
    out.AppendNewItemset(item);
  }
  return out;
}

}  // namespace disc
