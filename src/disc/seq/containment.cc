#include "disc/seq/containment.h"

namespace disc {

std::uint32_t FindTxnWithItemset(SequenceView s, std::uint32_t start_txn,
                                 const Item* begin, const Item* end) {
  for (std::uint32_t t = start_txn; t < s.NumTransactions(); ++t) {
    if (SortedRangeIsSubset(begin, end, s.TxnBegin(t), s.TxnEnd(t))) return t;
  }
  return kNoTxn;
}

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

bool Contains(SequenceView s, const Sequence& pattern) {
  return LeftmostEnds(s, pattern).contained;
}

std::uint32_t CountSupport(const SequenceDatabase& db,
                           const Sequence& pattern) {
  std::uint32_t count = 0;
  for (const SequenceView s : db) {
    if (Contains(s, pattern)) ++count;
  }
  return count;
}

}  // namespace disc
