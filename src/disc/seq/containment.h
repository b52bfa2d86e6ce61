// Subsequence containment and leftmost (greedy) embeddings.
//
// Sequence A is contained in B if there are transactions i1 < i2 < ... < in
// of B with every itemset of A a subset of the corresponding transaction.
// The greedy embedding — match each itemset of the pattern into the earliest
// feasible transaction — minimizes every matched transaction index
// simultaneously (standard exchange argument), which is what the k-minimum
// machinery relies on.
#ifndef DISC_SEQ_CONTAINMENT_H_
#define DISC_SEQ_CONTAINMENT_H_

#include <cstdint>

#include "disc/seq/database.h"
#include "disc/seq/index.h"
#include "disc/seq/sequence.h"
#include "disc/seq/view.h"

namespace disc {

/// Earliest transaction >= start_txn of s whose itemset contains
/// [begin, end); kNoTxn if none. [begin, end) must be sorted.
std::uint32_t FindTxnWithItemset(SequenceView s, std::uint32_t start_txn,
                                 const Item* begin, const Item* end);

/// Leftmost-embedding endpoints of a pattern: the shared first step of
/// every extension scan. For an empty pattern both ends are kNoTxn with
/// contained == true. `index` (when non-null, built from `s`) turns each
/// embedding step into binary-search jumps.
struct EmbeddingEnds {
  bool contained = false;
  std::uint32_t full_end = kNoTxn;    ///< end txn of the whole pattern
  std::uint32_t prefix_end = kNoTxn;  ///< end txn of all itemsets but last
};
EmbeddingEnds LeftmostEnds(SequenceView s, const Sequence& pattern,
                           const SequenceIndex* index = nullptr);

/// True if `pattern` is a subsequence of `s`.
bool Contains(SequenceView s, const Sequence& pattern);

/// Number of database sequences containing `pattern` (each counted once).
std::uint32_t CountSupport(const SequenceDatabase& db, const Sequence& pattern);

}  // namespace disc

#endif  // DISC_SEQ_CONTAINMENT_H_
