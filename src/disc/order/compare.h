// The comparative order on sequences (paper Definitions 2.1/2.2).
//
// Renumber transactions left to right and view a sequence as its flattened
// list of (item, transaction-number) tokens; compare two sequences
// positionwise-lexicographically on those tokens: at the first position
// whose token differs (the paper's *differential point*), the smaller item
// wins, and on equal items the earlier transaction wins — exactly
// Definition 2.2's conditions (a)/(b). (Definition 2.1(b) literally demands
// that item AND number both differ at the point, which we read as "the
// token differs"; a couple of the paper's worked examples also contradict
// each other — see DESIGN.md deviation 1.) A proper prefix precedes its
// extensions.
//
// The property the DISC lemmas and Apriori-KMS/CKMS actually rely on is
// *prefix-compatibility*: if F < F' for two (k-1)-sequences, every one-item
// extension of F precedes every one-item extension of F'. Positionwise
// lexicographic orders have it by construction (the deciding position of
// F vs F' is never the appended one); tests/order_property_test.cc checks
// it, and the intro examples <(a)(b)(h)> < <(a)(c)(f)> and <(a,b)(c)> <
// <(a)(b,c)> as well as the sorted databases of Tables 3 and 8-10 all come
// out as printed. (A plausible alternative — compare the whole item list
// first and use transaction numbers only as a global tiebreak — is NOT
// prefix-compatible and sends the CKMS list walk into a livelock; the
// regression test Order.GlobalItemTiebreakWouldBreakPrefixCompat pins the
// counterexample.)
#ifndef DISC_ORDER_COMPARE_H_
#define DISC_ORDER_COMPARE_H_

#include "disc/seq/sequence.h"
#include "disc/seq/view.h"

namespace disc {

/// Three-way comparison: negative if a < b, 0 if equal, positive if a > b.
int CompareSequences(SequenceView a, SequenceView b);

/// Strict-less predicate usable as a map/sort comparator.
struct SequenceLess {
  bool operator()(SequenceView a, SequenceView b) const {
    return CompareSequences(a, b) < 0;
  }
};

/// How a pattern grows by one item.
enum class ExtType : std::uint8_t {
  kItemset = 0,   // i-extension: item joins the last itemset
  kSequence = 1,  // s-extension: item opens a new transaction
};

/// Three-way comparison of two one-item extensions of the *same* pattern:
/// order by item first, then i-extension before s-extension (the
/// i-extension's final transaction number is smaller). Consistent with
/// CompareSequences applied to the extended patterns. Inline: it decides
/// every rank-key comparison of the k-sorted database (core/rank_key.h).
inline int CompareExtensions(Item item_a, ExtType type_a, Item item_b,
                             ExtType type_b) {
  if (item_a != item_b) return item_a < item_b ? -1 : 1;
  if (type_a != type_b) return type_a == ExtType::kItemset ? -1 : 1;
  return 0;
}

/// Applies an extension, returning the grown pattern.
Sequence Extend(const Sequence& pattern, Item item, ExtType type);

}  // namespace disc

#endif  // DISC_ORDER_COMPARE_H_
