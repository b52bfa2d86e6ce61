// PrefixSpan (Pei et al., ICDE 2001) — the paper's baseline — in both of the
// variants the evaluation uses:
//
//  * kPhysical: level-by-level *physical* projection; every projected
//    database materializes copies of the customer-sequence suffixes, which
//    is the cost the paper's Figure 8/9 comparisons charge to "PrefixSpan".
//  * kPseudo: pseudo-projection ("Pseudo" in the paper); projected databases
//    are (sequence, transaction, offset) pointers into the original
//    database, so no copying happens as long as everything fits in memory.
//
// Both variants share one recursion; extension counting follows the
// standard postfix rules (items after the projection point extend the last
// itemset; a later transaction containing the whole last itemset contributes
// its larger items as itemset extensions; any item in a strictly later
// transaction is a sequence extension). Each node counts those extensions
// with the counting array of paper §3.1 (core/counting_array.h), the one
// DISC counts with; a node's points are distinct customers, so a point's
// index serves as its CID. The frequent items and the customers of each
// come from the first-level scans DISC's root uses (core/first_level.h),
// so building the level-1 projections costs two passes over the database
// rather than one per frequent item.
#ifndef DISC_ALGO_PREFIXSPAN_H_
#define DISC_ALGO_PREFIXSPAN_H_

#include "disc/algo/miner.h"

namespace disc {

/// PrefixSpan frequent-sequence miner. See file comment.
class PrefixSpan : public Miner {
 public:
  enum class Projection { kPhysical, kPseudo };

  explicit PrefixSpan(Projection mode) : mode_(mode) {}

  std::string name() const override {
    return mode_ == Projection::kPhysical ? "prefixspan" : "pseudo";
  }

 protected:
  PatternSet DoMine(const SequenceDatabase& db,
                    const MineOptions& options) override;

 private:
  Projection mode_;
};

}  // namespace disc

#endif  // DISC_ALGO_PREFIXSPAN_H_
