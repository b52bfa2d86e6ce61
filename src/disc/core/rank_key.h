// Rank keys: the k-sorted database's keys as three integers.
//
// Every key a discovery pass handles — a k-minimum subsequence, a CKMS
// bound, α₁, α_δ — is some sorted_list[p] ⊕ (x, t): a frequent
// (k-1)-sequence from the pass's ascending sorted list, extended by one
// item. The comparative order is prefix-compatible (order/compare.h), so
// for two such keys the prefix index decides first, and on equal prefixes
// CompareExtensions' item-then-itemset-first rule decides. Comparing
// (p, x, t) lexicographically is therefore exactly CompareSequences on the
// extended sequences (tests/order_property_test.cc fuzzes the agreement),
// and a key becomes a Sequence only when a frequent one is emitted.
#ifndef DISC_CORE_RANK_KEY_H_
#define DISC_CORE_RANK_KEY_H_

#include <cstdint>
#include <vector>

#include "disc/order/compare.h"
#include "disc/seq/sequence.h"
#include "disc/seq/types.h"

namespace disc {

/// sorted_list[prefix] ⊕ (item, type). `prefix` is the paper's "apriori
/// pointer" (Figure 6): the index of the key's (k-1)-prefix in the list.
struct RankKey {
  std::uint32_t prefix = 0;
  Item item = kNoItem;
  ExtType type = ExtType::kSequence;

  friend bool operator==(const RankKey&, const RankKey&) = default;
};

/// Three-way comparison of two keys over the same sorted list: the
/// comparative order of the sequences they stand for.
inline int CompareRankKeys(const RankKey& a, const RankKey& b) {
  if (a.prefix != b.prefix) return a.prefix < b.prefix ? -1 : 1;
  return CompareExtensions(a.item, a.type, b.item, b.type);
}

/// The sequence a key stands for.
inline Sequence KeySequence(const std::vector<Sequence>& sorted_list,
                            const RankKey& key) {
  return Extend(sorted_list[key.prefix], key.item, key.type);
}

}  // namespace disc

#endif  // DISC_CORE_RANK_KEY_H_
