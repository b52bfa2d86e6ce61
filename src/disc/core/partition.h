// Shared machinery for the multi-level partitioning scheme (paper §3.1):
// frequent-extension filters, second-level partition keys, the
// customer-sequence reduction rules, and the DISC k-loop that both DISC-all
// (Figure 2, step 2.1.3.2) and Dynamic DISC-all (Appendix, step 4) run once
// partitioning stops.
#ifndef DISC_CORE_PARTITION_H_
#define DISC_CORE_PARTITION_H_

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "disc/algo/pattern_set.h"
#include "disc/common/check.h"
#include "disc/core/counting_array.h"
#include "disc/core/member.h"
#include "disc/order/compare.h"
#include "disc/seq/arena.h"
#include "disc/seq/extension.h"
#include "disc/seq/sequence.h"
#include "disc/seq/view.h"
#include "disc/seq/types.h"

namespace disc {

/// Membership filter over the frequent one-item extensions of a fixed
/// prefix: answers "is (item, type) frequent?" in O(1).
class ExtFilter {
 public:
  /// Builds the filter for the given frequent extensions; items must not
  /// exceed max_item.
  void Build(const std::vector<std::pair<Item, ExtType>>& frequent_exts,
             Item max_item);

  bool IsFrequent(Item x, ExtType type) const {
    return type == ExtType::kItemset ? i_ok_[x] : s_ok_[x];
  }

 private:
  std::vector<bool> i_ok_, s_ok_;
};

/// Position of `e` in `exts`, which must hold it and be sorted in the
/// extension order (as FrequentExtensions returns them): the slot of e's
/// child partition in a table indexed like `exts`.
inline std::size_t ExtIndex(const std::vector<std::pair<Item, ExtType>>& exts,
                            const std::pair<Item, ExtType>& e) {
  const auto it = std::lower_bound(
      exts.begin(), exts.end(), e, [](const auto& a, const auto& b) {
        return CompareExtensions(a.first, a.second, b.first, b.second) < 0;
      });
  DISC_DCHECK(it != exts.end() && *it == e);
  return static_cast<std::size_t>(it - exts.begin());
}

/// The minimum *frequent* extension of a prefix present in the extension
/// sets, optionally restricted to extensions strictly greater than `floor`.
/// This is the partition key ("2-minimum sequence" at level 2) and, with a
/// floor, the "next 2-minimum sequence" used for reassignment.
std::optional<std::pair<Item, ExtType>> MinFrequentExt(
    const ExtensionSets& exts, const ExtFilter& filter,
    const std::pair<Item, ExtType>* floor_exclusive);

/// Single-scan variant: computes the same minimum directly from the
/// customer sequence without materializing the extension sets.
std::optional<std::pair<Item, ExtType>> ScanMinFrequentExt(
    SequenceView s, const Sequence& prefix, const ExtFilter& filter,
    const std::pair<Item, ExtType>* floor_exclusive,
    const SequenceIndex* index = nullptr);

/// Customer-sequence reduction inside a <(λ)>-partition (Figure 2, step
/// 2.1.2): keeps only the transactions from the minimum point onward and
/// drops every occurrence of an item whose applicable 2-sequence forms
/// <(λ)(x)> / <(λx)> are all non-frequent. λ itself is never dropped.
/// `counts2` must hold the partition's 2-sequence counting array. The
/// result may be empty or shorter than 3 items (the caller drops those).
Sequence ReduceCustomerSequence(SequenceView s, Item lambda,
                                const CountingArray& counts2,
                                std::uint32_t delta);

/// Allocation-free variant of ReduceCustomerSequence for the partition hot
/// path: appends the reduced sequence into `out` (a per-worker scratch
/// arena, reused across partitions) instead of materializing an owning
/// Sequence. Returns the reduced length; when it comes out below
/// `min_length` the appended sequence is rolled back and 0 is returned.
/// Produces exactly the sequence ReduceCustomerSequence would (the
/// equivalence is pinned by tests/partition_test.cc).
std::uint32_t ReduceCustomerSequenceInto(SequenceView s, Item lambda,
                                         const CountingArray& counts2,
                                         std::uint32_t delta,
                                         std::uint32_t min_length,
                                         SequenceArena* out);

/// Runs DISC discovery passes for k = start_k, then k+1 (or k+2 when
/// bilevel), ... until no frequent (k-1)-sequences remain or fewer than
/// delta members survive, adding every frequent sequence to `out`.
/// `sorted_list` holds the frequent (start_k - 1)-sequences of the
/// partition. "disc.iterations" counts the loop's iterations.
void RunDiscLoop(const PartitionMembers& members,
                 std::vector<Sequence> sorted_list, std::uint32_t start_k,
                 std::uint32_t delta, bool bilevel, Item max_item,
                 std::uint32_t max_length, PatternSet* out,
                 bool use_avl = true);

}  // namespace disc

#endif  // DISC_CORE_PARTITION_H_
