// The kernels of the partition recursion (paper §3.1,
// core/partition_recursion.h): child-partition enrollment, the
// customer-sequence reduction rules, and the DISC k-loop that both DISC-all
// (Figure 2, step 2.1.3.2) and Dynamic DISC-all (Appendix, step 4) run once
// partitioning stops.
#ifndef DISC_CORE_PARTITION_H_
#define DISC_CORE_PARTITION_H_

#include <cstdint>
#include <vector>

#include "disc/algo/pattern_set.h"
#include "disc/core/counting_array.h"
#include "disc/core/member.h"
#include "disc/order/compare.h"
#include "disc/seq/arena.h"
#include "disc/seq/extension.h"
#include "disc/seq/sequence.h"
#include "disc/seq/view.h"
#include "disc/seq/types.h"

namespace disc {

/// Child-partition enrollment (Figure 2, steps 2.1.2-2.1.3; Appendix,
/// step 3). The paper assigns a member to the child partition of its
/// minimum frequent extension and, once that child is mined, reassigns it
/// forward to the child of its next one, so over the whole partition a
/// member visits the child of every frequent extension it contains and no
/// other. Every child's membership is therefore fixed before any child is
/// mined, and one extension scan per member builds all of them at once
/// (DESIGN.md deviation 10).
class ChildSlots {
 public:
  /// Numbers the prefix's frequent one-item extensions `freq` (ascending,
  /// as CountingArray::FrequentExtensions returns them): extension j feeds
  /// child j. The table is sized by the largest frequent item and reused
  /// across calls, and a rebuild touches only the previous and the new
  /// entries.
  void Build(const std::vector<std::pair<Item, ExtType>>& freq);

  /// Appends `member` to (*children)[j] once for each frequent extension j
  /// of `prefix` contained in `s`, and returns whether it joined any child.
  /// `children` holds at least |freq| lists, and members are enrolled in
  /// ascending order, so each list comes out ascending.
  bool Enroll(SequenceView s, const Sequence& prefix,
              const SequenceIndex* index, std::uint32_t member,
              std::vector<std::vector<std::uint32_t>>* children) const;

 private:
  // Entry 2x + type: 1 + the child of extension (x, type), or 0 when that
  // extension is not frequent.
  std::vector<std::uint32_t> slot_;
  std::vector<std::size_t> built_;  // entries the last Build() set
};

/// Customer-sequence reduction inside a <(λ)>-partition (Figure 2, step
/// 2.1.2): keeps only the transactions from the minimum point onward and
/// drops every occurrence of an item whose applicable 2-sequence forms
/// <(λ)(x)> / <(λx)> are all non-frequent. λ itself is never dropped.
/// `counts2` must hold the partition's 2-sequence counting array. The
/// result may be empty or shorter than 3 items (the caller drops those).
/// This owning form searches for the minimum point itself and is the
/// tests' reference for ReduceCustomerSequenceInto. Neither reducer counts
/// its calls: the partition recursion publishes
/// "partition.reduced_sequences" once per root child.
Sequence ReduceCustomerSequence(SequenceView s, Item lambda,
                                const CountingArray& counts2,
                                std::uint32_t delta);

/// Allocation-free variant of ReduceCustomerSequence for the partition hot
/// path: appends the reduced sequence into `out` (a per-worker scratch
/// arena, reused across partitions) instead of materializing an owning
/// Sequence. `min_txn` is the minimum point, the leftmost transaction of
/// `s` holding λ, as the member's FirstLevelMember records it
/// (core/first_level.h), so the reduction never searches for λ. Returns
/// the reduced length; when it comes out below `min_length` the appended
/// sequence is rolled back and 0 is returned. Produces exactly the
/// sequence ReduceCustomerSequence would (the equivalence is pinned by
/// tests/partition_test.cc).
std::uint32_t ReduceCustomerSequenceInto(SequenceView s, Item lambda,
                                         std::uint32_t min_txn,
                                         const CountingArray& counts2,
                                         std::uint32_t delta,
                                         std::uint32_t min_length,
                                         SequenceArena* out);

/// Runs DISC discovery passes for k = start_k, then k+1 (or k+2 when
/// bilevel), ... until no frequent (k-1)-sequences remain or fewer than
/// delta members survive, adding every frequent sequence to `out`.
/// `sorted_list` holds the frequent (start_k - 1)-sequences of the
/// partition: one-item extensions of the partition's prefix, whose
/// leftmost embedding ends in member i are prefix_ends[i] (every member
/// contains the prefix). They seed the first pass's supporter group; each
/// pass hands the next its own (core/discovery.h). `counts` is the
/// caller's counting array, covering every item of the members: the
/// bi-level harvests reset and reuse it, so one array per worker serves
/// every pass. `locative` is DiscoveryOptions::locative.
/// "disc.iterations" counts the loop's iterations.
void RunDiscLoop(const PartitionMembers& members,
                 std::vector<Sequence> sorted_list,
                 const std::vector<EmbeddingEnds>& prefix_ends,
                 std::uint32_t start_k, std::uint32_t delta, bool bilevel,
                 std::uint32_t max_length, CountingArray* counts,
                 PatternSet* out, bool locative = true);

}  // namespace disc

#endif  // DISC_CORE_PARTITION_H_
