// Frequent k-sequence discovery (paper Figure 4): the DISC strategy's inner
// loop, plus the bi-level technique of §3.2 that additionally harvests the
// frequent (k+1)-sequences from the virtual partitions in the same pass.
//
// Given the members of a partition and the sorted list of frequent
// (k-1)-sequences, the loop maintains a k-sorted database and repeats:
//
//   α₁ == α_δ  ->  α₁ is frequent with support = |min bucket| (Lemma 2.1);
//                  advance the bucket entries past α_δ (strict);
//   α₁ != α_δ  ->  everything in [α₁, α_δ) is non-frequent (Lemma 2.2);
//                  advance all entries below α_δ to >= α_δ (non-strict);
//
// until fewer than δ sequences remain. No support count of a non-frequent
// k-sequence is ever computed. Keys are rank keys (core/rank_key.h); a
// key becomes a Sequence only when its bucket is emitted as frequent. The
// k-sorted database is a flat locative run (core/ksorted.h): α₁ and α_δ
// are array reads, and each iteration's advanced batch merges back into
// the slots its pop freed.
//
// By Lemma 2.1 a frequent bucket is exactly α₁'s supporters, so the loop
// also builds the next pass's supporter groups (core/kms.h) as it pops:
// with bi-level, α₁'s frequent (k+1)-extensions form one group with parent
// α₁; without, each frequent k-sequence is a group whose parent is its
// (k-1)-prefix. Every popped member gets the group with its leftmost
// embedding ends of the parent: with bi-level, the ends the harvest
// computes by one probe from the member's landed prefix; without, the
// landed prefix's own ends (DESIGN.md deviation 11).
#ifndef DISC_CORE_DISCOVERY_H_
#define DISC_CORE_DISCOVERY_H_

#include <cstdint>
#include <vector>

#include "disc/core/counting_array.h"
#include "disc/core/kms.h"
#include "disc/core/member.h"
#include "disc/seq/sequence.h"
#include "disc/seq/types.h"

namespace disc {

/// Options for one discovery pass.
struct DiscoveryOptions {
  std::uint32_t k = 0;       ///< pattern length this pass discovers
  std::uint32_t delta = 1;   ///< minimum support count
  bool bilevel = false;      ///< also harvest frequent (k+1)-sequences
  /// Keep the k-sorted database in order by merging each advanced batch
  /// into the locative run (core/ksorted.h), the job the paper gives its
  /// locative AVL tree (§3.2). When false, the whole live run is re-sorted
  /// after every advance batch — the naive strategy, kept as Ablation C
  /// (bench_ablations) and differential oracle. Results are identical
  /// either way.
  bool locative = true;
};

/// Output of one discovery pass.
struct DiscoveryResult {
  /// Frequent k-sequences with exact supports, ascending.
  std::vector<std::pair<Sequence, std::uint32_t>> frequent_k;
  /// Frequent (k+1)-sequences (bi-level only), ascending.
  std::vector<std::pair<Sequence, std::uint32_t>> frequent_k1;
  /// Iterations of the DISC loop (instrumentation: how many comparisons of
  /// α₁ with α_δ were made).
  std::uint64_t iterations = 0;
  /// Supporter groups of the next pass's list (frequent_k1 with bi-level,
  /// frequent_k without) over the same members.
  SupporterGroups next_groups;
};

/// Runs the DISC discovery loop over `members`. `sorted_list` holds the
/// frequent (k-1)-sequences of this partition, ascending; every frequent
/// k-sequence of the partition extends one of them (anti-monotone
/// property). `counts` is the caller's counting array, covering every item
/// of the members; the bi-level harvests reset and reuse it, and it may be
/// null when options.bilevel is false. `groups` are the supporter groups
/// of `sorted_list` over `members`: the previous pass's next_groups, or
/// SupporterGroups::OneGroup for a first pass. Every member carries its
/// index.
DiscoveryResult DiscoverFrequentK(const PartitionMembers& members,
                                  const std::vector<Sequence>& sorted_list,
                                  const DiscoveryOptions& options,
                                  CountingArray* counts,
                                  const SupporterGroups& groups);

}  // namespace disc

#endif  // DISC_CORE_DISCOVERY_H_
