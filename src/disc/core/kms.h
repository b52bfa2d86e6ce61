// Apriori-KMS and Apriori-CKMS (paper Figures 5 and 6): generation of the
// (conditional) k-minimum subsequence of a customer sequence, restricted to
// k-sequences whose (k-1)-prefix is frequent.
//
// Both walk the sorted list of frequent (k-1)-sequences ("the (k-1)-sorted
// list") from the smallest qualifying entry; for the first entry F that is
// contained in the customer sequence and admits a valid extension, the
// minimum extension of F is the answer — prefix-compatibility of the
// comparative order guarantees no later entry can beat it.
//
// The walk visits only entries the member can contain (DESIGN.md deviation
// 11). A pass's list is cut into supporter groups: contiguous runs of
// entries that each extend one parent by one item. The previous pass's
// buckets hand every member the groups whose parent it contains, with the
// parent's leftmost embedding ends (SupporterGroups), so an entry is tested
// by one index probe from those ends (ExtendEnds) and the probe's answer is
// the entry's own leftmost end. A first pass's list is one group under the
// partition's prefix (SupporterGroups::OneGroup).
//
// Once the walk lands on an entry, the entry's extension sets are read
// through forward-only cursors (KmsScanState): the s-set in place from the
// occurrence index's rows, the i-set gathered once. The minimum extension
// of F comes from the complete extension sets, not from "the minimum item
// right of the leftmost matching point" as printed in the paper; the
// printed rule misses itemset extensions reachable only through non-leftmost
// embeddings (DESIGN.md deviation 2). Both functions are verified against
// brute-force enumeration in tests/kms_test.cc.
#ifndef DISC_CORE_KMS_H_
#define DISC_CORE_KMS_H_

#include <cstdint>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "disc/core/rank_key.h"
#include "disc/order/compare.h"
#include "disc/seq/extension.h"
#include "disc/seq/index.h"
#include "disc/seq/sequence.h"
#include "disc/seq/view.h"

namespace disc {

/// Result of a k-minimum generation.
struct KmsResult {
  /// False when the sequence admits no qualifying k-subsequence (the
  /// customer sequence leaves the k-sorted database).
  bool found = false;
  /// The (conditional) k-minimum subsequence, as a key over the sorted
  /// list; key.prefix is the paper's "apriori pointer".
  RankKey key;
};

/// Work tallies of the list walks, kept in plain locals by their owner (the
/// k-sorted database keeps one per pass) and published once by Flush() to
/// the "kms.*" counters of the same names: Apriori-KMS scans, Apriori-CKMS
/// advances, answers read from the scan state's cursors at the bound, and
/// the index probes made to test list entries (one per tested entry).
struct KmsTally {
  std::uint64_t initial_scans = 0;
  std::uint64_t ckms_advances = 0;
  std::uint64_t scan_reuses = 0;
  std::uint64_t embed_itemsets = 0;

  /// Adds the tallies to the registry counters and zeroes them.
  void Flush();
};

/// One of a member's supporter groups: the group's index and the leftmost
/// embedding ends of the group's parent in the member's sequence.
struct SupportedGroup {
  std::uint32_t group = 0;
  std::uint32_t full_end = kNoTxn;
  std::uint32_t prefix_end = kNoTxn;

  EmbeddingEnds parent_ends() const {
    return EmbeddingEnds{true, full_end, prefix_end};
  }
};

/// One pass's supporter groups over its sorted list, with each member's
/// groups in CSR form.
struct SupporterGroups {
  /// Group g is the list entries [begin[g], begin[g+1]), all one-item
  /// extensions of one parent sequence.
  std::vector<std::uint32_t> begin;
  /// Member m's groups (by position in the pass's PartitionMembers) are
  /// supported[offsets[m], offsets[m+1]), ascending; each is a group whose
  /// parent the member contains.
  std::vector<std::uint32_t> offsets;
  std::vector<SupportedGroup> supported;

  std::span<const SupportedGroup> Of(std::uint32_t member) const {
    return std::span<const SupportedGroup>(supported)
        .subspan(offsets[member], offsets[member + 1] - offsets[member]);
  }

  /// The first pass's groups: a list of `list_size` entries that all
  /// extend one parent (the partition's prefix), whose ends in member m are
  /// parent_ends[m]. Every member contains the parent.
  static SupporterGroups OneGroup(std::uint32_t list_size,
                                  const std::vector<EmbeddingEnds>& parent_ends);

  /// Lays out the groups of `members` members as CSR from `supports`, the
  /// (member position, group) pairs in ascending group order, so each
  /// member's groups come out ascending. `begin` is left as it is.
  void SetSupporters(
      std::size_t members,
      const std::vector<std::pair<std::uint32_t, SupportedGroup>>& supports);
};

/// Per-customer-sequence walk state, tied to one sorted list: where the
/// walk last landed, and forward-only cursors over that entry's extension
/// sets. A landing gathers once: the s-set is the occurrence index's rows
/// occurring after the entry's leftmost end, read in place through a row
/// cursor; the i-set is collected into `i_items`. Every later query against
/// the landed entry — successive CKMS advances at the same bound prefix,
/// counted as "kms.scan_reuses" — carries a floor at least the entry's
/// current key, so both cursors only move forward (DISC_DCHECKed). The
/// group cursor likewise only moves forward, because bounds only grow.
/// The k-sorted database owns one per entry and discards it with the pass.
struct KmsScanState {
  static constexpr std::uint32_t kNoIndex =
      std::numeric_limits<std::uint32_t>::max();
  std::uint32_t index = kNoIndex;  ///< sorted-list index landed on
  std::uint32_t full_end = kNoTxn;    ///< its leftmost embedding ends
  std::uint32_t prefix_end = kNoTxn;
  std::uint32_t s_row = 0;      ///< s-set cursor (SequenceIndex row)
  std::uint32_t i_pos = 0;      ///< i-set cursor into i_items
  std::vector<Item> i_items;    ///< the landed entry's i-set, ascending
  ExtensionFloor floor;         ///< the last floor asked of the cursors
  std::uint32_t group_pos = 0;  ///< cursor into the member's groups

  /// The landed entry's leftmost embedding ends.
  EmbeddingEnds ends() const {
    return EmbeddingEnds{index != kNoIndex, full_end, prefix_end};
  }
};

/// One member's walk over a pass's sorted list.
struct KmsWalk {
  SequenceView s;
  const SequenceIndex* index = nullptr;  ///< built from s; required
  const std::vector<Sequence>* list = nullptr;  ///< ascending
  const SupporterGroups* groups = nullptr;  ///< the list's; required
  std::uint32_t member = 0;  ///< the member's position in `groups`
};

/// A condition k-sequence (paper Definition 2.5) and its Ω.
struct CkmsBound {
  RankKey key;          ///< the condition k-sequence, over the sorted list
  bool strict = false;  ///< Ω: '>' when true, '>=' else
};

/// The k-minimum subsequence of the walk's sequence whose (k-1)-prefix is
/// in its list: Figure 5, over the member's groups only. `state` must be
/// fresh; it is left on the answer's prefix entry.
KmsResult AprioriKms(const KmsWalk& walk, KmsScanState* state,
                     KmsTally* tally);

/// The conditional k-minimum subsequence (Definition 2.5): the minimum
/// qualifying k-subsequence that compares > bound (strict) or >= bound.
/// Figure 6. Steps 4-7 walk the apriori pointer up to the first list entry
/// at or above the bound's prefix; with rank keys that entry is
/// bound.key.prefix itself, so the scan starts there. `state` must be
/// fresh or come from this walk's earlier calls, and then the bound must be
/// at least the key they last returned: every entry the DISC loop advances
/// holds a key at most the bound.
KmsResult AprioriCkms(const KmsWalk& walk, const CkmsBound& bound,
                      KmsScanState* state, KmsTally* tally);

}  // namespace disc

#endif  // DISC_CORE_KMS_H_
