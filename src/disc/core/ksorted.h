// The k-sorted database (paper §1.2 / §3.2): customer sequences keyed by
// their current (conditional) k-minimum subsequence, in comparative order.
//
// Keys are rank keys over the (k-1)-sorted list (core/rank_key.h). A key's
// prefix index is the paper's "apriori pointer", so entries need no pointer
// of their own: conditional re-generation (Apriori-CKMS) resumes at the
// bound's prefix, which no advanced entry's key lies beyond.
//
// The paper indexes the database with a locative AVL tree; here it is a
// flat locative run (DESIGN.md deviation 5). The live entries are the
// ascending (key, handle) slots run_[head_, end). The DISC loop only pops
// from the front, keys only grow, and every key a batch advance
// re-generates lands at or above α_δ. So α₁ and α_δ are array reads, a pop
// moves the head cursor, and a batch advance sorts its survivors and merges
// them forward into the slots its own pop freed, touching only the
// survivors and the live entries below the largest new key.
//
// Over the pass's supporter groups (core/kms.h), each entry's walks visit
// only the list entries it can contain, testing each with one index probe,
// and a member with no group never enters. After a frequent bucket pops,
// LandedEnds() gives each popped entry's leftmost embedding of α₁'s
// prefix, from which the DISC loop derives the next pass's groups.
#ifndef DISC_CORE_KSORTED_H_
#define DISC_CORE_KSORTED_H_

#include <cstdint>
#include <span>
#include <vector>

#include "disc/common/check.h"
#include "disc/core/kms.h"
#include "disc/core/member.h"
#include "disc/core/rank_key.h"
#include "disc/seq/sequence.h"
#include "disc/seq/types.h"

namespace disc {

/// One customer sequence's slot in a k-sorted database.
struct KSortedEntry {
  SequenceView seq;               ///< the customer sequence (not owned)
  Cid cid = 0;                    ///< caller-scoped id (for counting arrays)
  std::uint32_t member = 0;       ///< position in the PartitionMembers
};

/// K-sorted database. Construction runs Apriori-KMS on every member;
/// members with no qualifying k-subsequence are dropped immediately.
class KSortedDatabase {
 public:
  /// One live entry of the run: its current key and its handle (the index
  /// into entry()).
  struct Slot {
    RankKey key;
    std::uint32_t handle = 0;
  };

  /// `sorted_list` holds the frequent (k-1)-sequences ascending, k >= 2,
  /// `groups` are its supporter groups over `members`, and every member
  /// carries its index. The list and groups are borrowed and must outlive
  /// this object. Every entry keeps a KmsScanState across advances. `locative`
  /// picks how a batch advance restores the order: merge the sorted
  /// survivors forward, or std::sort the whole live run (the naive
  /// strategy, kept as Ablation C). The keys and buckets are the same
  /// either way.
  KSortedDatabase(const PartitionMembers& members,
                  const std::vector<Sequence>* sorted_list, std::uint32_t k,
                  bool locative, const SupporterGroups* groups);
  /// Publishes the pass's walk tallies (KmsTally).
  ~KSortedDatabase() { tally_.Flush(); }

  KSortedDatabase(const KSortedDatabase&) = delete;
  KSortedDatabase& operator=(const KSortedDatabase&) = delete;

  /// Number of customer sequences still present.
  std::size_t size() const { return run_.size() - head_; }

  /// α₁ — the minimum key. Requires size() > 0.
  RankKey MinKey() const { return run_[head_].key; }

  /// α_rank — key at the 1-based rank (α_δ for rank δ). Requires
  /// 1 <= rank <= size().
  RankKey SelectKey(std::size_t rank) const {
    return run_[head_ + rank - 1].key;
  }

  /// The live entries, ascending by key (equal keys in no set order).
  /// Invalidated by the next pop or advance.
  std::span<const Slot> live() const {
    return std::span<const Slot>(run_).subspan(head_);
  }

  /// The sequence a key of this database stands for.
  Sequence KeySequence(const RankKey& key) const {
    return disc::KeySequence(*sorted_list_, key);
  }

  /// Pops the minimum bucket (all entries whose key equals α₁), appending
  /// their handles. The bucket size is the support of α₁ when it is
  /// frequent. Requires size() > 0.
  void PopMinBucket(std::vector<std::uint32_t>* handles);

  /// Pops every entry with key < bound, appending their handles.
  void PopAllLess(const RankKey& bound, std::vector<std::uint32_t>* handles);

  /// Entry access by handle (valid for popped handles until advanced).
  const KSortedEntry& entry(std::uint32_t handle) const {
    return entries_[handle];
  }

  /// Occurrence index of the entry's sequence.
  const SequenceIndex& index(std::uint32_t handle) const {
    return *index_ptrs_[handle];
  }

  /// The leftmost embedding ends of `key`'s prefix entry in the sequence
  /// of a just-popped entry whose key is `key`: the walk that produced the
  /// key landed there, so its scan state holds them.
  EmbeddingEnds LandedEnds(std::uint32_t handle, const RankKey& key) const {
    DISC_DCHECK(scan_states_[handle].index == key.prefix);
    (void)key;
    return scan_states_[handle].ends();
  }

  /// Advances the batch `handles` — exactly the handles popped since the
  /// last advance — past `bound`: re-generates each entry's key as its
  /// conditional k-minimum subsequence under the bound (Apriori-CKMS) and
  /// returns the survivors to the run in order, in the slots the pops
  /// freed. An entry with no such subsequence leaves the database. Every
  /// popped key must be at most the bound.
  void Advance(const std::vector<std::uint32_t>& handles,
               const CkmsBound& bound);

  /// The k of this database.
  std::uint32_t k() const { return k_; }

 private:
  KmsWalk WalkOf(std::uint32_t handle) const {
    return KmsWalk{entries_[handle].seq, index_ptrs_[handle], sorted_list_,
                   groups_, entries_[handle].member};
  }

  const std::vector<Sequence>* sorted_list_;
  const SupporterGroups* groups_;
  std::uint32_t k_;
  bool locative_;
  std::vector<KSortedEntry> entries_;
  std::vector<const SequenceIndex*> index_ptrs_;  // parallel to entries_
  std::vector<KmsScanState> scan_states_;         // parallel to entries_
  std::vector<Slot> run_;    // [0, head_) popped, [head_, end) live
  std::size_t head_ = 0;
  std::vector<Slot> batch_;  // an advance's survivors (capacity reused)
  KmsTally tally_;           // this pass's walk work, flushed on destruction
};

}  // namespace disc

#endif  // DISC_CORE_KSORTED_H_
