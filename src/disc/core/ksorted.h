// The k-sorted database (paper §1.2 / §3.2): customer sequences keyed by
// their current (conditional) k-minimum subsequence, ordered by the
// comparative order and indexed by a locative AVL tree.
//
// Keys are rank keys over the (k-1)-sorted list (core/rank_key.h) and live
// only in the tree nodes (one copy per distinct key). A key's prefix index
// is the paper's "apriori pointer", so entries need no pointer of their
// own: conditional re-generation (Apriori-CKMS) resumes at the bound's
// prefix, which no advanced entry's key lies beyond.
#ifndef DISC_CORE_KSORTED_H_
#define DISC_CORE_KSORTED_H_

#include <cstdint>
#include <deque>
#include <vector>

#include "disc/core/kms.h"
#include "disc/core/locative_avl.h"
#include "disc/core/member.h"
#include "disc/core/rank_key.h"
#include "disc/seq/sequence.h"
#include "disc/seq/types.h"

namespace disc {

/// One customer sequence's slot in a k-sorted database.
struct KSortedEntry {
  SequenceView seq;               ///< the customer sequence (not owned)
  Cid cid = 0;                    ///< caller-scoped id (for counting arrays)
};

/// K-sorted database. Construction runs Apriori-KMS on every member;
/// members with no qualifying k-subsequence are dropped immediately.
class KSortedDatabase {
 public:
  /// `sorted_list` holds the frequent (k-1)-sequences ascending; for k == 1
  /// pass a single empty sequence. The list is borrowed and must outlive
  /// this object. Every entry keeps a KmsScanState across advances.
  KSortedDatabase(const PartitionMembers& members,
                  const std::vector<Sequence>* sorted_list, std::uint32_t k);

  /// Number of customer sequences still present.
  std::size_t size() const { return tree_.size(); }

  /// α₁ — the minimum key. Requires size() > 0.
  RankKey MinKey() const { return tree_.MinKey(); }

  /// α_rank — key at the 1-based rank (α_δ for rank δ).
  RankKey SelectKey(std::size_t rank) const { return tree_.SelectKey(rank); }

  /// The sequence a key of this database stands for.
  Sequence KeySequence(const RankKey& key) const {
    return disc::KeySequence(*sorted_list_, key);
  }

  /// Pops the minimum bucket (all entries whose key equals α₁); the handles
  /// index entries(). The bucket size is the support of α₁ when it is
  /// frequent.
  void PopMinBucket(std::vector<std::uint32_t>* handles) {
    tree_.PopMinBucket(handles);
  }

  /// Pops every entry with key < bound.
  void PopAllLess(const RankKey& bound, std::vector<std::uint32_t>* handles) {
    tree_.PopAllLess(bound, handles);
  }

  /// Entry access by handle (valid for popped handles until re-advanced).
  const KSortedEntry& entry(std::uint32_t handle) const {
    return entries_[handle];
  }

  /// Occurrence index of the entry's sequence (always available).
  const SequenceIndex& index(std::uint32_t handle) const {
    return *index_ptrs_[handle];
  }

  /// Re-generates a popped entry's key as its conditional k-minimum
  /// subsequence under `bound` and re-inserts it; the entry is dropped when
  /// no such subsequence exists. The entry's previous key must not exceed
  /// the bound. Returns true if the entry survived.
  bool AdvanceAndReinsert(std::uint32_t handle, const CkmsBound& bound);

  /// The k of this database.
  std::uint32_t k() const { return k_; }

 private:
  const std::vector<Sequence>* sorted_list_;
  std::uint32_t k_;
  std::vector<KSortedEntry> entries_;
  std::vector<const SequenceIndex*> index_ptrs_;  // parallel to entries_
  std::vector<KmsScanState> scan_states_;         // parallel to entries_
  std::deque<SequenceIndex> owned_indexes_;       // for index-less members
  LocativeAvlTree tree_;
};

}  // namespace disc

#endif  // DISC_CORE_KSORTED_H_
