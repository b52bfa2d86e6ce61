#include "disc/core/ksorted.h"

#include <algorithm>
#include <utility>

#include "disc/common/check.h"
#include "disc/order/compare.h"

namespace disc {

KSortedDatabase::KSortedDatabase(const PartitionMembers& members,
                                 const std::vector<Sequence>* sorted_list,
                                 std::uint32_t k)
    : sorted_list_(sorted_list), k_(k) {
  DISC_CHECK(sorted_list_ != nullptr);
  DISC_CHECK(k_ >= 1);
  // Rank keys order like their sequences only over a strictly ascending
  // list (core/rank_key.h).
  DISC_DCHECK(std::adjacent_find(sorted_list_->begin(), sorted_list_->end(),
                                 [](const Sequence& a, const Sequence& b) {
                                   return CompareSequences(a, b) >= 0;
                                 }) == sorted_list_->end());
  entries_.reserve(members.size());
  index_ptrs_.reserve(members.size());
  scan_states_.reserve(members.size());
  for (const PartitionMember& m : members) {
    const SequenceIndex* index = m.index;
    if (index == nullptr) {
      // Index-less member: build and own one (Apriori-KMS below is already
      // the hottest consumer).
      owned_indexes_.emplace_back(m.seq);
      index = &owned_indexes_.back();
    }
    KmsScanState state;
    const KmsResult r = AprioriKms(m.seq, *sorted_list_, index, &state);
    if (!r.found) continue;
    const std::uint32_t handle = static_cast<std::uint32_t>(entries_.size());
    entries_.push_back(KSortedEntry{m.seq, m.cid});
    index_ptrs_.push_back(index);
    scan_states_.push_back(std::move(state));
    tree_.Insert(r.key, handle);
  }
}

bool KSortedDatabase::AdvanceAndReinsert(std::uint32_t handle,
                                         const CkmsBound& bound) {
  const KmsResult r =
      AprioriCkms(entries_[handle].seq, *sorted_list_, bound,
                  index_ptrs_[handle], &scan_states_[handle]);
  if (!r.found) return false;
  tree_.Insert(r.key, handle);
  return true;
}

}  // namespace disc
