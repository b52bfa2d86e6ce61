#include "disc/core/ksorted.h"

#include <algorithm>
#include <utility>

#include "disc/common/check.h"
#include "disc/order/compare.h"

namespace disc {
namespace {

bool SlotLess(const KSortedDatabase::Slot& a, const KSortedDatabase::Slot& b) {
  return CompareRankKeys(a.key, b.key) < 0;
}

}  // namespace

KSortedDatabase::KSortedDatabase(const PartitionMembers& members,
                                 const std::vector<Sequence>* sorted_list,
                                 std::uint32_t k, bool locative,
                                 const SupporterGroups* groups)
    : sorted_list_(sorted_list), groups_(groups), k_(k), locative_(locative) {
  DISC_CHECK(sorted_list_ != nullptr);
  DISC_CHECK(groups_ != nullptr);
  DISC_CHECK(k_ >= 2);
  // Rank keys order like their sequences only over a strictly ascending
  // list (core/rank_key.h).
  DISC_DCHECK(std::adjacent_find(sorted_list_->begin(), sorted_list_->end(),
                                 [](const Sequence& a, const Sequence& b) {
                                   return CompareSequences(a, b) >= 0;
                                 }) == sorted_list_->end());
  entries_.reserve(members.size());
  index_ptrs_.reserve(members.size());
  scan_states_.reserve(members.size());
  run_.reserve(members.size());
  DISC_CHECK(groups_->offsets.size() == members.size() + 1);
  for (std::uint32_t pos = 0; pos < members.size(); ++pos) {
    // A member with no supporter group contains no list entry.
    if (groups_->Of(pos).empty()) continue;
    const PartitionMember& m = members[pos];
    DISC_CHECK(m.index != nullptr);
    KmsScanState state;
    const KmsResult r = AprioriKms(
        KmsWalk{m.seq, m.index, sorted_list_, groups_, pos}, &state, &tally_);
    if (!r.found) continue;
    const std::uint32_t handle = static_cast<std::uint32_t>(entries_.size());
    entries_.push_back(KSortedEntry{m.seq, m.cid, pos});
    index_ptrs_.push_back(m.index);
    scan_states_.push_back(std::move(state));
    run_.push_back(Slot{r.key, handle});
  }
  std::sort(run_.begin(), run_.end(), SlotLess);
}

void KSortedDatabase::PopMinBucket(std::vector<std::uint32_t>* handles) {
  DISC_DCHECK(head_ < run_.size());
  const RankKey min = run_[head_].key;
  do {
    handles->push_back(run_[head_++].handle);
  } while (head_ < run_.size() && run_[head_].key == min);
}

void KSortedDatabase::PopAllLess(const RankKey& bound,
                                 std::vector<std::uint32_t>* handles) {
  while (head_ < run_.size() && CompareRankKeys(run_[head_].key, bound) < 0) {
    handles->push_back(run_[head_++].handle);
  }
}

void KSortedDatabase::Advance(const std::vector<std::uint32_t>& handles,
                              const CkmsBound& bound) {
  DISC_DCHECK(handles.size() <= head_);
  batch_.clear();
  for (const std::uint32_t h : handles) {
    const KmsResult r =
        AprioriCkms(WalkOf(h), bound, &scan_states_[h], &tally_);
    if (r.found) batch_.push_back(Slot{r.key, h});
  }
  if (batch_.empty()) return;
  // The survivors go back into the freed slots just below the head.
  Slot* const run = run_.data();
  const std::size_t end = run_.size();
  std::size_t write = head_ - batch_.size();
  std::size_t read = head_;
  head_ = write;
  if (!locative_) {
    std::copy(batch_.begin(), batch_.end(), run + write);
    std::sort(run + head_, run + end, SlotLess);
    return;
  }
  // Merge forward. The write cursor trails the read cursor by exactly the
  // number of survivors not yet merged, so it never overwrites an unread
  // entry, and once the survivors run out the rest of the run is already
  // in place.
  std::sort(batch_.begin(), batch_.end(), SlotLess);
  for (const Slot& s : batch_) {
    while (read < end && SlotLess(run[read], s)) run[write++] = run[read++];
    run[write++] = s;
  }
}

}  // namespace disc
