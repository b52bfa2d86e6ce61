// The counting array of paper §3.1: per item, two (support count, last CID)
// entries — one for the itemset form <(λx)> and one for the sequence form
// <(λ)(x)> of a one-item extension. The last-CID column prevents counting a
// pattern twice for the same customer sequence, so one scan suffices.
//
// Reset() is O(#touched items), letting a single array be reused across all
// partitions of a mining run.
#ifndef DISC_CORE_COUNTING_ARRAY_H_
#define DISC_CORE_COUNTING_ARRAY_H_

#include <vector>

#include "disc/common/check.h"
#include "disc/obs/metrics.h"
#include "disc/order/compare.h"
#include "disc/seq/types.h"

namespace disc {

/// Support counting for one-item extensions of a fixed prefix. See file
/// comment.
class CountingArray {
 public:
  /// Items 1..max_item are countable.
  explicit CountingArray(Item max_item);
  ~CountingArray();

  CountingArray(const CountingArray&) = delete;
  CountingArray& operator=(const CountingArray&) = delete;

  /// Records that customer `cid` supports the extension (x, type). Repeated
  /// calls with the same cid are idempotent (the last-CID mechanism).
  ///
  /// Inline, and the probe/increment counters are batched into plain
  /// members flushed to the registry when the array is destroyed: this is
  /// the innermost loop of every bi-level harvest, and three shared atomic
  /// bumps per probe cost more than the probe itself. An array therefore
  /// must die before its run's stats are read (each miner's per-worker
  /// scratch does).
  void Add(Item x, ExtType type, Cid cid) {
    DISC_DCHECK(static_cast<std::size_t>(x) < i_entries_.size());
#if DISC_OBS_ENABLED
    ++probes_pending_;
#endif
    Entry& e = type == ExtType::kItemset ? i_entries_[x] : s_entries_[x];
    if (e.last_cid_plus1 == cid + 1) return;
    if (i_entries_[x].count == 0 && s_entries_[x].count == 0) {
      touched_.push_back(x);
    }
    e.last_cid_plus1 = cid + 1;
    ++e.count;
#if DISC_OBS_ENABLED
    ++increments_pending_;
    ++increments_since_reset_;
#endif
  }

  /// Support count of extension (x, type).
  std::uint32_t Count(Item x, ExtType type) const;

  /// Replaces `*out` with all extensions with count >= delta, ascending by
  /// (item, type) with the itemset form first — i.e. in the comparative
  /// order of the extended patterns. A caller that asks repeatedly passes
  /// the same vector and reuses its capacity.
  void FrequentExtensions(std::uint32_t delta,
                          std::vector<std::pair<Item, ExtType>>* out) const;

  /// Clears all counts (O(#items touched since the last Reset)).
  void Reset();

#if DISC_OBS_ENABLED
  /// Support-count increments (non-idempotent Adds) since the last Reset().
  /// Lets call sites attribute increments to a pattern length — e.g. the
  /// "support.increments.k4plus" counter behind the no-support-counting
  /// invariant test. Only compiled with the observability layer.
  std::uint64_t increments_since_reset() const {
    return increments_since_reset_;
  }
#endif

 private:
  // Publishes the batched probe/increment tallies to the registry counters
  // "counting_array.probes", "counting_array.increments", and
  // "support.increments". No-op when observability is compiled out.
  void FlushObs();

  struct Entry {
    std::uint32_t count = 0;
    std::uint32_t last_cid_plus1 = 0;  // 0 = never seen
  };
  std::vector<Entry> i_entries_;
  std::vector<Entry> s_entries_;
  std::vector<Item> touched_;  // items with any nonzero entry
#if DISC_OBS_ENABLED
  std::uint64_t increments_since_reset_ = 0;
  std::uint64_t probes_pending_ = 0;
  std::uint64_t increments_pending_ = 0;
#endif
};

}  // namespace disc

#endif  // DISC_CORE_COUNTING_ARRAY_H_
