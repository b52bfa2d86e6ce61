#include "disc/core/counting_array.h"

#include <algorithm>

namespace disc {

CountingArray::CountingArray(Item max_item)
    : i_entries_(static_cast<std::size_t>(max_item) + 1),
      s_entries_(static_cast<std::size_t>(max_item) + 1) {}

CountingArray::~CountingArray() { FlushObs(); }

void CountingArray::FlushObs() {
#if DISC_OBS_ENABLED
  DISC_OBS_COUNTER(g_probes, "counting_array.probes");
  DISC_OBS_COUNTER(g_increments, "counting_array.increments");
  DISC_OBS_COUNTER(g_support_increments, "support.increments");
  DISC_OBS_ADD(g_probes, probes_pending_);
  DISC_OBS_ADD(g_increments, increments_pending_);
  DISC_OBS_ADD(g_support_increments, increments_pending_);
  probes_pending_ = 0;
  increments_pending_ = 0;
#endif
}

std::uint32_t CountingArray::Count(Item x, ExtType type) const {
  DISC_DCHECK(static_cast<std::size_t>(x) < i_entries_.size());
  return type == ExtType::kItemset ? i_entries_[x].count
                                   : s_entries_[x].count;
}

void CountingArray::FrequentExtensions(
    std::uint32_t delta, std::vector<std::pair<Item, ExtType>>* out) const {
  // Filter, then sort: most touched items are infrequent, so the sort only
  // orders the survivors. Pairs compare by item, then itemset form first.
  out->clear();
  for (const Item x : touched_) {
    if (i_entries_[x].count >= delta) out->emplace_back(x, ExtType::kItemset);
    if (s_entries_[x].count >= delta) out->emplace_back(x, ExtType::kSequence);
  }
  std::sort(out->begin(), out->end());
}

void CountingArray::Reset() {
  for (const Item x : touched_) {
    i_entries_[x] = Entry{};
    s_entries_[x] = Entry{};
  }
  touched_.clear();
#if DISC_OBS_ENABLED
  increments_since_reset_ = 0;
#endif
}

}  // namespace disc
