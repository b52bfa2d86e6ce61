#include "disc/engine/query_cache.h"

#include <algorithm>

#include "disc/obs/metrics.h"

namespace disc {
namespace engine {

DISC_OBS_COUNTER(g_cache_hits, "disc.cache.hits");
DISC_OBS_COUNTER(g_cache_misses, "disc.cache.misses");
DISC_OBS_COUNTER(g_cache_evictions, "disc.cache.evictions");
DISC_OBS_GAUGE(g_cache_bytes, "disc.cache.bytes");

QueryCache::QueryCache(std::uint32_t capacity)
    : capacity_(std::max<std::uint32_t>(capacity, 1)) {}

void QueryCache::UpdateBytes() {
  std::uint64_t total = 0;
  for (const Slot& slot : lru_) total += slot.state->SizeBytes();
  bytes_.store(total, std::memory_order_relaxed);
  slots_.store(static_cast<std::uint32_t>(lru_.size()),
               std::memory_order_relaxed);
  DISC_OBS_SET(g_cache_bytes, static_cast<double>(total));
}

std::shared_ptr<const FirstLevelState> QueryCache::GetOrBuild(
    const SequenceDatabase& db, bool* hit) {
  // The content hash is read once per query, not per slot, and outside
  // the lock. An engine database caches it from its load (Engine::Install),
  // so this is O(1); any other database pays one O(n) walk here.
  const std::uint64_t hash = ContentHash(db);
  std::lock_guard<std::mutex> lock(mu_);
  // Linear scan: capacity is a handful of slots, and each probe is one
  // fingerprint comparison — a map would cost more than it saves.
  for (Slot& slot : lru_) {
    if (slot.state->Matches(db, hash)) {
      slot.last_used = ++tick_;
      hits_.fetch_add(1, std::memory_order_relaxed);
      DISC_OBS_INC(g_cache_hits);
      if (hit != nullptr) *hit = true;
      return slot.state;
    }
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  DISC_OBS_INC(g_cache_misses);
  if (hit != nullptr) *hit = false;
  std::shared_ptr<const FirstLevelState> built = BuildFirstLevelState(db);
  if (lru_.size() >= capacity_) {
    auto victim = std::min_element(
        lru_.begin(), lru_.end(), [](const Slot& a, const Slot& b) {
          return a.last_used < b.last_used;
        });
    *victim = Slot{built, ++tick_};
    evictions_.fetch_add(1, std::memory_order_relaxed);
    DISC_OBS_INC(g_cache_evictions);
  } else {
    lru_.push_back(Slot{built, ++tick_});
  }
  UpdateBytes();
  return built;
}

void QueryCache::Invalidate() {
  std::lock_guard<std::mutex> lock(mu_);
  lru_.clear();
  bytes_.store(0, std::memory_order_relaxed);
  slots_.store(0, std::memory_order_relaxed);
  DISC_OBS_SET(g_cache_bytes, 0.0);
}

}  // namespace engine
}  // namespace disc
