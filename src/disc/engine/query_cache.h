// QueryCache: the engine's store for threshold-independent mining
// artifacts (core/first_level.h), a small fingerprint-keyed LRU.
//
// PR 8's single slot matched an engine that owned one resident database;
// the socket transport (server/transport.h) turns `load` into something
// many clients do, and two clients alternating between databases would
// thrash a single slot on every query. A handful of LRU slots (default 4,
// Engine::Config::cache_slots) absorbs that churn. Each slot is keyed by
// its database's fingerprint (FirstLevelState::Matches), so a stale slot
// can never leak into a mismatched run — it just misses and rebuilds; a
// load therefore does NOT invalidate the cache, and re-loading a recently
// served database hits warm state.
//
// Thread safety: GetOrBuild is serialized by a mutex (a build runs under
// it, so concurrent sessions asking for the same state block and then hit
// — building twice would waste the exact work the cache exists to save).
// The database's content hash is read before the lock is taken; an
// engine's databases cache it at load, so a hit holds the lock for a few
// fingerprint comparisons.
// The hit/miss/byte/eviction accessors are lock-free local atomics, live
// even when the metrics registry is compiled out; the same events also
// land on the "disc.cache.hits" / "disc.cache.misses" /
// "disc.cache.evictions" counters and the "disc.cache.bytes" gauge for
// the exposition path (docs/OBSERVABILITY.md).
#ifndef DISC_ENGINE_QUERY_CACHE_H_
#define DISC_ENGINE_QUERY_CACHE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "disc/core/first_level.h"
#include "disc/seq/database.h"

namespace disc {
namespace engine {

/// Fingerprint-keyed LRU of FirstLevelState. See file comment.
class QueryCache {
 public:
  /// `capacity` slots (clamped to >= 1). The default suits a few resident
  /// databases; each slot holds one database's first-level state.
  explicit QueryCache(std::uint32_t capacity = 4);
  QueryCache(const QueryCache&) = delete;
  QueryCache& operator=(const QueryCache&) = delete;

  /// Returns the cached state whose fingerprint matches `db` (a hit),
  /// otherwise builds, caches (evicting the least-recently-used slot when
  /// full), and returns a fresh one (a miss). `hit` (optional) reports
  /// which happened.
  std::shared_ptr<const FirstLevelState> GetOrBuild(const SequenceDatabase& db,
                                                    bool* hit = nullptr);

  /// Drops every slot. Outstanding shared_ptrs stay valid; the next
  /// GetOrBuild misses. Not counted as evictions (nothing was displaced
  /// by competing state). Retained for tests and explicit resets — a
  /// database load does not need it (stale fingerprints never match).
  void Invalidate();

  std::uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  std::uint64_t misses() const {
    return misses_.load(std::memory_order_relaxed);
  }
  /// Resident bytes across all occupied slots (0 when empty).
  std::uint64_t bytes() const {
    return bytes_.load(std::memory_order_relaxed);
  }
  /// LRU slots displaced to make room (capacity pressure only).
  std::uint64_t evictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }
  /// Occupied slots (<= capacity()).
  std::uint32_t slots() const {
    return slots_.load(std::memory_order_relaxed);
  }
  std::uint32_t capacity() const { return capacity_; }

 private:
  struct Slot {
    std::shared_ptr<const FirstLevelState> state;
    std::uint64_t last_used = 0;  // tick_ stamp; smallest = LRU victim
  };

  void UpdateBytes();  // recompute bytes_ from slots (holding mu_)

  const std::uint32_t capacity_;
  std::mutex mu_;
  std::vector<Slot> lru_;   // guarded by mu_; size <= capacity_
  std::uint64_t tick_ = 0;  // guarded by mu_
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> bytes_{0};
  std::atomic<std::uint64_t> evictions_{0};
  std::atomic<std::uint32_t> slots_{0};
};

}  // namespace engine
}  // namespace disc

#endif  // DISC_ENGINE_QUERY_CACHE_H_
