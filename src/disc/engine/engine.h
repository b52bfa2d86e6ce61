// The engine layer: a resident mining service over one loaded database.
//
// An Engine owns the current SequenceDatabase plus a QueryCache of its
// threshold-independent first-level artifacts (core/first_level.h), and
// serves MineRequests through sessions dispatched on an internal
// ThreadPool. The point of residency: a minsup sweep over one database —
// the shape of every experiment in the paper — pays for the item-support
// scan, the ⟨λ⟩-partition memberships with their level-1 projection
// points, and the content hash behind the cache's fingerprint exactly
// once, the hash at load and the rest at the first query; each subsequent
// query starts at partition mining ("disc.cache.hits"). Pattern output is
// byte-identical with the cache on or off, at any thread count
// (tests/engine_test.cc).
//
// Every entry point drives this layer: the seqmine CLI is a one-shot
// client (examples/seqmine.cpp), seqmined speaks the line protocol over it
// (server/server.h), and bench_server measures the cold-vs-cached gap.
//
// Concurrency model: LoadSpmf/LoadDatabase swap the database under a
// mutex; a session snapshots the shared_ptr at submit time, so an
// in-flight mine keeps its database alive and consistent even while a new
// one loads. The QueryCache is an LRU keyed by database fingerprint, so a
// session racing a load simply misses — loads never invalidate it, and
// alternating between a few resident databases keeps each one's
// first-level state warm.
#ifndef DISC_ENGINE_ENGINE_H_
#define DISC_ENGINE_ENGINE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>

#include "disc/algo/miner.h"
#include "disc/common/cancel.h"
#include "disc/common/status.h"
#include "disc/common/thread_pool.h"
#include "disc/engine/query_cache.h"
#include "disc/seq/database.h"
#include "disc/seq/io.h"

namespace disc {
namespace engine {

/// No CancelAfter budget requested (MineRequest::cancel_after).
inline constexpr std::uint64_t kNoCancelBudget = ~std::uint64_t{0};

/// One mining query against the engine's resident database.
struct MineRequest {
  /// Miner name (algo/miner.h factory). Unknown names are rejected at
  /// Submit with kInvalidArgument.
  std::string algo = "disc-all";

  /// Mining parameters. `cancel` is ignored — every session owns its own
  /// CancelToken so Session::Cancel() works without caller plumbing.
  MineOptions options;

  /// When > 0, a relative minimum support: the engine resolves it to
  /// options.min_support_count against the database snapshot it mines
  /// (MineOptions::CountForFraction), so fraction and snapshot can never
  /// disagree. 0 uses options.min_support_count as given.
  double min_support = 0.0;

  /// When not kNoCancelBudget, arms the session token's checkpoint budget
  /// (CancelToken::CancelAfter): the run self-cancels after this many
  /// polls — a deterministic partial-result stop, used by the protocol's
  /// --cancel-after option and the byte-prefix regression tests.
  std::uint64_t cancel_after = kNoCancelBudget;
};

/// Where a session's first-level state came from.
enum class CacheOutcome {
  kNone,  ///< cache disabled or the miner has no first-level seam
  kMiss,  ///< built this query (and cached for the next)
  kHit,   ///< reused the cached state
};

/// Stable lower-case name ("none", "miss", "hit") for framing and logs.
const char* CacheOutcomeName(CacheOutcome outcome);

/// A finished session's result.
struct MineResponse {
  PatternSet patterns;
  Status status;
  MineStats stats;
  CacheOutcome cache = CacheOutcome::kNone;
  /// Resolved absolute support threshold the run actually used.
  std::uint32_t delta = 0;
  /// Wall-clock time of the mine itself (excludes queue wait).
  double wall_ms = 0.0;

  /// True when the run stopped early: `patterns` is a well-defined
  /// comparative-order byte-prefix of the full result
  /// (docs/ROBUSTNESS.md).
  bool partial() const {
    return status.code() == StatusCode::kCancelled ||
           status.code() == StatusCode::kDeadlineExceeded;
  }
};

/// Handle to one submitted mine. Created by Engine::Submit; shared between
/// the caller and the engine worker. All methods are thread-safe.
class Session {
 public:
  std::uint64_t id() const { return id_; }
  const std::string& algo() const { return algo_; }

  /// Requests a cooperative stop; the run finishes with kCancelled and a
  /// byte-prefix partial result. Idempotent; safe after completion.
  void Cancel() { token_.RequestCancel(); }

  bool done() const;
  /// Blocks until the session finishes.
  void Wait() const;
  /// Blocks up to `ms` milliseconds; true when the session finished.
  bool WaitFor(std::uint64_t ms) const;

  /// The result; only valid once done() (DISC_CHECK).
  const MineResponse& response() const;

 private:
  friend class Engine;
  Session(std::uint64_t id, std::string algo)
      : id_(id), algo_(std::move(algo)) {}

  void Finish(MineResponse response);

  const std::uint64_t id_;
  const std::string algo_;
  CancelToken token_;
  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  bool done_ = false;          // guarded by mu_
  MineResponse response_;      // written once, before done_
};

/// What a load ingested (server framing, CLI banners).
struct LoadInfo {
  std::size_t sequences = 0;
  std::uint64_t total_items = 0;
  Item max_item = 0;
  std::size_t skipped = 0;    ///< malformed lines dropped (permissive mode)
  std::string first_error;    ///< diagnostic of the first skipped line
};

/// Resident mining engine. See file comment. Thread-safe; the destructor
/// drains in-flight sessions.
class Engine {
 public:
  struct Config {
    /// Worker threads serving sessions (concurrent *queries*; each query's
    /// own mining parallelism is MineOptions::threads).
    std::uint32_t session_threads = 2;
    /// When false, sessions never consult the QueryCache and loads hash
    /// nothing — the one-shot CLI path, where building first-level state
    /// for a single query is pure overhead. Output is byte-identical
    /// either way.
    bool enable_cache = true;
    /// QueryCache LRU capacity: how many databases keep warm first-level
    /// state at once (>= 1; see query_cache.h).
    std::uint32_t cache_slots = 4;
  };

  Engine() : Engine(Config{}) {}
  explicit Engine(const Config& config);
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Loads an SPMF file as the resident database. kIoError / kDataLoss on
  /// failure (the previous database stays). With the cache on, every load
  /// caches the database's content hash (SetCachedContentHash), so cache
  /// probes and the miners' stale-state checks never walk it. The
  /// QueryCache is untouched: slots are fingerprint-keyed, so the old
  /// database's state can never serve the new one, and re-loading a
  /// cached database hits warm state.
  StatusOr<LoadInfo> LoadSpmf(const std::string& path,
                              const ParseOptions& options = {});

  /// Loads either on-disk format by path: ".dsa" arena files are mapped
  /// through seq/storage.h (validated, O(1) in database size, and the
  /// file's verified content hash pre-warms the QueryCache fingerprint);
  /// anything else parses as SPMF text. `options` applies to the SPMF
  /// path only — a .dsa file is all-or-nothing.
  StatusOr<LoadInfo> LoadPath(const std::string& path,
                              const ParseOptions& options = {});

  /// Installs an already-built database (tests, generators).
  LoadInfo LoadDatabase(SequenceDatabase db);

  /// The resident database (null before the first load). Snapshots are
  /// stable: a later load swaps the engine's pointer, never mutates.
  std::shared_ptr<const SequenceDatabase> database() const;

  /// Enqueues a mine. kInvalidArgument on an unknown algo, an invalid
  /// min_support fraction, or when no database is loaded.
  StatusOr<std::shared_ptr<Session>> Submit(const MineRequest& request);

  /// Blocking convenience: Submit + Wait. Submit failures come back as the
  /// response status (empty patterns).
  MineResponse Mine(const MineRequest& request);

  /// Drops the cached first-level state (bench cold runs).
  void InvalidateCache() { cache_.Invalidate(); }

  const QueryCache& cache() const { return cache_; }
  /// Sessions submitted / databases loaded over the engine's lifetime, and
  /// sessions currently queued or running. Live even with obs compiled
  /// out (mirrors "disc.engine.queries" / "disc.engine.loads").
  std::uint64_t queries() const {
    return queries_.load(std::memory_order_relaxed);
  }
  std::uint64_t loads() const {
    return loads_.load(std::memory_order_relaxed);
  }
  std::uint64_t active() const {
    return active_.load(std::memory_order_relaxed);
  }

 private:
  MineResponse RunSession(const std::shared_ptr<const SequenceDatabase>& db,
                          const std::shared_ptr<Miner>& miner,
                          MineOptions options);
  LoadInfo Install(SequenceDatabase db, std::size_t skipped);

  const Config config_;
  QueryCache cache_;

  mutable std::mutex db_mu_;
  std::shared_ptr<const SequenceDatabase> db_;  // guarded by db_mu_

  std::atomic<std::uint64_t> next_id_{1};
  std::atomic<std::uint64_t> queries_{0};
  std::atomic<std::uint64_t> loads_{0};
  std::atomic<std::uint64_t> active_{0};

  // Last member: destroyed first, so the pool drains in-flight sessions
  // before any other engine state goes away.
  ThreadPool pool_;
};

}  // namespace engine
}  // namespace disc

#endif  // DISC_ENGINE_ENGINE_H_
