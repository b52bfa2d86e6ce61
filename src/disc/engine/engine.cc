#include "disc/engine/engine.h"

#include <chrono>

#include "disc/common/check.h"
#include "disc/core/first_level.h"
#include "disc/obs/metrics.h"
#include "disc/seq/storage.h"

namespace disc {
namespace engine {

DISC_OBS_COUNTER(g_engine_queries, "disc.engine.queries");
DISC_OBS_COUNTER(g_engine_loads, "disc.engine.loads");

const char* CacheOutcomeName(CacheOutcome outcome) {
  switch (outcome) {
    case CacheOutcome::kNone:
      return "none";
    case CacheOutcome::kMiss:
      return "miss";
    case CacheOutcome::kHit:
      return "hit";
  }
  return "none";
}

bool Session::done() const {
  std::lock_guard<std::mutex> lock(mu_);
  return done_;
}

void Session::Wait() const {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] { return done_; });
}

bool Session::WaitFor(std::uint64_t ms) const {
  std::unique_lock<std::mutex> lock(mu_);
  return cv_.wait_for(lock, std::chrono::milliseconds(ms),
                      [this] { return done_; });
}

const MineResponse& Session::response() const {
  std::lock_guard<std::mutex> lock(mu_);
  DISC_CHECK_MSG(done_, "Session::response() before done()");
  return response_;
}

void Session::Finish(MineResponse response) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    response_ = std::move(response);
    done_ = true;
  }
  cv_.notify_all();
}

Engine::Engine(const Config& config)
    : config_(config),
      cache_(config.cache_slots),
      pool_(ResolveThreadCount(config.session_threads)) {}

Engine::~Engine() {
  // pool_ is the first member destroyed; its destructor drains every
  // queued and running session while the rest of the engine is intact.
}

StatusOr<LoadInfo> Engine::LoadSpmf(const std::string& path,
                                    const ParseOptions& options) {
  ParseReport report;
  auto db = TryLoadSpmf(path, options, &report);
  if (!db.ok()) return db.status();
  LoadInfo info = Install(std::move(*db), report.skipped);
  info.first_error = report.first_error;
  return info;
}

StatusOr<LoadInfo> Engine::LoadPath(const std::string& path,
                                    const ParseOptions& options) {
  if (!IsDsaPath(path)) return LoadSpmf(path, options);
  auto db = TryLoadDsa(path);
  if (!db.ok()) return db.status();
  return Install(std::move(*db), 0);
}

LoadInfo Engine::LoadDatabase(SequenceDatabase db) {
  return Install(std::move(db), 0);
}

LoadInfo Engine::Install(SequenceDatabase db, std::size_t skipped) {
  // With the cache on, hash the contents once per load, as the .dsa loader
  // does (ContentHash returns its verified hash without a walk): every
  // cache probe and the miner's stale-state check then read the
  // fingerprint in O(1). A one-shot engine (cache off) pays no walk.
  if (config_.enable_cache) db.SetCachedContentHash(ContentHash(db));
  auto shared = std::make_shared<const SequenceDatabase>(std::move(db));
  LoadInfo info;
  info.sequences = shared->size();
  info.total_items = shared->TotalItems();
  info.max_item = shared->max_item();
  info.skipped = skipped;
  {
    std::lock_guard<std::mutex> lock(db_mu_);
    db_ = std::move(shared);
  }
  // In-flight sessions keep their snapshot; only future queries see the
  // new database. The cache is NOT invalidated: its slots are keyed by
  // database fingerprint, so the replaced database's state can never
  // match a query against the new one — and stays warm in case the old
  // database is loaded again (query_cache.h).
  loads_.fetch_add(1, std::memory_order_relaxed);
  DISC_OBS_INC(g_engine_loads);
  return info;
}

std::shared_ptr<const SequenceDatabase> Engine::database() const {
  std::lock_guard<std::mutex> lock(db_mu_);
  return db_;
}

StatusOr<std::shared_ptr<Session>> Engine::Submit(const MineRequest& request) {
  auto miner = TryCreateMiner(request.algo);
  if (!miner.ok()) return miner.status();

  std::shared_ptr<const SequenceDatabase> db = database();
  if (db == nullptr) {
    return Status::InvalidArgument("no database loaded (use `load` first)");
  }

  MineOptions options = request.options;
  if (request.min_support > 0.0) {
    if (request.min_support > 1.0) {
      return Status::InvalidArgument("min_support must be in (0, 1]");
    }
    options.min_support_count =
        MineOptions::CountForFraction(db->size(), request.min_support);
  }
  if (options.min_support_count == 0) {
    return Status::InvalidArgument("min_support_count must be >= 1");
  }

  auto session = std::shared_ptr<Session>(
      new Session(next_id_.fetch_add(1, std::memory_order_relaxed),
                  (*miner)->name()));
  // The session's own token replaces any caller token so Cancel() and
  // cancel_after always reach the run.
  options.cancel = &session->token_;
  if (request.cancel_after != kNoCancelBudget) {
    session->token_.CancelAfter(request.cancel_after);
  }

  queries_.fetch_add(1, std::memory_order_relaxed);
  DISC_OBS_INC(g_engine_queries);
  active_.fetch_add(1, std::memory_order_relaxed);

  // Capture by value (shared_ptr: ThreadPool::Task is a copyable
  // std::function): the task owns its database snapshot and miner
  // outright, so a later load can't pull state out from under a running
  // mine.
  std::shared_ptr<Miner> miner_shared(std::move(*miner));
  pool_.Submit([this, session, db, miner_shared, options](std::size_t) {
    // TryMine contains its own failures; this catch covers the engine-side
    // work around it (cache build allocation, ...) so a waiter can never
    // hang on a session that died before its response was published.
    MineResponse response;
    try {
      response = RunSession(db, miner_shared, options);
    } catch (const std::exception& e) {
      response.status =
          Status::Internal(std::string("session failed: ") + e.what());
    }
    // Decrement before Finish: a waiter woken by the response must already
    // see this session gone from active().
    active_.fetch_sub(1, std::memory_order_relaxed);
    session->Finish(std::move(response));
  });
  return session;
}

MineResponse Engine::RunSession(
    const std::shared_ptr<const SequenceDatabase>& db,
    const std::shared_ptr<Miner>& miner, MineOptions options) {
  MineResponse response;
  response.delta = options.min_support_count;

  if (config_.enable_cache) {
    if (auto* consumer = dynamic_cast<FirstLevelConsumer*>(miner.get())) {
      bool hit = false;
      consumer->ProvideFirstLevel(cache_.GetOrBuild(*db, &hit));
      response.cache = hit ? CacheOutcome::kHit : CacheOutcome::kMiss;
    }
  }

  const auto start = std::chrono::steady_clock::now();
  MineResult result = miner->TryMine(*db, options);
  response.wall_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start)
          .count();
  response.patterns = std::move(result.patterns);
  response.status = std::move(result.status);
  response.stats = miner->last_stats();
  return response;
}

MineResponse Engine::Mine(const MineRequest& request) {
  auto session = Submit(request);
  if (!session.ok()) {
    MineResponse response;
    response.status = session.status();
    return response;
  }
  Session& s = **session;
  s.Wait();
  // Nothing else reads this session's response once it is done, so move
  // it out: a copy would hold two full results at the peak.
  std::lock_guard<std::mutex> lock(s.mu_);
  return std::move(s.response_);
}

}  // namespace engine
}  // namespace disc
