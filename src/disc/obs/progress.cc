#include "disc/obs/progress.h"

#include <algorithm>
#include <cstdio>

#include "disc/obs/event_log.h"

namespace disc {
namespace obs {

double ProgressSnapshot::PercentDone() const {
  if (partitions_total == 0) return finished ? 100.0 : 0.0;
  return 100.0 * static_cast<double>(partitions_completed) /
         static_cast<double>(partitions_total);
}

std::string ProgressSnapshot::ToString() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "run=%llu miner=%s partitions=%llu/%llu pct=%.1f%% "
                "patterns=%llu elapsed=%.1fs",
                static_cast<unsigned long long>(run_id), miner.c_str(),
                static_cast<unsigned long long>(partitions_completed),
                static_cast<unsigned long long>(partitions_total),
                PercentDone(),
                static_cast<unsigned long long>(patterns_found),
                elapsed_seconds);
  std::string out = buf;
  if (!finished && eta_seconds >= 0.0) {
    std::snprintf(buf, sizeof(buf), " eta=%.1fs", eta_seconds);
    out += buf;
  }
  if (cancelled) out += " [cancelled]";
  if (deadline_exceeded) out += " [deadline]";
  if (finished) out += " [done]";
  return out;
}

RunTelemetry::RunTelemetry(std::uint64_t run_id, std::string miner,
                           std::size_t db_sequences)
    : run_id_(run_id),
      miner_(std::move(miner)),
      db_sequences_(db_sequences),
      start_(std::chrono::steady_clock::now()) {}

void RunTelemetry::BeginPartitions(std::uint64_t total,
                                   std::uint64_t total_weight) {
  partitions_total_.store(total, std::memory_order_relaxed);
  total_weight_.store(total_weight, std::memory_order_relaxed);
}

void RunTelemetry::PartitionStarted(std::uint64_t id) {
  in_flight_.fetch_add(1, std::memory_order_relaxed);
  EventLog::Global().PartitionStart(run_id_, id);
}

void RunTelemetry::PartitionDone(std::uint64_t id, std::uint64_t weight,
                                 std::uint64_t patterns) {
  completed_weight_.fetch_add(weight, std::memory_order_relaxed);
  patterns_.fetch_add(patterns, std::memory_order_relaxed);
  in_flight_.fetch_sub(1, std::memory_order_relaxed);
  // The completed count and its partition_done event must land in the log
  // in the same order, or two workers finishing together could record
  // "completed" values out of order and break the validator's per-run
  // monotonicity. Serialize the pair; this is a per-partition (cold) path.
  std::lock_guard<std::mutex> lock(emit_mu_);
  const std::uint64_t done =
      completed_.fetch_add(1, std::memory_order_relaxed) + 1;
  EventLog::Global().PartitionDone(
      run_id_, id, weight, patterns, done,
      partitions_total_.load(std::memory_order_relaxed));
}

void RunTelemetry::PartitionAborted(std::uint64_t id) {
  (void)id;
  in_flight_.fetch_sub(1, std::memory_order_relaxed);
}

void RunTelemetry::AddPatterns(std::uint64_t n) {
  patterns_.fetch_add(n, std::memory_order_relaxed);
}

void RunTelemetry::ObserveRss(std::uint64_t bytes) {
  std::uint64_t cur = rss_high_water_.load(std::memory_order_relaxed);
  while (bytes > cur && !rss_high_water_.compare_exchange_weak(
                            cur, bytes, std::memory_order_relaxed)) {
  }
}

ProgressSnapshot RunTelemetry::Snapshot() const {
  ProgressSnapshot s;
  s.run_id = run_id_;
  s.miner = miner_;
  s.db_sequences = db_sequences_;
  s.partitions_total = partitions_total_.load(std::memory_order_relaxed);
  s.partitions_completed = completed_.load(std::memory_order_relaxed);
  s.partitions_in_flight = in_flight_.load(std::memory_order_relaxed);
  s.patterns_found = patterns_.load(std::memory_order_relaxed);
  s.rss_high_water_bytes = rss_high_water_.load(std::memory_order_relaxed);
  s.finished = finished_.load(std::memory_order_acquire);
  s.cancelled = cancelled_.load(std::memory_order_relaxed);
  s.deadline_exceeded = deadline_exceeded_.load(std::memory_order_relaxed);
  s.elapsed_seconds =
      s.finished
          ? wall_seconds_.load(std::memory_order_relaxed)
          : std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          start_)
                .count();

  const std::uint64_t total_w = total_weight_.load(std::memory_order_relaxed);
  const std::uint64_t done_w =
      completed_weight_.load(std::memory_order_relaxed);
  if (s.finished) {
    s.fraction_done = 1.0;
    s.eta_seconds = 0.0;
  } else if (total_w > 0) {
    s.fraction_done = std::min(
        1.0, static_cast<double>(done_w) / static_cast<double>(total_w));
    if (done_w > 0 && done_w < total_w) {
      s.eta_seconds = s.elapsed_seconds *
                      static_cast<double>(total_w - done_w) /
                      static_cast<double>(done_w);
    }
  }
  return s;
}

RunRegistry& RunRegistry::Global() {
  static RunRegistry* const registry = new RunRegistry();
  return *registry;
}

std::shared_ptr<RunTelemetry> RunRegistry::Begin(std::string miner,
                                                 std::size_t db_sequences) {
  const std::uint64_t id =
      next_run_id_.fetch_add(1, std::memory_order_relaxed);
  std::shared_ptr<RunTelemetry> tel(
      new RunTelemetry(id, std::move(miner), db_sequences));
  {
    std::lock_guard<std::mutex> lock(mu_);
    active_.push_back(tel);
  }
  EventLog::Global().RunStart(id, tel->miner(), db_sequences);
  return tel;
}

void RunRegistry::Finish(const std::shared_ptr<RunTelemetry>& tel,
                         std::uint64_t num_patterns, double wall_seconds,
                         bool cancelled, bool deadline_exceeded) {
  if (tel == nullptr) return;
  tel->patterns_.store(num_patterns, std::memory_order_relaxed);
  tel->wall_seconds_.store(wall_seconds, std::memory_order_relaxed);
  tel->cancelled_.store(cancelled, std::memory_order_relaxed);
  tel->deadline_exceeded_.store(deadline_exceeded, std::memory_order_relaxed);
  tel->finished_.store(true, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(mu_);
    active_.erase(std::remove(active_.begin(), active_.end(), tel),
                  active_.end());
    finished_.push_back(tel->Snapshot());
    if (finished_.size() > kMaxFinished) {
      finished_.erase(finished_.begin(),
                      finished_.begin() +
                          static_cast<std::ptrdiff_t>(finished_.size() -
                                                      kMaxFinished));
    }
  }
  EventLog& log = EventLog::Global();
  if (cancelled) log.Cancel(tel->run_id());
  if (deadline_exceeded) log.Deadline(tel->run_id());
  log.RunDone(tel->run_id(), num_patterns, wall_seconds, cancelled,
              deadline_exceeded);
}

std::vector<std::shared_ptr<RunTelemetry>> RunRegistry::ActiveRuns() const {
  std::lock_guard<std::mutex> lock(mu_);
  return active_;
}

std::vector<ProgressSnapshot> RunRegistry::SnapshotActive() const {
  std::vector<std::shared_ptr<RunTelemetry>> active;
  {
    std::lock_guard<std::mutex> lock(mu_);
    active = active_;
  }
  std::vector<ProgressSnapshot> out;
  out.reserve(active.size());
  for (const auto& tel : active) out.push_back(tel->Snapshot());
  std::sort(out.begin(), out.end(),
            [](const ProgressSnapshot& a, const ProgressSnapshot& b) {
              return a.run_id < b.run_id;
            });
  return out;
}

std::vector<ProgressSnapshot> RunRegistry::SnapshotAll() const {
  std::vector<ProgressSnapshot> out;
  std::vector<std::shared_ptr<RunTelemetry>> active;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out = finished_;
    active = active_;
  }
  for (const auto& tel : active) out.push_back(tel->Snapshot());
  std::sort(out.begin(), out.end(),
            [](const ProgressSnapshot& a, const ProgressSnapshot& b) {
              return a.run_id < b.run_id;
            });
  return out;
}

void RunRegistry::ResetForTest() {
  std::lock_guard<std::mutex> lock(mu_);
  active_.clear();
  finished_.clear();
  next_run_id_.store(1, std::memory_order_relaxed);
}

}  // namespace obs
}  // namespace disc
