// Live run telemetry: a process-global registry of in-flight (and recently
// finished) mining runs, each exposing an atomically-updated progress view.
//
// The post-hoc obs layer (MineStats, traces, bench reports) only
// materializes after Mine() returns; a resident engine serving long,
// cancellable requests must answer "what is running and how far along is
// it?" *while* it runs. Miner::TryMine registers every run here; the
// partition-scheduled miners (DISC-all, Dynamic DISC-all) tick the run's
// RunTelemetry at the same partition boundaries where their cancellation
// checkpoints already live, so progress costs nothing on the per-sequence
// hot paths — a handful of relaxed atomic bumps per partition, cold by
// construction.
//
// Progress unit: DISC's first-level ⟨λ⟩-partitions are statically
// determined before the fan-out, so "partitions completed / total" is an
// exact, monotone, thread-count-invariant progress measure. The ETA weights
// each partition by its member count — the level-0 surrogate of the
// candidate-count upper bound of Geerts/Goethals/Van den Bussche (a
// partition's candidate space, and with it its mining cost, grows with the
// sequences it must scan) — and extrapolates elapsed time over the
// remaining weight.
//
// Thread safety: RunTelemetry counters are relaxed atomics written by pool
// workers and read by the TelemetrySampler / exposition writer without
// locks; cross-field consistency is only needed for display, where a
// slightly torn view (completed bumped, weight not yet) is harmless. The
// registry's run table is mutex-guarded (touched once per run, not per
// partition).
#ifndef DISC_OBS_PROGRESS_H_
#define DISC_OBS_PROGRESS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace disc {
namespace obs {

/// Point-in-time progress view of one mining run, consistent enough for
/// display and exposition (see file comment).
struct ProgressSnapshot {
  std::uint64_t run_id = 0;  ///< registry-assigned, 1-based, monotone
  std::string miner;         ///< Miner::name() of the run
  std::size_t db_sequences = 0;

  std::uint64_t partitions_total = 0;  ///< 0 until the fan-out is planned
  std::uint64_t partitions_completed = 0;
  std::uint64_t partitions_in_flight = 0;
  std::uint64_t patterns_found = 0;  ///< live indicator (exact at run_done)

  double elapsed_seconds = 0.0;
  /// Weight-based remaining-time estimate; negative while unknown (no
  /// partition finished yet, or the fan-out is not planned).
  double eta_seconds = -1.0;
  /// Fraction of the planned partition weight completed, in [0, 1]; a
  /// finished run reports 1 even when it planned no partitions.
  double fraction_done = 0.0;

  /// Largest VmRSS observed by the TelemetrySampler during this run;
  /// 0 when sampling is off.
  std::uint64_t rss_high_water_bytes = 0;

  bool finished = false;
  bool cancelled = false;
  bool deadline_exceeded = false;

  /// Completed-partition percentage in [0, 100] (100 for a finished run
  /// with no planned partitions).
  double PercentDone() const;
  /// One-line human-readable form, used by the --progress stderr ticker.
  std::string ToString() const;
};

/// Live telemetry of one run. Created by RunRegistry::Begin; the miner
/// updates it at partition boundaries, the sampler and exposition read it
/// concurrently. All update methods are safe from any thread.
class RunTelemetry {
 public:
  std::uint64_t run_id() const { return run_id_; }
  const std::string& miner() const { return miner_; }

  /// Announces the planned fan-out: `total` partitions whose work weights
  /// sum to `total_weight` (member counts; see file comment). Call once,
  /// before the first PartitionStarted.
  void BeginPartitions(std::uint64_t total, std::uint64_t total_weight);

  /// One partition entered mining. `id` labels the partition in the event
  /// log (the λ item for DISC-all, the root item for Dynamic DISC-all).
  void PartitionStarted(std::uint64_t id);
  /// The partition mined to completion, contributing `weight` of the
  /// planned total and `patterns` frequent sequences.
  void PartitionDone(std::uint64_t id, std::uint64_t weight,
                     std::uint64_t patterns);
  /// The partition stopped without completing (cancellation observed
  /// mid-task, or a contained worker failure).
  void PartitionAborted(std::uint64_t id);

  /// Patterns emitted outside any partition (the frequent 1-sequences).
  void AddPatterns(std::uint64_t n);

  /// Folds one VmRSS sample into the run's high-water mark (sampler).
  void ObserveRss(std::uint64_t bytes);
  /// Largest ObserveRss value so far; 0 when never sampled.
  std::uint64_t rss_high_water_bytes() const {
    return rss_high_water_.load(std::memory_order_relaxed);
  }
  /// True once at least one RSS sample landed during the run.
  bool rss_sampled() const {
    return rss_high_water_.load(std::memory_order_relaxed) > 0;
  }

  ProgressSnapshot Snapshot() const;

 private:
  friend class RunRegistry;
  RunTelemetry(std::uint64_t run_id, std::string miner,
               std::size_t db_sequences);

  const std::uint64_t run_id_;
  const std::string miner_;
  const std::size_t db_sequences_;
  const std::chrono::steady_clock::time_point start_;

  std::atomic<std::uint64_t> partitions_total_{0};
  std::atomic<std::uint64_t> total_weight_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> completed_weight_{0};
  std::atomic<std::uint64_t> in_flight_{0};
  std::atomic<std::uint64_t> patterns_{0};
  std::atomic<std::uint64_t> rss_high_water_{0};
  // Serializes the completed_ bump with its partition_done event so the
  // log's per-run "completed" counts stay monotone under concurrent
  // workers (see PartitionDone).
  std::mutex emit_mu_;

  // Written once by RunRegistry::Finish, then read-only.
  std::atomic<bool> finished_{false};
  std::atomic<bool> cancelled_{false};
  std::atomic<bool> deadline_exceeded_{false};
  std::atomic<double> wall_seconds_{0.0};
};

/// Process-global table of runs. Begin/Finish bracket every Miner::TryMine
/// call (when DISC_ENABLE_OBS is on); finished runs are kept as
/// snapshots, newest first, up to kMaxFinished — enough for a CLI's
/// post-run reporting and a daemon's `stat` verb without unbounded growth.
class RunRegistry {
 public:
  static constexpr std::size_t kMaxFinished = 64;

  static RunRegistry& Global();

  /// Registers a new run and emits its run_start event. The returned
  /// telemetry stays valid for the lifetime of the shared_ptr (Finish does
  /// not invalidate it).
  std::shared_ptr<RunTelemetry> Begin(std::string miner,
                                      std::size_t db_sequences);

  /// Marks the run finished with its final accounting, moves it to the
  /// finished ring, and emits cancel/deadline/run_done events. `tel` may be
  /// null (no-op, so callers can pass an unchecked Begin result).
  void Finish(const std::shared_ptr<RunTelemetry>& tel,
              std::uint64_t num_patterns, double wall_seconds, bool cancelled,
              bool deadline_exceeded);

  /// Snapshots of the in-flight runs, ascending run id.
  std::vector<ProgressSnapshot> SnapshotActive() const;
  /// The in-flight runs themselves (sampler: ObserveRss needs the live
  /// objects, not snapshots).
  std::vector<std::shared_ptr<RunTelemetry>> ActiveRuns() const;
  /// Snapshots of in-flight runs plus the finished ring, ascending run id.
  std::vector<ProgressSnapshot> SnapshotAll() const;

  /// Drops all state (tests). In-flight runs are forgotten, not stopped.
  void ResetForTest();

 private:
  RunRegistry() = default;

  std::atomic<std::uint64_t> next_run_id_{1};
  mutable std::mutex mu_;  // guards active_, finished_
  std::vector<std::shared_ptr<RunTelemetry>> active_;
  std::vector<ProgressSnapshot> finished_;  // newest last, capped
};

}  // namespace obs
}  // namespace disc

#endif  // DISC_OBS_PROGRESS_H_
