// Metrics registry: named counters, gauges, and size/latency histograms for
// the whole library. The mining hot paths (comparative-order comparisons,
// KMS advances, counting-array probes, ...) bump process-global counters via
// the DISC_OBS_* macros below; `Miner::Mine` snapshots the registry around
// each run and reports the per-run deltas as a `MineStats` record.
//
// Cost model:
//   * compile-time off (CMake -DDISC_ENABLE_OBS=OFF -> DISC_OBS_ENABLED=0):
//     the macros expand to nothing, the instrumentation has zero cost;
//   * on (the default): a relaxed 64-bit atomic increment on a
//     thread-sharded cell.
//
// Thread safety: the registry is safe to use from the partition-scheduler
// worker threads. Counters shard their value across per-thread cache-line
// cells (a worker increments its own cell uncontended; value() sums the
// cells), histograms and gauges use relaxed atomics, and the name->object
// maps are mutex-guarded. Snapshot()/HarvestSince() are meant to run at
// quiescent points (before/after a Mine() call, when the pool has joined);
// calling them mid-run is safe but yields an in-flight view.
#ifndef DISC_OBS_METRICS_H_
#define DISC_OBS_METRICS_H_

#include <atomic>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#ifndef DISC_OBS_ENABLED
#define DISC_OBS_ENABLED 1
#endif

namespace disc {
namespace obs {

/// Index of the calling thread's counter shard, assigned round-robin on
/// first use. Distinct live threads land on distinct shards until
/// Counter::kShards threads exist; beyond that shards are shared (still
/// correct — cells are atomic — just contended).
std::size_t AllocateThreadShard();
inline std::size_t ThreadShard() {
  thread_local const std::size_t shard = AllocateThreadShard();
  return shard;
}

/// Monotone event count (work performed: comparisons, probes, joins, ...).
/// Increments go to a per-thread cache-line-padded cell so hot loops on
/// different workers never contend; value() folds the cells.
class Counter {
 public:
  static constexpr std::size_t kShards = 16;

  void Add(std::uint64_t n) {
    cells_[ThreadShard() % kShards].v.fetch_add(n, std::memory_order_relaxed);
  }
  void Increment() { Add(1); }
  std::uint64_t value() const {
    std::uint64_t total = 0;
    for (const Cell& c : cells_) total += c.v.load(std::memory_order_relaxed);
    return total;
  }

 private:
  friend class MetricsRegistry;
  struct alignas(64) Cell {
    std::atomic<std::uint64_t> v{0};
  };
  Cell cells_[kShards];
};

/// Last-written value (rates, ratios; e.g. the physical NRR of a run).
/// Each Set stamps a registry-global tick so per-run harvesting can tell
/// fresh values from stale ones.
class Gauge {
 public:
  void Set(double v);
  double value() const { return value_.load(std::memory_order_relaxed); }
  std::uint64_t last_set_tick() const {
    return tick_.load(std::memory_order_acquire);
  }

 private:
  friend class MetricsRegistry;
  std::atomic<double> value_{0.0};
  std::atomic<std::uint64_t> tick_{0};  // 0 = never set
};

struct HistogramTally;

/// Power-of-two bucketed histogram for sizes and latencies. Bucket b counts
/// values v with bit_width(v) == b, i.e. bucket 0 holds v == 0, bucket 1
/// holds v == 1, bucket 2 holds 2..3, bucket 3 holds 4..7, ...
/// All fields are relaxed atomics (min/max via CAS loops), so concurrent
/// Record calls from pool workers are safe; cross-field consistency is only
/// guaranteed at quiescent points.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 65;

  void Record(std::uint64_t v);
  /// Publishes a tally: afterwards every field reads as if each value the
  /// tally recorded had been passed to Record.
  void Add(const HistogramTally& tally);

  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  std::uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  /// Smallest / largest recorded value; 0 when count() == 0.
  std::uint64_t min() const {
    return count() == 0 ? 0 : min_.load(std::memory_order_relaxed);
  }
  std::uint64_t max() const { return max_.load(std::memory_order_relaxed); }
  double mean() const;
  const std::atomic<std::uint64_t>* buckets() const { return buckets_; }

 private:
  friend class MetricsRegistry;
  static constexpr std::uint64_t kNoMin = ~std::uint64_t{0};
  /// Lowers min_ to `lo` and raises max_ to `hi` where they widen the range.
  void Widen(std::uint64_t lo, std::uint64_t hi);
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> min_{kNoMin};
  std::atomic<std::uint64_t> max_{0};
  std::atomic<std::uint64_t> buckets_[kBuckets] = {};
};

/// A single-threaded Histogram in plain fields: a hot loop records into it
/// and publishes once with Histogram::Add, paying no atomic per value.
struct HistogramTally {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t min = ~std::uint64_t{0};
  std::uint64_t max = 0;
  std::uint64_t buckets[Histogram::kBuckets] = {};

  void Record(std::uint64_t v) {
    ++count;
    sum += v;
    ++buckets[std::bit_width(v)];
    if (v < min) min = v;
    if (v > max) max = v;
  }
};

/// A point-in-time copy of every counter (and histogram aggregate) plus the
/// gauge tick, used to compute per-run deltas.
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;  // incl. hist .count/.sum
  std::uint64_t gauge_tick = 0;
};

/// A richer point-in-time copy carrying every metric family separately —
/// counters, gauge values (only gauges ever Set), and histogram aggregates
/// — as needed by the Prometheus exposition writer (obs/expose.h), which
/// must know each metric's kind to emit the right `# TYPE` line.
struct MetricsExport {
  struct HistogramStats {
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::uint64_t min = 0;
    std::uint64_t max = 0;
  };
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramStats> histograms;
};

/// Process-global registry. Metric objects are created on first lookup and
/// live forever; handles returned by counter()/gauge()/histogram() stay
/// valid, so hot paths resolve a name once (see DISC_OBS_COUNTER) and then
/// touch only the object.
class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  Counter* counter(const std::string& name);
  Gauge* gauge(const std::string& name);
  Histogram* histogram(const std::string& name);

  /// Snapshot of all counter values (histograms contribute "<name>.count"
  /// and "<name>.sum" entries) and the current gauge tick.
  MetricsSnapshot Snapshot() const;

  /// Kind-separated snapshot of every metric, for exposition. Gauges that
  /// were never Set are omitted (their zero is meaningless).
  MetricsExport ExportAll() const;

  /// Appends to `counters` every counter whose value grew since `before`
  /// (as name -> delta) and to `gauges` every gauge Set() since `before`.
  /// Both outputs are sorted by name.
  void HarvestSince(const MetricsSnapshot& before,
                    std::vector<std::pair<std::string, std::uint64_t>>* counters,
                    std::vector<std::pair<std::string, double>>* gauges) const;

  /// Zeroes every metric (tests). Handles stay valid. Must run at a
  /// quiescent point (no concurrent writers).
  void ResetAll();

  std::uint64_t gauge_tick() const {
    return gauge_tick_.load(std::memory_order_acquire);
  }

 private:
  friend class Gauge;
  MetricsRegistry() = default;

  void SnapshotLocked(MetricsSnapshot* snap) const;

  std::atomic<std::uint64_t> gauge_tick_{0};
  mutable std::mutex mu_;  // guards the three maps
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace obs
}  // namespace disc

// Instrumentation macros. Declare a handle once (file or function scope),
// then bump it; everything disappears when DISC_OBS_ENABLED is 0.
//
//   DISC_OBS_COUNTER(g_compares, "order.seq_compares");
//   ...
//   DISC_OBS_INC(g_compares);
#if DISC_OBS_ENABLED

#define DISC_OBS_COUNTER(var, name)        \
  static ::disc::obs::Counter* const var = \
      ::disc::obs::MetricsRegistry::Global().counter(name)
#define DISC_OBS_GAUGE(var, name)        \
  static ::disc::obs::Gauge* const var = \
      ::disc::obs::MetricsRegistry::Global().gauge(name)
#define DISC_OBS_HISTOGRAM(var, name)        \
  static ::disc::obs::Histogram* const var = \
      ::disc::obs::MetricsRegistry::Global().histogram(name)

#define DISC_OBS_ADD(var, n) (var)->Add(n)
#define DISC_OBS_INC(var) (var)->Increment()
#define DISC_OBS_SET(var, v) (var)->Set(v)
#define DISC_OBS_RECORD(var, v) (var)->Record(v)

#else  // !DISC_OBS_ENABLED

#define DISC_OBS_COUNTER(var, name) static constexpr int var = 0
#define DISC_OBS_GAUGE(var, name) static constexpr int var = 0
#define DISC_OBS_HISTOGRAM(var, name) static constexpr int var = 0
#define DISC_OBS_ADD(var, n) \
  do {                       \
    (void)(var);             \
  } while (0)
#define DISC_OBS_INC(var) \
  do {                    \
    (void)(var);          \
  } while (0)
#define DISC_OBS_SET(var, v) \
  do {                       \
    (void)(var);             \
  } while (0)
#define DISC_OBS_RECORD(var, v) \
  do {                          \
    (void)(var);                \
  } while (0)

#endif  // DISC_OBS_ENABLED

#endif  // DISC_OBS_METRICS_H_
