// Background telemetry sampler: a single low-duty thread that, every
// `period_ms`, samples the process VmRSS (folding it into each in-flight
// run's high-water mark — the source of MineStats::peak_rss_bytes when
// sampling is on), refreshes the `proc.rss_bytes` gauge, and hands the
// active-run progress snapshots to an optional tick callback (the CLI
// `--progress` stderr ticker, a daemon's push exporter, ...).
//
// The sampler is what turns the passive RunTelemetry counters into a live
// feed without adding any cost to the mining threads: workers only bump
// relaxed atomics at partition boundaries; this thread does all the
// reading, formatting, and I/O.
//
// Lifecycle: Start spawns the thread, Stop joins it. Stop always delivers
// one final tick (final=true) before returning, so a run shorter than one
// period still surfaces its 100% state. Start/Stop are not thread-safe
// against each other; call them from the owning (driver) thread.
#ifndef DISC_OBS_SAMPLER_H_
#define DISC_OBS_SAMPLER_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "disc/obs/progress.h"

namespace disc {
namespace obs {

class TelemetrySampler {
 public:
  struct Options {
    /// Sampling period. Clamped to >= 10 to keep a mistyped flag from
    /// turning the sampler into a busy loop.
    std::uint64_t period_ms = 200;
  };

  /// Called once per tick with the in-flight run snapshots (ascending run
  /// id; possibly empty). `final` is true exactly once, for the tick Stop
  /// delivers after the loop exits — by then finished runs have left the
  /// active set, so a final ticker line should come from SnapshotAll or the
  /// caller's own accounting.
  using TickFn =
      std::function<void(const std::vector<ProgressSnapshot>&, bool final)>;

  TelemetrySampler() = default;
  ~TelemetrySampler() { Stop(); }
  TelemetrySampler(const TelemetrySampler&) = delete;
  TelemetrySampler& operator=(const TelemetrySampler&) = delete;

  /// Spawns the sampling thread. No-op if already running. `on_tick` may be
  /// null (RSS sampling alone still runs).
  void Start(const Options& options, TickFn on_tick = nullptr);
  /// Signals the thread, joins it, and delivers the final tick. No-op if
  /// not running. Safe to call repeatedly.
  void Stop();

  bool running() const { return thread_.joinable(); }
  /// Ticks delivered so far (tests; includes the final one after Stop).
  std::uint64_t ticks() const;

 private:
  void Loop();
  void SampleOnce(bool final);

  Options options_;
  TickFn on_tick_;
  std::thread thread_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool stop_requested_ = false;
  std::uint64_t ticks_ = 0;
};

}  // namespace obs
}  // namespace disc

#endif  // DISC_OBS_SAMPLER_H_
