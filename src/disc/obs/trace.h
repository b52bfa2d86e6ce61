// Scoped span tracer: records nested phase timings (load -> freq1 ->
// freq2/counting-array -> disc/level-k -> nrr, ...) and exports them in the
// Chrome trace-event JSON format, loadable by chrome://tracing or Perfetto.
//
// The tracer is off by default; enabling it (typically via a bench driver's
// --trace-out flag) starts recording. Disabled Begin/End calls cost one
// relaxed atomic load.
//
// Thread safety: each thread keeps its own open-span stack (spans nest per
// thread), and every completed span carries a small per-thread lane id, so
// the Chrome export shows one lane per pool worker. A thread registers its
// lane when it records its first span, so threads that never trace (every
// pool worker of an untraced run) leave nothing behind. The thread that
// calls set_enabled(true) registers at once as "main"; ThreadPool workers
// name themselves "pool-worker-<i>"; other threads get "thread-<tid>".
// Completed events funnel into one mutex-guarded buffer — spans wrap coarse
// phases (a mine run, a partition, a pool task), never per-sequence work,
// so the lock is cold.
#ifndef DISC_OBS_TRACE_H_
#define DISC_OBS_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#ifndef DISC_OBS_ENABLED
#define DISC_OBS_ENABLED 1
#endif

namespace disc {
namespace obs {

/// Span tracer. See file comment.
class Tracer {
 public:
  /// One completed span. Timestamps are microseconds relative to the
  /// tracer's epoch (first enable). `depth` is the calling thread's nesting
  /// level (0 = outermost) at the time the span was open; `tid` is the
  /// thread's lane id.
  struct Event {
    std::string name;
    std::uint64_t start_us = 0;
    std::uint64_t dur_us = 0;
    std::uint32_t depth = 0;
    std::uint32_t tid = 0;
  };

  static Tracer& Global();

  void set_enabled(bool on);
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Opens a span on the calling thread. Every Begin must be balanced by an
  /// End on the same thread (use ScopedSpan).
  void Begin(std::string name);
  /// Closes the calling thread's innermost open span and records its Event.
  void End();

  /// Names the calling thread's lane in trace exports: renames a
  /// registered lane, or names the lane the thread registers with its
  /// first span. Registers nothing by itself.
  void SetCurrentThreadName(const std::string& name);

  /// Completed events. Only meaningful at quiescent points (no concurrent
  /// End calls) — callers are the export/test paths after mining finished.
  const std::vector<Event>& events() const { return events_; }
  /// Spans discarded after the in-memory cap was hit.
  std::uint64_t dropped() const;
  /// Depth of the calling thread's currently open spans.
  std::size_t open_spans() const;

  /// Discards all recorded events (open spans stay open).
  void Clear();

  /// The recorded events as a Chrome trace-event JSON document, one lane
  /// ("thread") per registered tid.
  std::string ToChromeTraceJson() const;

  /// Writes ToChromeTraceJson() to `path`. On failure returns false and, if
  /// `error` is non-null, stores a description.
  bool WriteChromeTrace(const std::string& path,
                        std::string* error = nullptr) const;

 private:
  Tracer() = default;
  std::uint64_t NowMicros() const;
  /// Lane id of the calling thread, registering it if needed.
  std::uint32_t CurrentTid();

  // In-memory cap: a runaway per-partition span pattern must not eat the
  // heap; past the cap spans are counted in dropped_ instead.
  static constexpr std::size_t kMaxEvents = 1u << 20;

  std::atomic<bool> enabled_{false};
  /// steady_clock time_since_epoch of the first enable, in clock ticks;
  /// 0 = epoch not set yet. Set once, then read-only.
  std::atomic<std::int64_t> epoch_ns_{0};
  mutable std::mutex mu_;  // guards events_, dropped_, thread_names_
  std::vector<Event> events_;
  std::uint64_t dropped_ = 0;
  std::vector<std::string> thread_names_;  // index = tid
};

/// RAII span: opens on construction (when the tracer is enabled), closes on
/// destruction. The name is copied only when the span opens, so a disabled
/// tracer costs no allocation.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name) {
    if (Tracer::Global().enabled()) {
      active_ = true;
      Tracer::Global().Begin(name);
    }
  }
  ~ScopedSpan() {
    if (active_) Tracer::Global().End();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  bool active_ = false;
};

}  // namespace obs
}  // namespace disc

#define DISC_OBS_SPAN_CONCAT2(a, b) a##b
#define DISC_OBS_SPAN_CONCAT(a, b) DISC_OBS_SPAN_CONCAT2(a, b)

#if DISC_OBS_ENABLED
/// Opens a span for the rest of the enclosing scope. `name` is a
/// `const char*`, typically a literal; it is copied only when the tracer is
/// enabled.
#define DISC_OBS_SPAN(name) \
  ::disc::obs::ScopedSpan DISC_OBS_SPAN_CONCAT(disc_obs_span_, __LINE__)(name)
#else
#define DISC_OBS_SPAN(name) \
  do {                      \
  } while (0)
#endif

#endif  // DISC_OBS_TRACE_H_
