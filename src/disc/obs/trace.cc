#include "disc/obs/trace.h"

#include "disc/common/file_util.h"
#include "disc/obs/json.h"

namespace disc {
namespace obs {
namespace {

constexpr std::uint32_t kNoTid = ~std::uint32_t{0};

struct Open {
  std::string name;
  std::uint64_t start_us;
};

// Per-thread tracer state: the open-span stack, the lane id and the name
// the lane gets when the thread registers it. Lives in the thread, so
// Begin/End never take the tracer mutex for stack work.
struct ThreadState {
  std::uint32_t tid = kNoTid;
  std::string name;
  std::vector<Open> stack;
};

ThreadState& LocalState() {
  static thread_local ThreadState state;
  return state;
}

}  // namespace

Tracer& Tracer::Global() {
  static Tracer* const tracer = new Tracer();
  return *tracer;
}

void Tracer::set_enabled(bool on) {
  if (on) {
    std::int64_t expected = 0;
    epoch_ns_.compare_exchange_strong(
        expected,
        std::chrono::steady_clock::now().time_since_epoch().count(),
        std::memory_order_acq_rel);
    // The enabling thread is the driver: it registers its lane now, as
    // "main" unless it already has another name.
    ThreadState& state = LocalState();
    if (state.tid == kNoTid && state.name.empty()) state.name = "main";
    CurrentTid();
  }
  enabled_.store(on, std::memory_order_relaxed);
}

std::uint64_t Tracer::NowMicros() const {
  const std::int64_t now =
      std::chrono::steady_clock::now().time_since_epoch().count();
  const std::int64_t epoch = epoch_ns_.load(std::memory_order_acquire);
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::duration(now - epoch))
          .count());
}

std::uint32_t Tracer::CurrentTid() {
  ThreadState& state = LocalState();
  if (state.tid == kNoTid) {
    std::lock_guard<std::mutex> lock(mu_);
    state.tid = static_cast<std::uint32_t>(thread_names_.size());
    thread_names_.push_back(state.name.empty()
                                ? "thread-" + std::to_string(state.tid)
                                : state.name);
  }
  return state.tid;
}

void Tracer::SetCurrentThreadName(const std::string& name) {
  ThreadState& state = LocalState();
  state.name = name;
  if (state.tid == kNoTid) return;  // the lane takes it when registered
  std::lock_guard<std::mutex> lock(mu_);
  thread_names_[state.tid] = name;
}

void Tracer::Begin(std::string name) {
  if (!enabled()) return;
  LocalState().stack.push_back({std::move(name), NowMicros()});
}

void Tracer::End() {
  ThreadState& state = LocalState();
  if (state.stack.empty()) return;
  Open open = std::move(state.stack.back());
  state.stack.pop_back();
  const std::uint64_t end_us = NowMicros();
  const std::uint32_t tid = CurrentTid();
  std::lock_guard<std::mutex> lock(mu_);
  if (events_.size() >= kMaxEvents) {
    ++dropped_;
    return;
  }
  Event e;
  e.name = std::move(open.name);
  e.start_us = open.start_us;
  e.dur_us = end_us - open.start_us;
  e.depth = static_cast<std::uint32_t>(state.stack.size());
  e.tid = tid;
  events_.push_back(std::move(e));
}

std::uint64_t Tracer::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

std::size_t Tracer::open_spans() const { return LocalState().stack.size(); }

void Tracer::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  events_.clear();
  dropped_ = 0;
}

std::string Tracer::ToChromeTraceJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  // The Chrome trace-event format: one "X" (complete) event per span;
  // nesting is inferred from timestamp containment within a (pid, tid).
  JsonWriter w;
  w.BeginObject();
  w.Key("traceEvents");
  w.BeginArray();
  w.BeginObject();
  w.Key("name").String("process_name");
  w.Key("ph").String("M");
  w.Key("pid").Uint(1);
  w.Key("tid").Uint(0);
  w.Key("args");
  w.BeginObject();
  w.Key("name").String("disc");
  w.EndObject();
  w.EndObject();
  for (std::size_t tid = 0; tid < thread_names_.size(); ++tid) {
    w.BeginObject();
    w.Key("name").String("thread_name");
    w.Key("ph").String("M");
    w.Key("pid").Uint(1);
    w.Key("tid").Uint(tid);
    w.Key("args");
    w.BeginObject();
    w.Key("name").String(thread_names_[tid]);
    w.EndObject();
    w.EndObject();
  }
  for (const Event& e : events_) {
    w.BeginObject();
    w.Key("name").String(e.name);
    w.Key("cat").String("disc");
    w.Key("ph").String("X");
    w.Key("ts").Uint(e.start_us);
    w.Key("dur").Uint(e.dur_us);
    w.Key("pid").Uint(1);
    w.Key("tid").Uint(e.tid);
    w.EndObject();
  }
  w.EndArray();
  w.Key("displayTimeUnit").String("ms");
  if (dropped_ > 0) {
    w.Key("droppedSpans").Uint(dropped_);
  }
  w.EndObject();
  return w.TakeString();
}

bool Tracer::WriteChromeTrace(const std::string& path,
                              std::string* error) const {
  // Atomic (temp + rename) so an interrupted run cannot clobber a previous
  // good trace with a truncated one.
  const Status status = WriteFileAtomic(path, ToChromeTraceJson());
  if (!status.ok()) {
    if (error != nullptr) *error = status.message();
    return false;
  }
  return true;
}

}  // namespace obs
}  // namespace disc
