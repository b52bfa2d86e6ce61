#include "disc/obs/sampler.h"

#include <algorithm>
#include <chrono>

#include "disc/obs/memory.h"
#include "disc/obs/metrics.h"

namespace disc {
namespace obs {

void TelemetrySampler::Start(const Options& options, TickFn on_tick) {
  if (thread_.joinable()) return;
  options_ = options;
  options_.period_ms = std::max<std::uint64_t>(options_.period_ms, 10);
  on_tick_ = std::move(on_tick);
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_requested_ = false;
    ticks_ = 0;
  }
  thread_ = std::thread([this] { Loop(); });
}

void TelemetrySampler::Stop() {
  if (!thread_.joinable()) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_requested_ = true;
  }
  cv_.notify_all();
  thread_.join();
  SampleOnce(/*final=*/true);
}

std::uint64_t TelemetrySampler::ticks() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ticks_;
}

void TelemetrySampler::Loop() {
  const auto period = std::chrono::milliseconds(options_.period_ms);
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_requested_) {
    if (cv_.wait_for(lock, period, [this] { return stop_requested_; })) {
      break;
    }
    lock.unlock();
    SampleOnce(/*final=*/false);
    lock.lock();
  }
}

void TelemetrySampler::SampleOnce(bool final) {
  RunRegistry& registry = RunRegistry::Global();
  const std::uint64_t rss = CurrentRssBytes();
  if (rss > 0) {
    DISC_OBS_GAUGE(g_rss, "proc.rss_bytes");
    DISC_OBS_SET(g_rss, static_cast<double>(rss));
    for (const auto& tel : registry.ActiveRuns()) tel->ObserveRss(rss);
  }
  if (on_tick_) on_tick_(registry.SnapshotActive(), final);
  std::lock_guard<std::mutex> lock(mu_);
  ++ticks_;
}

}  // namespace obs
}  // namespace disc
