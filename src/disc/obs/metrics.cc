#include "disc/obs/metrics.h"

#include <bit>

namespace disc {
namespace obs {

std::size_t AllocateThreadShard() {
  static std::atomic<std::size_t> next{0};
  return next.fetch_add(1, std::memory_order_relaxed);
}

void Gauge::Set(double v) {
  value_.store(v, std::memory_order_relaxed);
  tick_.store(MetricsRegistry::Global().gauge_tick_.fetch_add(
                  1, std::memory_order_acq_rel) +
                  1,
              std::memory_order_release);
}

void Histogram::Record(std::uint64_t v) {
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
  buckets_[std::bit_width(v)].fetch_add(1, std::memory_order_relaxed);
  Widen(v, v);
}

void Histogram::Add(const HistogramTally& tally) {
  if (tally.count == 0) return;
  count_.fetch_add(tally.count, std::memory_order_relaxed);
  sum_.fetch_add(tally.sum, std::memory_order_relaxed);
  for (std::size_t b = 0; b < kBuckets; ++b) {
    if (tally.buckets[b] != 0) {
      buckets_[b].fetch_add(tally.buckets[b], std::memory_order_relaxed);
    }
  }
  Widen(tally.min, tally.max);
}

void Histogram::Widen(std::uint64_t lo, std::uint64_t hi) {
  std::uint64_t cur = min_.load(std::memory_order_relaxed);
  while (lo < cur && !min_.compare_exchange_weak(cur, lo,
                                                 std::memory_order_relaxed)) {
  }
  cur = max_.load(std::memory_order_relaxed);
  while (hi > cur && !max_.compare_exchange_weak(cur, hi,
                                                 std::memory_order_relaxed)) {
  }
}

double Histogram::mean() const {
  const std::uint64_t n = count();
  return n == 0 ? 0.0 : static_cast<double>(sum()) / static_cast<double>(n);
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* const registry = new MetricsRegistry();
  return *registry;
}

Counter* MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  std::unique_ptr<Counter>& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  std::unique_ptr<Gauge>& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* MetricsRegistry::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  std::unique_ptr<Histogram>& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return slot.get();
}

void MetricsRegistry::SnapshotLocked(MetricsSnapshot* snap) const {
  for (const auto& [name, c] : counters_) snap->counters[name] = c->value();
  for (const auto& [name, h] : histograms_) {
    snap->counters[name + ".count"] = h->count();
    snap->counters[name + ".sum"] = h->sum();
  }
  snap->gauge_tick = gauge_tick();
}

MetricsExport MetricsRegistry::ExportAll() const {
  MetricsExport out;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, c] : counters_) out.counters[name] = c->value();
  for (const auto& [name, g] : gauges_) {
    if (g->last_set_tick() > 0) out.gauges[name] = g->value();
  }
  for (const auto& [name, h] : histograms_) {
    MetricsExport::HistogramStats& s = out.histograms[name];
    s.count = h->count();
    s.sum = h->sum();
    s.min = h->min();
    s.max = h->max();
  }
  return out;
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snap;
  std::lock_guard<std::mutex> lock(mu_);
  SnapshotLocked(&snap);
  return snap;
}

void MetricsRegistry::HarvestSince(
    const MetricsSnapshot& before,
    std::vector<std::pair<std::string, std::uint64_t>>* counters,
    std::vector<std::pair<std::string, double>>* gauges) const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot now;
  SnapshotLocked(&now);
  for (const auto& [name, value] : now.counters) {
    std::uint64_t old = 0;
    const auto it = before.counters.find(name);
    if (it != before.counters.end()) old = it->second;
    if (value > old) counters->emplace_back(name, value - old);
  }
  for (const auto& [name, g] : gauges_) {
    if (g->last_set_tick() > before.gauge_tick) {
      gauges->emplace_back(name, g->value());
    }
  }
}

void MetricsRegistry::ResetAll() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, c] : counters_) {
    for (Counter::Cell& cell : c->cells_) {
      cell.v.store(0, std::memory_order_relaxed);
    }
  }
  for (const auto& [name, g] : gauges_) {
    g->value_.store(0.0, std::memory_order_relaxed);
    g->tick_.store(0, std::memory_order_relaxed);
  }
  for (const auto& [name, h] : histograms_) {
    h->count_.store(0, std::memory_order_relaxed);
    h->sum_.store(0, std::memory_order_relaxed);
    h->min_.store(Histogram::kNoMin, std::memory_order_relaxed);
    h->max_.store(0, std::memory_order_relaxed);
    for (std::atomic<std::uint64_t>& b : h->buckets_) {
      b.store(0, std::memory_order_relaxed);
    }
  }
  gauge_tick_.store(0, std::memory_order_relaxed);
}

}  // namespace obs
}  // namespace disc
