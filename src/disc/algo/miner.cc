#include "disc/algo/miner.h"

#include <cmath>
#include <exception>

#include "disc/algo/gsp.h"
#include "disc/algo/prefixspan.h"
#include "disc/algo/spade.h"
#include "disc/algo/spam.h"
#include "disc/common/check.h"
#include "disc/common/timer.h"
#include "disc/core/disc_all.h"
#include "disc/core/dynamic_disc_all.h"
#include "disc/obs/trace.h"

namespace disc {

MineResult Miner::TryMine(const SequenceDatabase& db,
                          const MineOptions& options) {
  MineResult result;
  stats_ = MineStats{};
  stats_.miner = name();
  stats_.db_sequences = db.size();
  status_ = Status::Ok();
  if (options.min_support_count < 1) {
    status_ = Status::InvalidArgument(
        "min_support_count (delta) must be >= 1");
    result.status = status_;
    return result;
  }

  RunControl ctl(options.cancel, options.deadline_ms);
  ctl_ = &ctl;
#if DISC_OBS_ENABLED
  telemetry_ = obs::RunRegistry::Global().Begin(name(), db.size());
#endif
  obs::StatsHarvest harvest;
  // The span name is built only when the tracer records it.
  std::string span_name;
  if (obs::Tracer::Global().enabled()) span_name = "mine/" + name();
  obs::ScopedSpan span(span_name.c_str());
  Timer timer;
  try {
    result.patterns = DoMine(db, options);
  } catch (const std::exception& e) {
    // A miner bug or an injected fault escaped containment; surface it as
    // a recoverable Status rather than terminating the process. The
    // partial patterns gathered so far are discarded — without the
    // partition-boundary bookkeeping there is no exactness guarantee.
    ctl.ReportError(
        Status::Internal(std::string("mining failed: ") + e.what()));
    result.patterns = PatternSet();
  }
  ctl_ = nullptr;
  stats_.wall_seconds = timer.Seconds();
  stats_.num_patterns = result.patterns.size();
  stats_.max_length = result.patterns.MaxLength();
  stats_.cancelled = ctl.cancelled();
  stats_.deadline_exceeded = ctl.deadline_exceeded();
  harvest.Finish(&stats_);
#if DISC_OBS_ENABLED
  // When the TelemetrySampler observed this run, its per-run high-water
  // mark replaces the process-lifetime VmHWM the harvest recorded — that
  // peak is monotone across runs and misattributes earlier, larger runs.
  if (telemetry_->rss_sampled()) {
    stats_.peak_rss_bytes = telemetry_->rss_high_water_bytes();
  }
  obs::RunRegistry::Global().Finish(telemetry_, stats_.num_patterns,
                                    stats_.wall_seconds, stats_.cancelled,
                                    stats_.deadline_exceeded);
  telemetry_ = nullptr;
#endif
  status_ = ctl.ToStatus();
  result.status = status_;
  return result;
}

PatternSet Miner::Mine(const SequenceDatabase& db, const MineOptions& options) {
  MineResult result = TryMine(db, options);
  // Misuse keeps the historical loud-abort contract on this surface;
  // environmental/stop statuses are reported via last_status() alongside
  // the (partial) patterns.
  DISC_CHECK_MSG(result.status.code() != StatusCode::kInvalidArgument,
                 result.status.message().c_str());
  return std::move(result.patterns);
}

std::uint32_t MineOptions::CountForFraction(std::size_t db_size,
                                            double fraction) {
  DISC_CHECK(fraction > 0.0 && fraction <= 1.0);
  const double raw = fraction * static_cast<double>(db_size);
  std::uint32_t count = static_cast<std::uint32_t>(std::ceil(raw - 1e-9));
  if (count < 1) count = 1;
  return count;
}

StatusOr<std::unique_ptr<Miner>> TryCreateMiner(const std::string& name) {
  std::unique_ptr<Miner> miner;
  if (name == "prefixspan") {
    miner = std::make_unique<PrefixSpan>(PrefixSpan::Projection::kPhysical);
  } else if (name == "pseudo") {
    miner = std::make_unique<PrefixSpan>(PrefixSpan::Projection::kPseudo);
  } else if (name == "gsp") {
    miner = std::make_unique<Gsp>();
  } else if (name == "spade") {
    miner = std::make_unique<Spade>();
  } else if (name == "spam") {
    miner = std::make_unique<Spam>();
  } else if (name == "disc-all") {
    miner = std::make_unique<DiscAll>();
  } else if (name == "disc-all-nobilevel") {
    DiscAll::Config config;
    config.bilevel = false;
    miner = std::make_unique<DiscAll>(config);
  } else if (name == "dynamic-disc-all") {
    miner = std::make_unique<DynamicDiscAll>();
  } else {
    return Status::InvalidArgument("unknown miner: " + name);
  }
  return miner;
}

std::unique_ptr<Miner> CreateMiner(const std::string& name) {
  auto result = TryCreateMiner(name);
  DISC_CHECK_MSG(result.ok(), result.status().message().c_str());
  return std::move(*result);
}

std::vector<std::string> AllMinerNames() {
  return {"prefixspan", "pseudo",           "gsp",
          "spade",      "spam",             "disc-all",
          "disc-all-nobilevel", "dynamic-disc-all"};
}

}  // namespace disc
