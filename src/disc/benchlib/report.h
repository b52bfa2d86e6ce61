// Report helpers for the benchmark binaries: every bench prints a short
// provenance banner (what paper artifact it regenerates, what workload it
// ran) followed by a markdown table that drops straight into
// EXPERIMENTS.md.
//
// On top of the human output, every bench can emit a machine-readable
// BENCH_<name>.json (workload shape, per-miner wall time, work counters,
// peak RSS) and a chrome://tracing span file. ObsSession wires the three
// standard flags --stats, --trace-out=<file>, --json-out=<file> into a
// driver in one line each.
#ifndef DISC_BENCHLIB_REPORT_H_
#define DISC_BENCHLIB_REPORT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "disc/common/flags.h"
#include "disc/obs/mine_stats.h"
#include "disc/obs/sampler.h"
#include "disc/seq/database.h"

namespace disc {

/// Library version string baked in at configure time (`git describe`;
/// "unknown" outside a git checkout).
std::string LibraryVersion();

/// Prints the bench banner: which table/figure, the workload shape, the
/// library version, and the scale disclaimer when running below paper size.
void PrintBanner(const std::string& artifact, const std::string& setup,
                 bool scaled_down);

/// One-line database shape summary ("|DB|=10000 seqs, avg 8.1 txns x 7.9
/// items"). O(1): the database maintains its aggregates.
std::string DescribeDatabase(const SequenceDatabase& db);

/// Uniform --help across the bench drivers: when --help was given, prints
/// the usage line to stdout — the driver's own flags first, then the flags
/// every driver shares (--threads plus the ObsSession telemetry flags) —
/// and returns true; the caller returns 0 (--help is a success, not a
/// usage error — docs/ROBUSTNESS.md exit-code convention).
///
///   if (PrintBenchUsage(flags, "bench_fig9_minsup",
///                       "[--ncust=N] [--dense] [--seed=N] [--full]")) {
///     return 0;
///   }
bool PrintBenchUsage(const Flags& flags, const std::string& name,
                     const std::string& specific);

/// Workload shape recorded into a bench report.
struct WorkloadInfo {
  std::string generator;  ///< "quest", "spmf:<path>", ...
  std::size_t db_sequences = 0;
  std::uint64_t total_items = 0;
  std::uint64_t total_transactions = 0;
  double avg_txns_per_customer = 0.0;
  double avg_items_per_txn = 0.0;
  std::uint32_t max_item = 0;
  std::uint32_t min_support_count = 0;  ///< 0 when the bench sweeps it
};

/// Fills the database-derived fields of a WorkloadInfo.
WorkloadInfo MakeWorkloadInfo(const SequenceDatabase& db,
                              const std::string& generator);

/// A machine-readable bench report: workload shape plus one MineStats per
/// miner run, serialized as BENCH_<name>.json.
class BenchReport {
 public:
  BenchReport(std::string bench_name, WorkloadInfo workload)
      : bench_name_(std::move(bench_name)), workload_(std::move(workload)) {}

  void AddRun(const obs::MineStats& stats) { runs_.push_back(stats); }
  const std::vector<obs::MineStats>& runs() const { return runs_; }

  /// The report as a JSON document (schema: docs/OBSERVABILITY.md).
  std::string ToJson() const;

 private:
  std::string bench_name_;
  WorkloadInfo workload_;
  std::vector<obs::MineStats> runs_;
};

/// Structural check of a BenchReport JSON document: parses it and verifies
/// the schema fields the tooling relies on (bench/library_version/workload
/// keys, per-run miner + wall_seconds + counters). Returns true when valid;
/// otherwise false with a diagnostic in `*error`. ObsSession::Finish runs
/// it on every report before writing it.
bool ValidateBenchReportJson(const std::string& json, std::string* error);

/// One-line wiring of the standard observability flags into a bench driver:
///
///   ObsSession obs("fig9_minsup", flags);     // after Flags::Parse
///   ...
///   obs.SetWorkload(MakeWorkloadInfo(db, "quest"));
///   obs.Record(miner.last_stats());           // after each Mine()
///   ...
///   return obs.Finish() ? 0 : 1;              // writes the files
///
/// --stats prints each recorded MineStats; --trace-out=<file> enables the
/// span tracer and writes a Chrome trace; --json-out=<file> writes the
/// BenchReport.
///
/// Live-telemetry flags (the same session wires them for seqmine and every
/// bench driver):
///   --progress             stderr ticker: one line per sampler tick and
///                          per in-flight run ("run=1 miner=disc-all
///                          partitions=12/58 pct=20.7% ... eta=1.2s"),
///                          powered by a background TelemetrySampler that
///                          also gives MineStats its per-run peak RSS
///   --progress-period-ms=N sampler period (default 200, min 10)
///   --events-out=<file>    structured JSONL event log (obs/event_log.h),
///                          opened at construction, validated at Finish
///   --metrics-out=<file>   Prometheus text exposition of the metrics +
///                          run registries, written at Finish
class ObsSession {
 public:
  ObsSession(std::string bench_name, const Flags& flags);
  ~ObsSession();

  void SetWorkload(WorkloadInfo workload) { workload_ = std::move(workload); }

  /// Records one mining run; prints it when --stats was given.
  void Record(const obs::MineStats& stats);

  /// Stops the sampler, writes the requested outputs, and validates the
  /// telemetry files it wrote (JSON report, Prometheus exposition, JSONL
  /// event log). Returns false (after printing a diagnostic to stderr) if
  /// any write or validation failed.
  bool Finish();

  const std::string& json_out() const { return json_out_; }
  const std::string& trace_out() const { return trace_out_; }
  const std::string& metrics_out() const { return metrics_out_; }
  const std::string& events_out() const { return events_out_; }
  bool stats_enabled() const { return print_stats_; }
  bool progress_enabled() const { return progress_; }

 private:
  std::string bench_name_;
  std::string json_out_;
  std::string trace_out_;
  std::string metrics_out_;
  std::string events_out_;
  bool print_stats_ = false;
  bool progress_ = false;
  bool finished_ = false;
  WorkloadInfo workload_;
  std::vector<obs::MineStats> runs_;
  obs::TelemetrySampler sampler_;
};

}  // namespace disc

#endif  // DISC_BENCHLIB_REPORT_H_
