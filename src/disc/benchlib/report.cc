#include "disc/benchlib/report.h"

#include <cmath>
#include <cstdio>

#include "disc/common/file_util.h"
#include "disc/obs/event_log.h"
#include "disc/obs/expose.h"
#include "disc/obs/json.h"
#include "disc/obs/trace.h"

namespace disc {

std::string LibraryVersion() {
#ifdef DISC_GIT_DESCRIBE
  return DISC_GIT_DESCRIBE;
#else
  return "unknown";
#endif
}

void PrintBanner(const std::string& artifact, const std::string& setup,
                 bool scaled_down) {
  std::printf("==== %s ====\n[disc %s] %s\n", artifact.c_str(),
              LibraryVersion().c_str(), setup.c_str());
  if (scaled_down) {
    std::printf(
        "(scaled-down defaults for CI speed; pass --full for paper-sized "
        "inputs)\n");
  }
  std::fflush(stdout);
}

std::string DescribeDatabase(const SequenceDatabase& db) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "|DB|=%zu seqs, avg %.2f txns/customer x %.2f items/txn, "
                "%llu item occurrences",
                db.size(), db.AvgTransactionsPerCustomer(),
                db.AvgItemsPerTransaction(),
                static_cast<unsigned long long>(db.TotalItems()));
  return buf;
}

bool PrintBenchUsage(const Flags& flags, const std::string& name,
                     const std::string& specific) {
  if (!flags.GetBool("help", false)) return false;
  std::printf("usage: %s %s\n", name.c_str(), specific.c_str());
  std::printf(
      "  common: [--threads=N] [--stats] [--json-out=FILE]\n"
      "          [--trace-out=FILE] [--progress] [--progress-period-ms=N]\n"
      "          [--metrics-out=FILE] [--events-out=FILE]\n"
      "(docs/BENCHMARKS.md for the workloads, docs/OBSERVABILITY.md for the\n"
      "telemetry flags; pass --full for paper-sized inputs)\n");
  return true;
}

WorkloadInfo MakeWorkloadInfo(const SequenceDatabase& db,
                              const std::string& generator) {
  WorkloadInfo w;
  w.generator = generator;
  w.db_sequences = db.size();
  w.total_items = db.TotalItems();
  w.total_transactions = db.TotalTransactions();
  w.avg_txns_per_customer = db.AvgTransactionsPerCustomer();
  w.avg_items_per_txn = db.AvgItemsPerTransaction();
  w.max_item = db.max_item();
  return w;
}

namespace {

void WriteRun(obs::JsonWriter* w, const obs::MineStats& stats) {
  w->BeginObject();
  w->Key("miner").String(stats.miner);
  w->Key("wall_seconds").Double(stats.wall_seconds);
  w->Key("num_patterns").Uint(stats.num_patterns);
  w->Key("max_length").Uint(stats.max_length);
  w->Key("db_sequences").Uint(stats.db_sequences);
  w->Key("peak_rss_bytes").Uint(stats.peak_rss_bytes);
  w->Key("cancelled").Bool(stats.cancelled);
  w->Key("deadline_exceeded").Bool(stats.deadline_exceeded);
  w->Key("counters").BeginObject();
  for (const auto& [name, value] : stats.counters) {
    w->Key(name).Uint(value);
  }
  w->EndObject();
  w->Key("gauges").BeginObject();
  for (const auto& [name, value] : stats.gauges) {
    w->Key(name).Double(value);
  }
  w->EndObject();
  w->EndObject();
}

}  // namespace

std::string BenchReport::ToJson() const {
  obs::JsonWriter w;
  w.BeginObject();
  w.Key("bench").String(bench_name_);
  w.Key("library_version").String(LibraryVersion());
  w.Key("workload").BeginObject();
  w.Key("generator").String(workload_.generator);
  w.Key("db_sequences").Uint(workload_.db_sequences);
  w.Key("total_items").Uint(workload_.total_items);
  w.Key("total_transactions").Uint(workload_.total_transactions);
  w.Key("avg_txns_per_customer").Double(workload_.avg_txns_per_customer);
  w.Key("avg_items_per_txn").Double(workload_.avg_items_per_txn);
  w.Key("max_item").Uint(workload_.max_item);
  w.Key("min_support_count").Uint(workload_.min_support_count);
  w.EndObject();
  w.Key("runs").BeginArray();
  for (const obs::MineStats& stats : runs_) {
    WriteRun(&w, stats);
  }
  w.EndArray();
  w.EndObject();
  return w.TakeString();
}

bool ValidateBenchReportJson(const std::string& json, std::string* error) {
  auto fail = [error](const std::string& msg) {
    if (error != nullptr) *error = msg;
    return false;
  };
  obs::JsonValue root;
  std::string parse_error;
  if (!obs::JsonParse(json, &root, &parse_error)) {
    return fail("parse error: " + parse_error);
  }
  if (!root.is_object()) return fail("top level is not an object");
  for (const char* key : {"bench", "library_version"}) {
    const obs::JsonValue* v = root.Find(key);
    if (v == nullptr || !v->is_string()) {
      return fail(std::string("missing string field '") + key + "'");
    }
  }
  const obs::JsonValue* workload = root.Find("workload");
  if (workload == nullptr || !workload->is_object()) {
    return fail("missing object field 'workload'");
  }
  for (const char* key : {"db_sequences", "total_items",
                          "avg_txns_per_customer"}) {
    const obs::JsonValue* v = workload->Find(key);
    if (v == nullptr || !v->is_number()) {
      return fail(std::string("workload lacks numeric field '") + key + "'");
    }
  }
  const obs::JsonValue* runs = root.Find("runs");
  if (runs == nullptr || !runs->is_array()) {
    return fail("missing array field 'runs'");
  }
  for (std::size_t i = 0; i < runs->array_items().size(); ++i) {
    const obs::JsonValue& run = runs->array_items()[i];
    const std::string at = "runs[" + std::to_string(i) + "]";
    if (!run.is_object()) return fail(at + " is not an object");
    const obs::JsonValue* miner = run.Find("miner");
    if (miner == nullptr || !miner->is_string() ||
        miner->string_value().empty()) {
      return fail(at + " lacks a non-empty 'miner'");
    }
    const obs::JsonValue* wall = run.Find("wall_seconds");
    if (wall == nullptr || !wall->is_number() || wall->number_value() < 0 ||
        !std::isfinite(wall->number_value())) {
      return fail(at + " lacks a finite non-negative 'wall_seconds'");
    }
    for (const char* key : {"num_patterns", "peak_rss_bytes"}) {
      const obs::JsonValue* v = run.Find(key);
      if (v == nullptr || !v->is_number()) {
        return fail(at + " lacks numeric field '" + key + "'");
      }
    }
    const obs::JsonValue* counters = run.Find("counters");
    if (counters == nullptr || !counters->is_object()) {
      return fail(at + " lacks object field 'counters'");
    }
    for (const auto& [name, value] : counters->object_items()) {
      if (!value.is_number()) {
        return fail(at + " counter '" + name + "' is not a number");
      }
    }
  }
  return true;
}

ObsSession::ObsSession(std::string bench_name, const Flags& flags)
    : bench_name_(std::move(bench_name)),
      json_out_(flags.GetString("json-out", "")),
      trace_out_(flags.GetString("trace-out", "")),
      metrics_out_(flags.GetString("metrics-out", "")),
      events_out_(flags.GetString("events-out", "")),
      print_stats_(flags.GetBool("stats", false)),
      progress_(flags.GetBool("progress", false)) {
  if (!trace_out_.empty()) obs::Tracer::Global().set_enabled(true);
  if (!events_out_.empty()) {
    const Status status = obs::EventLog::Global().Open(events_out_);
    if (!status.ok()) {
      std::fprintf(stderr, "events-out: %s\n", status.message().c_str());
      events_out_.clear();
    }
  }
  if (progress_) {
    obs::TelemetrySampler::Options options;
    options.period_ms = static_cast<std::uint64_t>(
        flags.GetInt("progress-period-ms", 200));
    sampler_.Start(options, [](const std::vector<obs::ProgressSnapshot>& runs,
                               bool final) {
      // The final tick fires after the last run left the active set; its
      // 100% state is reported by the run snapshot printed below.
      for (const obs::ProgressSnapshot& run : runs) {
        std::fprintf(stderr, "%s\n", run.ToString().c_str());
      }
      if (final) {
        for (const obs::ProgressSnapshot& run :
             obs::RunRegistry::Global().SnapshotAll()) {
          std::fprintf(stderr, "%s\n", run.ToString().c_str());
        }
      }
    });
  }
}

ObsSession::~ObsSession() {
  // A driver that exits early (usage error, load failure) still stops the
  // sampler thread and closes the event sink.
  if (!finished_) {
    sampler_.Stop();
    obs::EventLog::Global().Close();
  }
}

void ObsSession::Record(const obs::MineStats& stats) {
  runs_.push_back(stats);
  if (print_stats_) {
    std::printf("%s\n", stats.ToString().c_str());
    std::fflush(stdout);
  }
}

bool ObsSession::Finish() {
  bool ok = true;
  std::string error;
  finished_ = true;
  sampler_.Stop();  // delivers the final --progress tick
  if (!events_out_.empty()) {
    obs::EventLog& log = obs::EventLog::Global();
    const std::uint64_t records = log.records_written();
    log.Close();
    // Validate what we just wrote: the event log is an API other tools
    // tail, so a malformed file is a bug worth failing the run over. The
    // exposition and the JSON report below are validated the same way.
    std::string text;
    const Status read = ReadFileToString(events_out_, &text);
    if (!read.ok()) {
      std::fprintf(stderr, "events-out: %s\n", read.message().c_str());
      ok = false;
    } else if (!obs::ValidateEventLogJsonl(text, &error)) {
      std::fprintf(stderr, "events-out: invalid event log: %s\n",
                   error.c_str());
      ok = false;
    } else {
      std::printf("wrote %s (%llu events)\n", events_out_.c_str(),
                  static_cast<unsigned long long>(records));
    }
  }
  if (!metrics_out_.empty()) {
    const std::string text = obs::RenderPrometheusText();
    if (!obs::ValidatePrometheusText(text, &error)) {
      std::fprintf(stderr, "metrics-out: invalid exposition: %s\n",
                   error.c_str());
      ok = false;
    } else if (const Status status = WriteFileAtomic(metrics_out_, text);
               !status.ok()) {
      std::fprintf(stderr, "metrics-out: %s\n", status.message().c_str());
      ok = false;
    } else {
      std::printf("wrote %s\n", metrics_out_.c_str());
    }
  }
  if (!json_out_.empty()) {
    BenchReport report(bench_name_, workload_);
    for (const obs::MineStats& stats : runs_) report.AddRun(stats);
    const std::string json = report.ToJson();
    // Checked before an atomic (temp + rename) write: a drifted report
    // fails the run, and a crash or injected failure mid-write never
    // leaves a truncated report where a previous good one stood.
    if (!ValidateBenchReportJson(json, &error)) {
      std::fprintf(stderr, "json-out: invalid report: %s\n", error.c_str());
      ok = false;
    } else if (const Status status = WriteFileAtomic(json_out_, json + '\n');
               !status.ok()) {
      std::fprintf(stderr, "json-out: %s\n", status.message().c_str());
      ok = false;
    } else {
      std::printf("wrote %s (%zu runs)\n", json_out_.c_str(), runs_.size());
    }
  }
  if (!trace_out_.empty()) {
    if (obs::Tracer::Global().WriteChromeTrace(trace_out_, &error)) {
      std::printf("wrote %s (%zu spans)\n", trace_out_.c_str(),
                  obs::Tracer::Global().events().size());
    } else {
      std::fprintf(stderr, "trace-out: %s\n", error.c_str());
      ok = false;
    }
  }
  std::fflush(stdout);
  return ok;
}

}  // namespace disc
