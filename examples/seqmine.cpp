// seqmine — the command-line face of the library: mine an SPMF sequence
// database with any of the seven algorithms, write SPMF-format patterns,
// and report summary statistics. A thin client of the engine layer
// (engine/engine.h): load and mine go through an Engine, the same path
// the seqmined server and the bench drivers drive.
//
//   $ ./seqmine input.spmf [--algo=disc-all] [--minsup=0.01 | --delta=25]
//               [--max-length=N] [--threads=N] [--top-k=K] [--maximal]
//               [--closed] [--out=patterns.spmf] [--quiet] [--stats]
//               [--permissive] [--deadline-ms=N] [--failpoints=SPEC]
//               [--trace-out=trace.json] [--json-out=report.json]
//               [--progress] [--progress-period-ms=N]
//               [--metrics-out=m.prom] [--events-out=e.jsonl]
//   $ ./seqmine --connect=ADDR [input.spmf] [--minsup=F | --delta=N] ...
//   $ ./seqmine input.spmf --pack=out.dsa [--shards=N]
//   $ ./seqmine --mine-shards=BASE --shards=N [mine options]
//
// The positional input may be SPMF text or a packed .dsa arena file
// (docs/STORAGE.md) — .dsa loads mmap in O(1) instead of parsing.
// --pack converts the input to a .dsa file (or, with --shards=N, to N
// λ-range shard files next to the output base); --mine-shards mines a
// packed shard set one shard at a time (out-of-core: peak memory is one
// shard) and merges — byte-identical to mining the corpus unsharded.
//
// --stats prints the per-run work counters, --trace-out writes a
// chrome://tracing span file, --json-out a machine-readable report.
// --progress prints a live partition-progress/ETA ticker to stderr (period
// --progress-period-ms, default 200); --metrics-out writes a Prometheus
// text exposition of the run, --events-out a structured JSONL event log
// (docs/OBSERVABILITY.md). --permissive skips (and counts) malformed input
// records instead of failing; --deadline-ms stops the run cooperatively,
// keeping the exact partial result; --failpoints arms fault-injection
// sites (same syntax as the DISC_FAILPOINTS environment variable; see
// docs/ROBUSTNESS.md).
//
// --connect=ADDR ("unix:<path>" or "<host>:<port>") runs one query
// against a socket-mode seqmined (docs/SERVER.md, "Transport &
// admission"): connect (retrying with capped exponential backoff,
// --retries/--retry-base-ms/--retry-max-ms), optionally `load` the
// positional file server-side, send one `mine`, and print the pattern
// block to stdout. An `err busy retry-after-ms=<hint>` shed response is
// retried after max(hint, backoff) — the polite-client half of the
// server's load-shedding contract.
//
// Exit codes (docs/ROBUSTNESS.md): 0 success, 2 usage error, 3 data or
// internal error, 4 stopped by deadline/cancellation (partial result
// written).
//
// Uses the umbrella header, exercising the full public API.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "disc/disc.h"
#include "disc/benchlib/workload.h"
#include "disc/common/flags.h"
#include "disc/common/timer.h"

namespace {

constexpr int kExitOk = 0;
constexpr int kExitUsage = 2;
constexpr int kExitDataError = 3;
constexpr int kExitStopped = 4;

int Usage() {
  std::fprintf(
      stderr,
      "usage: seqmine <input.spmf> [--algo=NAME] [--minsup=F | --delta=N]\n"
      "               [--max-length=N] [--threads=N] [--top-k=K]\n"
      "               [--maximal] [--closed] [--out=FILE] [--quiet]\n"
      "               [--permissive] [--deadline-ms=N] [--failpoints=SPEC]\n"
      "               [--stats] [--trace-out=FILE] [--json-out=FILE]\n"
      "               [--progress] [--progress-period-ms=N]\n"
      "               [--metrics-out=FILE] [--events-out=FILE]\n"
      "       seqmine --connect=ADDR [input.spmf] [--permissive]\n"
      "               [mine options] [--retries=N] [--retry-base-ms=MS]\n"
      "               [--retry-max-ms=MS]  (ADDR: unix:<path> | "
      "<host>:<port>)\n"
      "       seqmine <input.spmf|.dsa> --pack=OUT.dsa [--shards=N]\n"
      "       seqmine --mine-shards=BASE --shards=N [mine options]\n"
      "algorithms:");
  for (const std::string& name : disc::AllMinerNames()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
  return kExitUsage;
}

// One query against a socket-mode seqmined (--connect). Exit codes follow
// the one-shot CLI: 0 complete, 4 partial, 3 connection/protocol failure
// or retries exhausted.
int Connect(const disc::Flags& flags) {
  const std::string address = flags.GetString("connect", "");
  if (address.empty() || flags.positional().size() > 1) return Usage();
  const long long retries = flags.GetInt("retries", 5);
  const long long retry_base = flags.GetInt("retry-base-ms", 100);
  const long long retry_max = flags.GetInt("retry-max-ms", 2000);
  if (retries < 0 || retry_base < 1 || retry_max < retry_base) {
    std::fprintf(stderr,
                 "seqmine: need --retries >= 0 and "
                 "1 <= --retry-base-ms <= --retry-max-ms\n");
    return kExitUsage;
  }
  const bool quiet = flags.GetBool("quiet", false);

  const auto backoff_ms = [&](long long attempt) -> std::uint64_t {
    const long long shift = std::min<long long>(attempt, 16);
    return static_cast<std::uint64_t>(
        std::min<long long>(retry_base << shift, retry_max));
  };

  // Connect, retrying with capped exponential backoff: a server mid-start
  // (or mid-drain-and-restart) is a transient, not a failure.
  int fd = -1;
  for (long long attempt = 0;; ++attempt) {
    disc::StatusOr<int> dial = disc::server::DialAddress(address);
    if (dial.ok()) {
      fd = *dial;
      break;
    }
    if (attempt >= retries) {
      std::fprintf(stderr, "seqmine: %s (after %lld attempts)\n",
                   dial.status().ToString().c_str(), attempt + 1);
      return kExitDataError;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms(attempt)));
  }
  disc::server::FdStream stream(fd);

  std::string line;
  if (!std::getline(stream, line)) {
    std::fprintf(stderr, "seqmine: no greeting from %s\n", address.c_str());
    return kExitDataError;
  }

  if (!flags.positional().empty()) {
    stream << "load " << flags.positional()[0]
           << (flags.GetBool("permissive", false) ? " --permissive" : "")
           << "\n"
           << std::flush;
    if (!std::getline(stream, line) || line.rfind("ok load", 0) != 0) {
      std::fprintf(stderr, "seqmine: load failed: %s\n", line.c_str());
      return kExitDataError;
    }
    if (!quiet) std::fprintf(stderr, "seqmine: %s\n", line.c_str());
  }

  std::string mine = "mine";
  if (flags.Has("delta")) {
    mine += " --delta " + std::to_string(flags.GetInt("delta", 2));
  } else if (flags.Has("minsup")) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), " --minsup %g",
                  flags.GetDouble("minsup", 0.01));
    mine += buf;
  }
  if (flags.Has("algo")) mine += " --algo " + flags.GetString("algo", "");
  if (flags.Has("threads")) {
    mine += " --threads " + std::to_string(flags.GetInt("threads", 1));
  }
  if (flags.Has("max-length")) {
    mine += " --max-length " + std::to_string(flags.GetInt("max-length", 0));
  }
  if (flags.Has("deadline-ms")) {
    mine += " --deadline-ms " + std::to_string(flags.GetInt("deadline-ms", 0));
  }
  if (flags.Has("cancel-after")) {
    mine +=
        " --cancel-after " + std::to_string(flags.GetInt("cancel-after", 0));
  }

  // Send the query; an `err busy` shed response carries the server's
  // retry-after hint, which a polite client honors (taking the larger of
  // the hint and its own exponential backoff).
  for (long long attempt = 0;; ++attempt) {
    stream << mine << "\n" << std::flush;
    if (!std::getline(stream, line)) {
      std::fprintf(stderr, "seqmine: connection to %s lost\n",
                   address.c_str());
      return kExitDataError;
    }
    if (line.rfind("err busy", 0) != 0) break;
    if (attempt >= retries) {
      std::fprintf(stderr, "seqmine: server busy, retries exhausted (%s)\n",
                   line.c_str());
      return kExitDataError;
    }
    std::uint64_t hint = 0;
    const std::size_t pos = line.find("retry-after-ms=");
    if (pos != std::string::npos) {
      hint = std::strtoull(line.c_str() + pos + 15, nullptr, 10);
    }
    std::this_thread::sleep_for(
        std::chrono::milliseconds(std::max(hint, backoff_ms(attempt))));
  }
  if (line.rfind("ok mine", 0) != 0) {
    std::fprintf(stderr, "seqmine: %s\n", line.c_str());
    return kExitDataError;
  }
  if (!quiet) std::fprintf(stderr, "seqmine: %s\n", line.c_str());
  const bool partial = line.find(" status=partial") != std::string::npos;

  // The pattern block, verbatim, up to the bare `end` frame.
  bool saw_end = false;
  while (std::getline(stream, line)) {
    if (line == "end") {
      saw_end = true;
      break;
    }
    std::fputs(line.c_str(), stdout);
    std::fputc('\n', stdout);
  }
  if (!saw_end) {
    std::fprintf(stderr, "seqmine: response truncated (no end frame)\n");
    return kExitDataError;
  }
  stream << "quit\n" << std::flush;
  while (std::getline(stream, line)) {
  }  // drain through `ok quit` so the server sees a clean close
  return partial ? kExitStopped : kExitOk;
}

// Loads the positional input as either format (--pack / --mine-shards
// helpers go straight through seq/io + seq/storage, no engine needed).
disc::StatusOr<disc::SequenceDatabase> LoadInput(const disc::Flags& flags) {
  const std::string& path = flags.positional()[0];
  if (disc::IsDsaPath(path)) return disc::TryLoadDsa(path);
  return disc::TryLoadSpmf(path, flags.GetBool("permissive", false)
                                     ? disc::ParseOptions::Permissive()
                                     : disc::ParseOptions::Strict());
}

// --pack=OUT.dsa [--shards=N]: convert the input to the on-disk arena
// format, optionally split into λ-range shards (docs/STORAGE.md).
int Pack(const disc::Flags& flags) {
  if (flags.positional().size() != 1) return Usage();
  const std::string out = flags.GetString("pack", "");
  const long long shards = flags.GetInt("shards", 1);
  if (out.empty() || shards < 1) {
    std::fprintf(stderr,
                 "seqmine: --pack needs an output path and --shards >= 1\n");
    return kExitUsage;
  }
  auto db = LoadInput(flags);
  if (!db.ok()) {
    std::fprintf(stderr, "seqmine: %s\n", db.status().ToString().c_str());
    return kExitDataError;
  }
  const bool quiet = flags.GetBool("quiet", false);
  if (shards == 1) {
    if (const disc::Status s = disc::SaveDsa(*db, out); !s.ok()) {
      std::fprintf(stderr, "seqmine: %s\n", s.ToString().c_str());
      return kExitDataError;
    }
    if (!quiet) {
      std::printf("packed %zu sequences (%llu items) -> %s\n", db->size(),
                  static_cast<unsigned long long>(db->TotalItems()),
                  out.c_str());
    }
    return kExitOk;
  }
  std::vector<std::string> paths;
  const disc::Status s = disc::PackShards(
      *db, out, static_cast<std::uint32_t>(shards), &paths);
  if (!s.ok()) {
    std::fprintf(stderr, "seqmine: %s\n", s.ToString().c_str());
    return kExitDataError;
  }
  if (!quiet) {
    std::printf("packed %zu sequences into %zu shard%s:\n", db->size(),
                paths.size(), paths.size() == 1 ? "" : "s");
    for (const std::string& p : paths) std::printf("  %s\n", p.c_str());
  }
  return kExitOk;
}

// --mine-shards=BASE --shards=N: out-of-core mine over a packed shard
// set, one mapped shard at a time, merged byte-identically.
int MineShards(const disc::Flags& flags) {
  if (!flags.positional().empty()) return Usage();
  const std::string base = flags.GetString("mine-shards", "");
  const long long shards = flags.GetInt("shards", 0);
  if (base.empty() || shards < 1) {
    std::fprintf(stderr, "seqmine: --mine-shards needs --shards=N (>= 1)\n");
    return kExitUsage;
  }
  const std::uint32_t n = static_cast<std::uint32_t>(shards);
  std::vector<std::string> paths;
  for (std::uint32_t i = 0; i < n; ++i) {
    paths.push_back(disc::ShardPath(base, i, n));
  }

  const std::string algo = flags.GetString("algo", "disc-all");
  disc::MineOptions options;
  if (flags.Has("delta")) {
    const long long delta = flags.GetInt("delta", 2);
    if (delta < 1) {
      std::fprintf(stderr, "seqmine: --delta must be >= 1\n");
      return kExitUsage;
    }
    options.min_support_count = static_cast<std::uint32_t>(delta);
  } else {
    // A fraction resolves against the *unsharded* corpus size, which every
    // shard header records.
    const double minsup = flags.GetDouble("minsup", 0.01);
    if (minsup <= 0.0 || minsup > 1.0) {
      std::fprintf(stderr, "seqmine: --minsup must be in (0, 1]\n");
      return kExitUsage;
    }
    auto info = disc::ReadDsaInfo(paths[0]);
    if (!info.ok()) {
      std::fprintf(stderr, "seqmine: %s\n", info.status().ToString().c_str());
      return kExitDataError;
    }
    options.min_support_count = disc::MineOptions::CountForFraction(
        static_cast<std::size_t>(info->shard.total_customers), minsup);
  }
  options.max_length = static_cast<std::uint32_t>(flags.GetInt("max-length", 0));
  options.threads = disc::ThreadsFromFlags(flags);
  const long long deadline_ms = flags.GetInt("deadline-ms", 0);
  if (deadline_ms < 0) {
    std::fprintf(stderr, "seqmine: --deadline-ms must be >= 0\n");
    return kExitUsage;
  }
  options.deadline_ms = static_cast<std::uint64_t>(deadline_ms);

  disc::Timer mine_timer;
  disc::MineResult result = disc::MineShardFiles(paths, algo, options);
  const bool quiet = flags.GetBool("quiet", false);
  if (!result.status.ok()) {
    std::fprintf(stderr, "seqmine: %s\n", result.status.ToString().c_str());
  }
  if (!quiet) {
    std::printf("%s over %u shards: %zu patterns, delta %u, %.3fs\n",
                algo.c_str(), n, result.patterns.size(),
                options.min_support_count, mine_timer.Seconds());
  }
  int exit_code = kExitOk;
  if (flags.Has("out")) {
    const std::string out_path = flags.GetString("out", "");
    if (!disc::SavePatterns(result.patterns, out_path)) {
      std::fprintf(stderr, "seqmine: cannot write %s\n", out_path.c_str());
      exit_code = kExitDataError;
    } else if (!quiet) {
      std::printf("wrote %s\n", out_path.c_str());
    }
  } else if (quiet) {
    std::fputs(disc::ToSpmfPatternString(result.patterns).c_str(), stdout);
  }
  if (exit_code == kExitOk && !result.status.ok()) {
    exit_code = (result.status.code() == disc::StatusCode::kCancelled ||
                 result.status.code() == disc::StatusCode::kDeadlineExceeded)
                    ? kExitStopped
                    : kExitDataError;
  }
  return exit_code;
}

}  // namespace

int main(int argc, char** argv) {
  const disc::Flags flags = disc::Flags::Parse(argc, argv);
  if (flags.GetBool("help", false)) {
    Usage();
    return kExitOk;  // asked-for usage is a success, not a usage error
  }
  const bool connect = flags.Has("connect");
  const bool pack = flags.Has("pack");
  const bool mine_shards = flags.Has("mine-shards");
  if (flags.positional().empty() && !connect && !mine_shards) {
    return Usage();
  }

  if (flags.Has("failpoints")) {
    const disc::Status status =
        disc::failpoint::Configure(flags.GetString("failpoints", ""));
    if (!status.ok()) {
      std::fprintf(stderr, "seqmine: --failpoints: %s\n",
                   status.message().c_str());
      return kExitUsage;
    }
  }

  if (connect) return Connect(flags);
  if (pack) return Pack(flags);
  if (mine_shards) return MineShards(flags);

  disc::engine::MineRequest request;
  if (flags.Has("delta")) {
    const long long delta = flags.GetInt("delta", 2);
    if (delta < 1) {
      std::fprintf(stderr, "seqmine: --delta must be >= 1\n");
      return kExitUsage;
    }
    request.options.min_support_count = static_cast<std::uint32_t>(delta);
  } else {
    request.min_support = flags.GetDouble("minsup", 0.01);
    if (request.min_support <= 0.0 || request.min_support > 1.0) {
      std::fprintf(stderr, "seqmine: --minsup must be in (0, 1]\n");
      return kExitUsage;
    }
  }
  const long long deadline_ms = flags.GetInt("deadline-ms", 0);
  if (deadline_ms < 0) {
    std::fprintf(stderr, "seqmine: --deadline-ms must be >= 0\n");
    return kExitUsage;
  }
  request.options.deadline_ms = static_cast<std::uint64_t>(deadline_ms);

  request.algo = flags.GetString("algo", "disc-all");
  if (auto check = disc::TryCreateMiner(request.algo); !check.ok()) {
    std::fprintf(stderr, "seqmine: %s\n", check.status().message().c_str());
    return kExitUsage;
  }

  // One-shot client: a single query gains nothing from the first-level
  // cache (it would pay the state build and a content hash at load to use
  // them once), and mining happens on the calling session's worker.
  disc::engine::Engine::Config config;
  config.session_threads = 1;
  config.enable_cache = false;
  disc::engine::Engine engine(config);

  disc::ObsSession obs("seqmine", flags);
  disc::Timer total;
  auto load = engine.LoadPath(flags.positional()[0],
                              flags.GetBool("permissive", false)
                                  ? disc::ParseOptions::Permissive()
                                  : disc::ParseOptions::Strict());
  if (!load.ok()) {
    std::fprintf(stderr, "seqmine: %s\n", load.status().message().c_str());
    return kExitDataError;
  }
  const std::shared_ptr<const disc::SequenceDatabase> db = engine.database();
  obs.SetWorkload(disc::MakeWorkloadInfo(
      *db, (disc::IsDsaPath(flags.positional()[0]) ? "dsa:" : "spmf:") +
               flags.positional()[0]));
  const bool quiet = flags.GetBool("quiet", false);
  if (load->skipped > 0) {
    std::fprintf(stderr,
                 "seqmine: skipped %zu malformed record%s (first: %s)\n",
                 load->skipped, load->skipped == 1 ? "" : "s",
                 load->first_error.c_str());
  }
  if (!quiet) {
    std::printf("loaded %zu sequences (%llu items, %u distinct) in %.2fs\n",
                load->sequences,
                static_cast<unsigned long long>(load->total_items),
                load->max_item, total.Seconds());
  }

  disc::PatternSet patterns;
  disc::Status mine_status;
  disc::Timer mine_timer;
  if (flags.Has("top-k")) {
    // Top-k probes thresholds itself and runs single-threaded; say so
    // instead of silently ignoring flags the user passed.
    for (const char* ignored : {"minsup", "delta", "threads", "deadline-ms"}) {
      if (flags.Has(ignored)) {
        std::fprintf(stderr, "seqmine: --top-k ignores --%s\n", ignored);
      }
    }
    disc::TopKOptions topk;
    topk.k = static_cast<std::size_t>(flags.GetInt("top-k", 10));
    topk.max_length =
        static_cast<std::uint32_t>(flags.GetInt("max-length", 0));
    topk.algorithm = request.algo;
    patterns = disc::MineTopK(*db, topk);
  } else {
    request.options.max_length =
        static_cast<std::uint32_t>(flags.GetInt("max-length", 0));
    request.options.threads = disc::ThreadsFromFlags(flags);
    disc::engine::MineResponse response = engine.Mine(request);
    patterns = std::move(response.patterns);
    mine_status = response.status;
    obs.Record(response.stats);
    if (response.partial()) {
      std::fprintf(stderr, "seqmine: %s — writing partial result\n",
                   mine_status.ToString().c_str());
    } else if (!mine_status.ok()) {
      std::fprintf(stderr, "seqmine: %s\n", mine_status.ToString().c_str());
    }
  }
  const double mine_s = mine_timer.Seconds();

  const bool maximal = flags.GetBool("maximal", false);
  const bool closed = flags.GetBool("closed", false);
  if (maximal) {
    patterns = disc::MaximalPatterns(patterns);
  } else if (closed) {
    patterns = disc::ClosedPatterns(patterns);
  }

  if (!quiet) {
    // Maximal and closed counts cost time quadratic in the pattern count,
    // so the line carries them only when --maximal or --closed asked for
    // that work.
    const disc::PatternSummary summary =
        disc::Summarize(patterns, maximal || closed);
    std::string counts;
    if (maximal || closed) {
      counts = " (" + std::to_string(summary.maximal) + " maximal, " +
               std::to_string(summary.closed) + " closed)";
    }
    std::printf("%s: %zu patterns%s, max length %u, max support %u, %.3fs\n",
                request.algo.c_str(), summary.total, counts.c_str(),
                summary.max_length, summary.max_support, mine_s);
  }

  int exit_code = kExitOk;
  if (flags.Has("out")) {
    const std::string out_path = flags.GetString("out", "");
    if (!disc::SavePatterns(patterns, out_path)) {
      std::fprintf(stderr, "seqmine: cannot write %s\n", out_path.c_str());
      exit_code = kExitDataError;
    } else if (!quiet) {
      std::printf("wrote %s\n", out_path.c_str());
    }
  } else if (quiet) {
    std::fputs(disc::ToSpmfPatternString(patterns).c_str(), stdout);
  }
  if (!obs.Finish() && exit_code == kExitOk) exit_code = kExitDataError;
  if (exit_code == kExitOk && !mine_status.ok()) {
    exit_code = (mine_status.code() == disc::StatusCode::kCancelled ||
                 mine_status.code() == disc::StatusCode::kDeadlineExceeded)
                    ? kExitStopped
                    : kExitDataError;
  }
  return exit_code;
}
