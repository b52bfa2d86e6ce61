// Parallel scaling of the partition-scheduled miners: wall time, speedup
// over the serial run, and peak RSS for disc-all and dynamic-disc-all as
// --threads grows, on the Figure 8 Quest workload.
//
// Every multi-threaded run is checked byte-for-byte against the serial
// PatternSet (the deterministic-merge guarantee of docs/PARALLELISM.md);
// any mismatch fails the binary. A machine-readable report is written only
// when --json-out=FILE is given.
//
//   $ ./bench_parallel [--ncust=10000] [--minsup=0.01]
//                      [--threads-list=1,2,4,8] [--seed=42] [--json-out=FILE]
#include <cstdio>
#include <string>
#include <vector>

#include "disc/benchlib/report.h"
#include "disc/benchlib/workload.h"
#include "disc/common/flags.h"
#include "disc/common/table.h"
#include "disc/common/thread_pool.h"
#include "disc/common/timer.h"

using namespace disc;

namespace {

std::vector<std::uint32_t> ParseThreadsList(const std::string& spec) {
  std::vector<std::uint32_t> out;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    out.push_back(static_cast<std::uint32_t>(std::stoul(spec.substr(pos))));
    const std::size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags = Flags::Parse(argc, argv);
  if (PrintBenchUsage(flags, "bench_parallel",
                      "[--ncust=N] [--minsup=F] [--threads-list=1,2,4] [--seed=N]")) {
    return 0;
  }
  const std::uint32_t ncust =
      static_cast<std::uint32_t>(flags.GetInt("ncust", 10000));
  const double minsup = flags.GetDouble("minsup", 0.01);
  const std::vector<std::uint32_t> threads_list =
      ParseThreadsList(flags.GetString("threads-list", "1,2,4,8"));
  if (threads_list.empty()) {
    std::fprintf(stderr, "bench_parallel: empty --threads-list\n");
    return 2;
  }

  QuestParams params = Fig8Params(ncust);
  params.seed = static_cast<std::uint64_t>(flags.GetInt("seed", 42));
  const SequenceDatabase db = GenerateQuestDatabase(params);

  MineOptions options;
  options.min_support_count = MineOptions::CountForFraction(db.size(), minsup);

  PrintBanner(
      "Parallel scaling: partition-scheduled disc-all / dynamic-disc-all "
      "(minsup = " + std::to_string(minsup) + ")",
      "Quest slen=10 tlen=2.5 nitems=1K seq.patlen=4, ncust=" +
          std::to_string(ncust) + "; " + std::to_string(ResolveThreadCount(0)) +
          " hardware threads",
      false);

  ObsSession obs("parallel_scaling", flags);
  WorkloadInfo workload = MakeWorkloadInfo(db, "quest:fig8");
  workload.min_support_count = options.min_support_count;
  obs.SetWorkload(workload);

  bool identical = true;
  TablePrinter table({"algo", "threads", "time (s)", "speedup", "#patterns",
                      "peak RSS (MB)", "identical"});
  for (const std::string algo : {"disc-all", "dynamic-disc-all"}) {
    // The serial run is both the correctness baseline (every thread count
    // must reproduce it byte-for-byte) and the speedup denominator.
    const std::unique_ptr<Miner> baseline_miner = CreateMiner(algo);
    options.threads = 1;
    Timer baseline_timer;
    const std::string baseline =
        baseline_miner->Mine(db, options).ToString();
    const double serial_seconds = baseline_timer.Seconds();
    for (const std::uint32_t threads : threads_list) {
      const std::unique_ptr<Miner> miner = CreateMiner(algo);
      options.threads = threads;
      Timer timer;
      const PatternSet patterns = miner->Mine(db, options);
      const double seconds = timer.Seconds();
      const bool same = patterns.ToString() == baseline;
      identical = identical && same;
      obs.Record(miner->last_stats());
      table.AddRow(
          {algo, std::to_string(threads), TablePrinter::Num(seconds),
           TablePrinter::Num(seconds > 0.0 ? serial_seconds / seconds : 0.0),
           std::to_string(patterns.size()),
           TablePrinter::Num(
               static_cast<double>(miner->last_stats().peak_rss_bytes) /
               (1024.0 * 1024.0)),
           same ? "yes" : "NO"});
      std::printf("  [%s --threads=%u] %.3fs (%zu patterns)%s\n", algo.c_str(),
                  threads, seconds, patterns.size(),
                  same ? "" : "  ** PATTERN MISMATCH **");
      std::fflush(stdout);
    }
  }
  table.Print();

  const bool ok = obs.Finish();
  if (!identical) {
    std::fprintf(stderr,
                 "bench_parallel: multi-threaded PatternSet differs from the "
                 "serial baseline\n");
    return 1;
  }
  return ok ? 0 : 1;
}
