// The candidate-bound ablation pair (core/candidate_bound.h) on the
// paper's Figure 9 shape (slen = tlen = seq.patlen = 8, nitems 1K): dense
// transactions and long patterns, where the k >= 4 machinery the bound
// prunes carries real weight.
//
//   * kernel.bound.off — disc-all with bound_pruning off;
//   * kernel.bound.on  — disc-all with bound_pruning on (the default).
//
// The two sides alternate rep by rep (best-of-N each), so a drifting
// machine slows both alike, and their patterns are checked byte for byte;
// a mismatch fails the binary. Each run's JSON entry carries a
// "bench.words_per_sec" gauge: database items processed per wall second.
// A machine-readable report is written only when --json-out=FILE is given.
//
//   $ ./bench_kernels [--ncust=1000] [--minsup=0.02] [--reps=3] [--seed=42]
//                     [--json-out=FILE]
#include <cstdio>
#include <string>

#include "disc/benchlib/report.h"
#include "disc/benchlib/workload.h"
#include "disc/common/flags.h"
#include "disc/common/table.h"
#include "disc/common/timer.h"
#include "disc/core/disc_all.h"

using namespace disc;

int main(int argc, char** argv) {
  const Flags flags = Flags::Parse(argc, argv);
  if (PrintBenchUsage(flags, "bench_kernels",
                      "[--ncust=N] [--minsup=F] [--reps=N] [--seed=N]")) {
    return 0;
  }
  const std::uint32_t ncust =
      static_cast<std::uint32_t>(flags.GetInt("ncust", 1000));
  const double minsup = flags.GetDouble("minsup", 0.02);
  const int reps = static_cast<int>(flags.GetInt("reps", 3));

  QuestParams params = Fig9Params(ncust);
  params.seed = static_cast<std::uint64_t>(flags.GetInt("seed", 42));
  const SequenceDatabase db = GenerateQuestDatabase(params);

  MineOptions options;
  options.min_support_count = MineOptions::CountForFraction(db.size(), minsup);
  options.threads = 1;

  PrintBanner("Candidate-bound pruning: disc-all with bound_pruning off vs on "
                  "(minsup = " + std::to_string(minsup) + ")",
              "Quest fig9 slen=8 tlen=8 patlen=8 ncust=" +
                  std::to_string(ncust),
              false);

  ObsSession obs("kernels", flags);
  WorkloadInfo workload = MakeWorkloadInfo(db, "quest:fig9");
  workload.min_support_count = options.min_support_count;
  obs.SetWorkload(workload);

  DiscAll::Config off_cfg;
  off_cfg.bound_pruning = false;
  DiscAll off(off_cfg);
  DiscAll on;
  std::string out_off, out_on;
  double t_off = -1.0, t_on = -1.0;
  for (int r = 0; r < reps; ++r) {
    Timer timer_off;
    out_off = off.Mine(db, options).ToString();
    const double s_off = timer_off.Seconds();
    if (t_off < 0.0 || s_off < t_off) t_off = s_off;
    Timer timer_on;
    out_on = on.Mine(db, options).ToString();
    const double s_on = timer_on.Seconds();
    if (t_on < 0.0 || s_on < t_on) t_on = s_on;
  }

  const double db_words = static_cast<double>(db.TotalItems());
  auto record = [&](const Miner& miner, const char* name, double seconds) {
    obs::MineStats stats = miner.last_stats();
    stats.miner = name;
    stats.wall_seconds = seconds;
    if (seconds > 0.0) {
      stats.gauges.emplace_back("bench.words_per_sec", db_words / seconds);
    }
    obs.Record(stats);
  };
  record(off, "kernel.bound.off", t_off);
  record(on, "kernel.bound.on", t_on);

  const double speedup = t_on > 0.0 ? t_off / t_on : 0.0;
  TablePrinter table({"kernel", "off (s)", "on (s)", "speedup"});
  table.AddRow({"kernel.bound", TablePrinter::Num(t_off),
                TablePrinter::Num(t_on), TablePrinter::Num(speedup)});
  table.Print();

  bool ok = obs.Finish();
  if (out_off != out_on) {
    std::fprintf(stderr, "bench_kernels: ** PATTERN MISMATCH ** in "
                         "kernel.bound\n");
    ok = false;
  }
  return ok ? 0 : 1;
}
