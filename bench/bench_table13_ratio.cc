// Table 13 — "The ratio of Pseudo to DISC-all": wall-clock seconds for
// pseudo-projection PrefixSpan and DISC-all across the Figure 9 support
// sweep, plus their ratio. The paper observes the largest speedup around
// minsup 0.0075 on its hardware. --repeat=N times both miners N times per
// row in rotating order; each time is then the median of its runs and the
// ratio the median of the per-run ratios.
#include <cstdio>
#include <string>
#include <vector>

#include "disc/benchlib/report.h"
#include "disc/benchlib/workload.h"
#include "disc/common/flags.h"
#include "disc/common/table.h"

using namespace disc;

int main(int argc, char** argv) {
  const Flags flags = Flags::Parse(argc, argv);
  if (PrintBenchUsage(flags, "bench_table13_ratio",
                      "[--ncust=N] [--seed=N] [--full] [--repeat=N]")) {
    return 0;
  }
  const bool full = flags.GetBool("full", false);
  const std::uint32_t ncust = static_cast<std::uint32_t>(
      flags.GetInt("ncust", full ? 10000 : 1000));
  std::vector<double> sweeps = {0.02, 0.0175, 0.015, 0.0125,
                                0.01, 0.0075, 0.005};
  if (full) sweeps.push_back(0.0025);
  const std::uint32_t repeat = RepeatFromFlags(flags);

  QuestParams params = Fig9Params(ncust);
  params.seed = static_cast<std::uint64_t>(flags.GetInt("seed", 42));
  const SequenceDatabase db = GenerateQuestDatabase(params);

  ObsSession obs("table13_ratio", flags);
  obs.SetWorkload(MakeWorkloadInfo(db, "quest:fig9"));

  PrintBanner("Table 13: Pseudo / DISC-all runtime ratio",
              DescribeDatabase(db), !full);
  if (repeat > 1) std::printf("(each cell is the median of %u runs)\n", repeat);

  TablePrinter table(
      {"minsup", "Pseudo (s)", "DISC-all (s)", "Pseudo/DISC-all"});
  for (const double minsup : sweeps) {
    MineOptions options;
    options.min_support_count =
        MineOptions::CountForFraction(db.size(), minsup);
    // runs[0]: pseudo, runs[1]: disc-all.
    const std::vector<std::vector<MineTiming>> runs =
        TimeMinersRepeated({"pseudo", "disc-all"}, db, options, repeat);
    for (std::uint32_t r = 0; r < repeat; ++r) {
      for (const std::vector<MineTiming>& miner : runs) {
        obs.Record(miner[r].stats);
      }
    }
    table.AddRow({TablePrinter::Num(minsup, 4),
                  TablePrinter::Num(MedianSeconds(runs[0])),
                  TablePrinter::Num(MedianSeconds(runs[1])),
                  TablePrinter::Num(MedianRatio(runs[0], runs[1]), 3)});
    std::fflush(stdout);
  }
  table.Print();
  return obs.Finish() ? 0 : 1;
}
