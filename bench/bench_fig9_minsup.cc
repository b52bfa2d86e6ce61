// Figure 9 — "Comparisons on different δ's": runtime vs minimum support on
// the dense workload of [8] (slen = tlen = seq.patlen = 8, nitems 1K), with
// the two tables the paper reports on the same sweep:
//
//   * Table 12 — "Average NRR under different δ's": the per-level
//     non-reduction rate (Equation 2, support-based variant of §4.2), from
//     one untimed disc-all mine per row. The paper's "Original" column uses
//     the physical first-level partition sizes; the support-based value is
//     reported for every level uniformly (see EXPERIMENTS.md), and the
//     physical level-0/1 values follow in a second table, read from the
//     timed disc-all runs' disc.physical_nrr.* gauges.
//   * Table 13 — "The ratio of Pseudo to DISC-all": the pseudo and
//     disc-all times of the Figure 9 rows and their ratio.
//
// Paper: 10K customers, minsup 0.02 -> 0.0025. Default is 1K customers and
// the sweep stops at 0.005 (the densest points explode combinatorially on
// a small container); --dense adds 0.0025 and --full restores the paper
// setting. --repeat=N times each row's miners N times in rotating order;
// each time is then the median of its runs and the ratio the median of the
// per-run ratios.
#include <cstdio>
#include <string>
#include <vector>

#include "disc/benchlib/report.h"
#include "disc/benchlib/workload.h"
#include "disc/common/flags.h"
#include "disc/common/table.h"
#include "disc/core/nrr.h"

using namespace disc;

int main(int argc, char** argv) {
  const Flags flags = Flags::Parse(argc, argv);
  if (PrintBenchUsage(flags, "bench_fig9_minsup",
                      "[--ncust=N] [--dense] [--seed=N] [--full] "
                      "[--repeat=N]")) {
    return 0;
  }
  const bool full = flags.GetBool("full", false);
  const std::uint32_t ncust = static_cast<std::uint32_t>(
      flags.GetInt("ncust", full ? 10000 : 1000));
  std::vector<double> sweeps = {0.02, 0.0175, 0.015, 0.0125,
                                0.01, 0.0075, 0.005};
  if (full || flags.GetBool("dense", false)) sweeps.push_back(0.0025);
  const std::uint32_t repeat = RepeatFromFlags(flags);

  QuestParams params = Fig9Params(ncust);
  params.seed = static_cast<std::uint64_t>(flags.GetInt("seed", 42));
  const SequenceDatabase db = GenerateQuestDatabase(params);
  ObsSession obs("fig9_minsup", flags);
  obs.SetWorkload(MakeWorkloadInfo(db, "quest:fig9"));

  PrintBanner("Figure 9 and Tables 12-13: runtime and NRR vs minimum support",
              "Quest slen=tlen=seq.patlen=8, nitems=1K; " +
                  DescribeDatabase(db),
              !full);
  if (repeat > 1) std::printf("(each time is the median of %u runs)\n", repeat);

  TablePrinter fig9({"minsup", "delta", "disc-all (s)", "prefixspan (s)",
                     "pseudo (s)", "#patterns", "maxlen"});
  const std::uint32_t max_levels = 9;
  std::vector<std::string> nrr_header = {"minsup", "Original"};
  for (std::uint32_t l = 1; l < max_levels; ++l) {
    nrr_header.push_back(std::to_string(l));
  }
  TablePrinter table12(nrr_header);
  TablePrinter physical({"minsup", "Original (physical)", "1 (physical)"});
  TablePrinter table13(
      {"minsup", "Pseudo (s)", "DISC-all (s)", "Pseudo/DISC-all"});
  for (const double minsup : sweeps) {
    MineOptions options;
    options.min_support_count =
        MineOptions::CountForFraction(db.size(), minsup);
    options.threads = ThreadsFromFlags(flags);
    // runs[0..2]: disc-all, prefixspan, pseudo.
    const std::vector<std::vector<MineTiming>> runs = TimeMinersRepeated(
        {"disc-all", "prefixspan", "pseudo"}, db, options, repeat);
    for (std::uint32_t r = 0; r < repeat; ++r) {
      for (const std::vector<MineTiming>& miner : runs) {
        obs.Record(miner[r].stats);
      }
    }
    const std::string row_minsup = TablePrinter::Num(minsup, 4);
    const std::string disc_s = TablePrinter::Num(MedianSeconds(runs[0]));
    const std::string pseudo_s = TablePrinter::Num(MedianSeconds(runs[2]));
    fig9.AddRow({row_minsup, std::to_string(options.min_support_count),
                 disc_s, TablePrinter::Num(MedianSeconds(runs[1])), pseudo_s,
                 std::to_string(runs[0][0].num_patterns),
                 std::to_string(runs[0][0].max_length)});
    table13.AddRow({row_minsup, pseudo_s, disc_s,
                    TablePrinter::Num(MedianRatio(runs[2], runs[0]), 3)});

    // The support-based NRR is a function of the patterns, which the timed
    // runs do not keep: one more disc-all mine, untimed and unrecorded.
    const std::vector<double> nrr = AverageNrrByLevel(
        CreateMiner("disc-all")->Mine(db, options), db.size());
    std::vector<std::string> nrr_row = {row_minsup};
    for (std::uint32_t l = 0; l < max_levels; ++l) {
      nrr_row.push_back(
          l < nrr.size() ? TablePrinter::Num(nrr[l], l == 0 ? 4 : 2) : "-");
    }
    table12.AddRow(std::move(nrr_row));
    const obs::MineStats& disc_stats = runs[0][0].stats;
    physical.AddRow(
        {row_minsup,
         TablePrinter::Num(disc_stats.Gauge("disc.physical_nrr.level0"), 4),
         TablePrinter::Num(disc_stats.Gauge("disc.physical_nrr.level1"), 2)});
    std::printf("  [minsup %.4f] done (%zu patterns, %u levels)\n", minsup,
                runs[0][0].num_patterns, runs[0][0].max_length);
    std::fflush(stdout);
  }
  std::printf("\nFigure 9: runtime vs minimum support\n");
  fig9.Print();
  std::printf("\nTable 12: average NRR per partition level vs minsup\n");
  table12.Print();
  std::printf(
      "\nPhysical-partition variant (actual partition sizes, as the paper's "
      "'Original' column):\n");
  physical.Print();
  std::printf("\nTable 13: Pseudo / DISC-all runtime ratio\n");
  table13.Print();
  return obs.Finish() ? 0 : 1;
}
