// Figure 10 — "Comparisons on different θ's": runtime of Dynamic DISC-all,
// DISC-all, PrefixSpan and Pseudo as the average number of transactions
// per customer grows from 10 to 40 (minimum support 0.005), with Table 14
// — "Average NRR under different θ's" — on the same databases: the
// per-level NRR from one untimed disc-all mine per row.
//
// The paper's headlines: Dynamic DISC-all wins everywhere; static DISC-all
// loses its lead at high θ where the deeper-level NRR stays low and
// partitioning would still pay; and higher θ lowers the NRR at the shallow
// levels (partitions grow faster than their children). --repeat=N times
// each row's miners N times in rotating order and prints per-cell medians.
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
  if (PrintBenchUsage(flags, "bench_fig10_theta",
                      "[--ncust=N] [--minsup=F] [--thetas=F,F,...] [--seed=N] [--full] "
                      "[--repeat=N]")) {
    return 0;
  }
  const bool full = flags.GetBool("full", false);
  const std::uint32_t ncust = static_cast<std::uint32_t>(
      flags.GetInt("ncust", full ? 50000 : 2000));
  // Scaled default uses a higher relative support: at 2K customers the
  // paper's 0.005 leaves delta = 10, which floods the dense high-theta
  // databases with hundreds of thousands of patterns.
  const double minsup = flags.GetDouble("minsup", full ? 0.005 : 0.02);
  std::vector<double> thetas = {10, 15, 20, 25, 30, 35, 40};
  if (flags.Has("thetas")) {
    thetas.clear();
    const std::string spec = flags.GetString("thetas", "");
    std::size_t pos = 0;
    while (pos < spec.size()) {
      thetas.push_back(std::stod(spec.substr(pos)));
      const std::size_t comma = spec.find(',', pos);
      if (comma == std::string::npos) break;
      pos = comma + 1;
    }
  }

  const std::uint32_t repeat = RepeatFromFlags(flags);
  PrintBanner("Figure 10 and Table 14: runtime and NRR vs theta (minsup = " +
                  std::to_string(minsup) + ")",
              "Quest tlen=2.5 nitems=1K seq.patlen=4, ncust=" +
                  std::to_string(ncust),
              !full);
  if (repeat > 1) std::printf("(each cell is the median of %u runs)\n", repeat);

  ObsSession obs("fig10_theta", flags);
  TablePrinter fig10({"theta", "dynamic (s)", "disc-all (s)",
                      "prefixspan (s)", "pseudo (s)", "#patterns"});
  const std::uint32_t max_levels = 7;
  std::vector<std::string> nrr_header = {"theta", "Original"};
  for (std::uint32_t l = 1; l < max_levels; ++l) {
    nrr_header.push_back(std::to_string(l));
  }
  TablePrinter table14(nrr_header);
  for (const double theta : thetas) {
    QuestParams params = ThetaParams(ncust, theta);
    params.seed = static_cast<std::uint64_t>(flags.GetInt("seed", 42));
    const SequenceDatabase db = GenerateQuestDatabase(params);
    MineOptions options;
    options.min_support_count =
        MineOptions::CountForFraction(db.size(), minsup);
    options.threads = ThreadsFromFlags(flags);
    // runs[0..3]: dynamic-disc-all, disc-all, prefixspan, pseudo.
    const std::vector<std::vector<MineTiming>> runs = TimeMinersRepeated(
        {"dynamic-disc-all", "disc-all", "prefixspan", "pseudo"}, db, options,
        repeat);
    WorkloadInfo workload = MakeWorkloadInfo(db, "quest:theta");
    workload.min_support_count = options.min_support_count;
    obs.SetWorkload(workload);
    for (std::uint32_t r = 0; r < repeat; ++r) {
      for (const std::vector<MineTiming>& miner : runs) {
        obs.Record(miner[r].stats);
      }
    }
    const std::size_t patterns = runs[0][0].num_patterns;
    fig10.AddRow({TablePrinter::Num(theta, 0),
                  TablePrinter::Num(MedianSeconds(runs[0])),
                  TablePrinter::Num(MedianSeconds(runs[1])),
                  TablePrinter::Num(MedianSeconds(runs[2])),
                  TablePrinter::Num(MedianSeconds(runs[3])),
                  std::to_string(patterns)});

    // The NRR is a function of the patterns, which the timed runs do not
    // keep: one more disc-all mine, untimed and unrecorded.
    const std::vector<double> nrr = AverageNrrByLevel(
        CreateMiner("disc-all")->Mine(db, options), db.size());
    std::vector<std::string> nrr_row = {TablePrinter::Num(theta, 0)};
    for (std::uint32_t l = 0; l < max_levels; ++l) {
      nrr_row.push_back(
          l < nrr.size() ? TablePrinter::Num(nrr[l], l == 0 ? 4 : 2) : "-");
    }
    table14.AddRow(std::move(nrr_row));
    std::printf("  [theta %.0f] %s, %zu patterns\n", theta,
                DescribeDatabase(db).c_str(), patterns);
    std::fflush(stdout);
  }
  std::printf("\nFigure 10: runtime vs theta\n");
  fig10.Print();
  std::printf("\nTable 14: average NRR per partition level vs theta\n");
  table14.Print();
  return obs.Finish() ? 0 : 1;
}
