// Figure 10 — "Comparisons on different θ's": runtime of Dynamic DISC-all,
// DISC-all, PrefixSpan and Pseudo as the average number of transactions
// per customer grows from 10 to 40 (minimum support 0.005). The paper's
// headline: Dynamic DISC-all wins everywhere; static DISC-all loses its
// lead at high θ where the deeper-level NRR stays low and partitioning
// would still pay. --repeat=N times each row's miners N times in rotating
// order and prints per-cell medians.
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
  std::vector<double> thetas = full
                                   ? std::vector<double>{10, 15, 20, 25, 30,
                                                         35, 40}
                                   : std::vector<double>{10, 20, 30, 40};
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
  PrintBanner("Figure 10: runtime vs theta (minsup = " +
                  std::to_string(minsup) + ")",
              "Quest tlen=2.5 nitems=1K seq.patlen=4, ncust=" +
                  std::to_string(ncust),
              !full);
  if (repeat > 1) std::printf("(each cell is the median of %u runs)\n", repeat);

  ObsSession obs("fig10_theta", flags);
  TablePrinter table({"theta", "dynamic (s)", "disc-all (s)",
                      "prefixspan (s)", "pseudo (s)", "#patterns"});
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
    table.AddRow({TablePrinter::Num(theta, 0),
                  TablePrinter::Num(MedianSeconds(runs[0])),
                  TablePrinter::Num(MedianSeconds(runs[1])),
                  TablePrinter::Num(MedianSeconds(runs[2])),
                  TablePrinter::Num(MedianSeconds(runs[3])),
                  std::to_string(patterns)});
    std::printf("  [theta %.0f] done (%zu patterns)\n", theta, patterns);
    std::fflush(stdout);
  }
  table.Print();
  return obs.Finish() ? 0 : 1;
}
