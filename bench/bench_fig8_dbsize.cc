// Figure 8 — "Comparisons on database sizes": runtime of DISC-all vs
// PrefixSpan vs Pseudo as the number of customers grows, Quest setting of
// Table 11 (slen 10, tlen 2.5, nitems 1K, seq.patlen 4), minimum support
// 0.0025.
//
// Paper sweep: 50K..500K customers. Default here is scaled down for a
// single-core container; pass --full for the paper sizes, or
// --sizes=a,b,c / --minsup=F to customize. --repeat=N times each row's
// miners N times in rotating order and prints per-cell medians, with a
// pseudo/disc-all column: the median of the per-run ratios.
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
  if (PrintBenchUsage(flags, "bench_fig8_dbsize",
                      "[--sizes=N,N,...] [--minsup=F] [--seed=N] [--full] "
                      "[--repeat=N]")) {
    return 0;
  }
  const bool full = flags.GetBool("full", false);
  std::vector<std::uint32_t> sizes =
      full ? std::vector<std::uint32_t>{50000, 100000, 200000, 300000,
                                        400000, 500000}
           : std::vector<std::uint32_t>{2000, 5000, 10000, 20000};
  if (flags.Has("sizes")) {
    sizes.clear();
    const std::string spec = flags.GetString("sizes", "");
    std::size_t pos = 0;
    while (pos < spec.size()) {
      sizes.push_back(static_cast<std::uint32_t>(std::stoul(spec.substr(pos))));
      const std::size_t comma = spec.find(',', pos);
      if (comma == std::string::npos) break;
      pos = comma + 1;
    }
  }
  const double minsup = flags.GetDouble("minsup", 0.0025);
  const std::uint64_t seed = static_cast<std::uint64_t>(flags.GetInt("seed", 42));
  const std::uint32_t repeat = RepeatFromFlags(flags);
  ObsSession obs("fig8_dbsize", flags);

  PrintBanner("Figure 8: runtime vs database size (minsup = " +
                  std::to_string(minsup) + ")",
              "Quest slen=10 tlen=2.5 nitems=1K seq.patlen=4; algorithms: "
              "disc-all (bi-level), prefixspan, pseudo",
              !full);
  std::vector<std::string> header = {"ncust", "delta", "disc-all (s)",
                                     "prefixspan (s)", "pseudo (s)"};
  if (repeat > 1) {
    std::printf("(each cell is the median of %u runs)\n", repeat);
    header.push_back("pseudo/disc-all");
  }
  header.push_back("#patterns");
  header.push_back("maxlen");

  TablePrinter table(header);
  for (const std::uint32_t ncust : sizes) {
    QuestParams params = Fig8Params(ncust);
    params.seed = seed;
    const SequenceDatabase db = GenerateQuestDatabase(params);
    MineOptions options;
    options.min_support_count =
        MineOptions::CountForFraction(db.size(), minsup);
    options.threads = ThreadsFromFlags(flags);
    // runs[0..2]: disc-all, prefixspan, pseudo.
    const std::vector<std::vector<MineTiming>> runs = TimeMinersRepeated(
        {"disc-all", "prefixspan", "pseudo"}, db, options, repeat);
    WorkloadInfo workload = MakeWorkloadInfo(db, "quest:fig8");
    workload.min_support_count = options.min_support_count;
    obs.SetWorkload(workload);
    for (std::uint32_t r = 0; r < repeat; ++r) {
      for (const std::vector<MineTiming>& miner : runs) {
        obs.Record(miner[r].stats);
      }
    }
    std::vector<std::string> row = {
        std::to_string(ncust), std::to_string(options.min_support_count),
        TablePrinter::Num(MedianSeconds(runs[0])),
        TablePrinter::Num(MedianSeconds(runs[1])),
        TablePrinter::Num(MedianSeconds(runs[2]))};
    if (repeat > 1) {
      row.push_back(TablePrinter::Num(MedianRatio(runs[2], runs[0]), 2));
    }
    row.push_back(std::to_string(runs[0][0].num_patterns));
    row.push_back(std::to_string(runs[0][0].max_length));
    table.AddRow(row);
    std::printf("  [%s] done: %s\n", std::to_string(ncust).c_str(),
                DescribeDatabase(db).c_str());
    std::fflush(stdout);
  }
  table.Print();
  return obs.Finish() ? 0 : 1;
}
