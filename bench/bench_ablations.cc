// Ablations (ours; motivated by §3.2 and §4.2-4.3 design choices):
//
//   A. Bi-level on/off — how much does harvesting k and k+1 per DISC pass
//      buy (the paper uses bi-level "as the version for experiments")?
//   B. Dynamic γ sweep — how sensitive is Dynamic DISC-all to the
//      partition/DISC switch threshold?
//   C. Locative run vs full re-sort — what keeping the k-sorted database
//      in order incrementally buys over re-sorting it every iteration.
//   D. Partition depth — a fixed number of partitioning levels before DISC.
//   E. Strategy census — every algorithm in the library (incl. GSP, SPADE,
//      SPAM) on one moderate workload, as a Table 5 companion.
//
// Ablations B and D check every Dynamic DISC-all config against
// pseudo-projection PrefixSpan and fail the run on a difference.
//
// --cliffs runs only the named inputs on which a miner once fell off a
// cliff, so they stay measured rather than rediscovered. Each is mined by
// disc-all, dynamic-disc-all and pseudo, whose outputs must agree:
//
//   cliff  Quest Fig8Params(120) with nitems=60, npats=30, nlits=60 and
//          seed 42, at δ = 6: 3.4M patterns on 120 long, dense sequences.
//   x97    the Figure 9 1K Quest draw (seed 42) with every item id
//          multiplied by 97, at minsup 0.0075: a large, sparse alphabet.
//
// The cliff takes 20-30 s per miner, so this mode stays out of ctest.
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "disc/benchlib/report.h"
#include "disc/benchlib/workload.h"
#include "disc/common/flags.h"
#include "disc/common/table.h"
#include "disc/common/timer.h"
#include "disc/core/disc_all.h"
#include "disc/core/dynamic_disc_all.h"

using namespace disc;

namespace {

// FNV-1a over the patterns and supports in order: two results agree iff
// their digests do (barring collisions), without keeping either alive.
std::uint64_t Digest(const PatternSet& patterns) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](const std::string& bytes) {
    for (const char c : bytes) {
      h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ull;
    }
  };
  for (const auto& [pattern, support] : patterns) {
    mix(pattern.ToString());
    mix(" #SUP: " + std::to_string(support) + "\n");
  }
  return h;
}

// The x97 input: `base` with every item id multiplied by 97. Scaling keeps
// each transaction sorted.
SequenceDatabase ScaleItemIds(const SequenceDatabase& base, Item factor) {
  SequenceDatabase db;
  db.Reserve(base.TotalItems(), base.TotalTransactions(), base.size());
  for (Cid cid = 0; cid < base.size(); ++cid) {
    const SequenceView s = base[cid];
    db.BeginSequence();
    for (std::uint32_t t = 0; t < s.NumTransactions(); ++t) {
      for (const Item* x = s.TxnBegin(t); x != s.TxnEnd(t); ++x) {
        db.AppendItem(*x * factor);
      }
      db.EndTransaction();
    }
    db.EndSequence();
  }
  return db;
}

int RunCliffs(const Flags& flags) {
  ObsSession obs("ablations-cliffs", flags);
  QuestParams cliff = Fig8Params(120);
  cliff.nitems = 60;
  cliff.npats = 30;
  cliff.nlits = 60;
  cliff.seed = 42;
  QuestParams dense = Fig9Params(1000);
  dense.seed = 42;
  struct Input {
    std::string name;
    SequenceDatabase db;
    std::uint32_t delta;
  };
  std::vector<Input> inputs;
  inputs.push_back({"cliff", GenerateQuestDatabase(cliff), 6});
  inputs.push_back({"x97", ScaleItemIds(GenerateQuestDatabase(dense), 97),
                    MineOptions::CountForFraction(1000, 0.0075)});

  PrintBanner("Cliff inputs",
              "disc-all, dynamic-disc-all and pseudo on the inputs that "
              "once cliffed a miner; outputs must agree",
              false);
  TablePrinter table({"input", "delta", "miner", "time (s)", "#patterns"});
  bool agree = true;
  for (const Input& input : inputs) {
    MineOptions options;
    options.min_support_count = input.delta;
    std::uint64_t reference = 0;
    for (const char* name : {"disc-all", "dynamic-disc-all", "pseudo"}) {
      const auto miner = CreateMiner(name);
      Timer timer;
      const PatternSet result = miner->Mine(input.db, options);
      const double seconds = timer.Seconds();
      obs.Record(miner->last_stats());
      const std::uint64_t digest = Digest(result);
      if (reference == 0) reference = digest;
      if (digest != reference) {
        std::fprintf(stderr,
                     "bench_ablations: %s differs from disc-all on %s\n", name,
                     input.name.c_str());
        agree = false;
      }
      table.AddRow({input.name, std::to_string(input.delta), name,
                    TablePrinter::Num(seconds),
                    std::to_string(result.size())});
    }
  }
  table.Print();
  return obs.Finish() && agree ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags = Flags::Parse(argc, argv);
  if (PrintBenchUsage(flags, "bench_ablations",
                      "[--ncust=N] [--minsup=F] [--seed=N] [--full] "
                      "[--cliffs]")) {
    return 0;
  }
  if (flags.GetBool("cliffs", false)) return RunCliffs(flags);
  const bool full = flags.GetBool("full", false);
  const std::uint32_t ncust = static_cast<std::uint32_t>(
      flags.GetInt("ncust", full ? 10000 : 2000));
  const std::uint64_t seed = static_cast<std::uint64_t>(flags.GetInt("seed", 42));

  // Workload: the Figure 9 shape scaled to container size.
  QuestParams params = Fig9Params(ncust);
  params.seed = seed;
  const SequenceDatabase db = GenerateQuestDatabase(params);
  const double minsup = flags.GetDouble("minsup", 0.0125);
  MineOptions options;
  options.min_support_count = MineOptions::CountForFraction(db.size(), minsup);

  ObsSession obs("ablations", flags);
  WorkloadInfo workload = MakeWorkloadInfo(db, "quest:fig9");
  workload.min_support_count = options.min_support_count;
  obs.SetWorkload(workload);
  // Every Dynamic DISC-all config must mine exactly pseudo's patterns.
  const PatternSet reference = CreateMiner("pseudo")->Mine(db, options);
  bool agree = true;
  const auto check = [&](const PatternSet& result, const std::string& what) {
    if (result == reference) return;
    std::fprintf(stderr, "bench_ablations: %s differs from pseudo\n",
                 what.c_str());
    agree = false;
  };

  PrintBanner("Ablation A: bi-level vs plain DISC passes",
              DescribeDatabase(db) + ", minsup=" + std::to_string(minsup),
              !full);
  {
    TablePrinter table({"variant", "time (s)", "#patterns",
                        "disc iterations"});
    for (const bool bilevel : {true, false}) {
      DiscAll::Config config;
      config.bilevel = bilevel;
      DiscAll miner(config);
      Timer timer;
      const PatternSet result = miner.Mine(db, options);
      obs.Record(miner.last_stats());
      table.AddRow({bilevel ? "bi-level" : "plain",
                    TablePrinter::Num(timer.Seconds()),
                    std::to_string(result.size()),
                    std::to_string(
                        miner.last_stats().Counter("disc.iterations"))});
    }
    table.Print();
  }

  PrintBanner("Ablation B: Dynamic DISC-all gamma sweep",
              "gamma <= NRR switches a partition to DISC; gamma=0 -> pure "
              "DISC after level 0, gamma>1 -> pure pattern growth",
              !full);
  {
    TablePrinter table({"gamma", "time (s)", "partitions split",
                        "partitions to DISC", "#patterns"});
    for (const double gamma : {0.0, 0.25, 0.5, 0.75, 0.9, 1.01}) {
      DynamicDiscAll::Config config;
      config.gamma = gamma;
      DynamicDiscAll miner(config);
      Timer timer;
      const PatternSet result = miner.Mine(db, options);
      obs.Record(miner.last_stats());
      check(result, "gamma " + TablePrinter::Num(gamma, 2));
      table.AddRow({TablePrinter::Num(gamma, 2),
                    TablePrinter::Num(timer.Seconds()),
                    std::to_string(miner.last_stats().Counter(
                        "dynamic.partitions_split")),
                    std::to_string(miner.last_stats().Counter(
                        "dynamic.partitions_to_disc")),
                    std::to_string(result.size())});
    }
    table.Print();
  }

  PrintBanner("Ablation C: locative run vs full re-sorting",
              "the k-sorted database kept in order by merging each advanced "
              "batch forward vs naively re-sorted after every advance batch",
              !full);
  {
    TablePrinter table({"k-sorted order", "time (s)", "#patterns"});
    for (const bool locative : {true, false}) {
      DiscAll::Config config;
      config.locative = locative;
      DiscAll miner(config);
      Timer timer;
      const PatternSet result = miner.Mine(db, options);
      table.AddRow({locative ? "locative run" : "re-sort",
                    TablePrinter::Num(timer.Seconds()),
                    std::to_string(result.size())});
    }
    table.Print();
  }

  PrintBanner("Ablation D: partition depth (multi-level partitioning, §3.1)",
              "fixed number of partitioning levels before switching to "
              "DISC; 0 = pure DISC, 2 = the paper's two-level scheme",
              !full);
  {
    TablePrinter table({"levels", "time (s)", "#patterns"});
    for (const std::int32_t levels : {0, 1, 2, 3, 4, 8}) {
      DynamicDiscAll::Config config;
      config.fixed_levels = levels;
      DynamicDiscAll miner(config);
      Timer timer;
      const PatternSet result = miner.Mine(db, options);
      check(result, "fixed_levels " + std::to_string(levels));
      table.AddRow({std::to_string(levels),
                    TablePrinter::Num(timer.Seconds()),
                    std::to_string(result.size())});
    }
    table.Print();
  }

  PrintBanner("Ablation E: strategy census (Table 5 companion)",
              "all miners, one workload; GSP/SPADE/SPAM run a smaller "
              "database (they are not the paper's baselines)",
              !full);
  {
    QuestParams small_params = Fig9Params(full ? 2000 : 500);
    small_params.seed = seed;
    const SequenceDatabase small_db = GenerateQuestDatabase(small_params);
    MineOptions small_options;
    small_options.min_support_count =
        MineOptions::CountForFraction(small_db.size(), 0.02);
    TablePrinter table({"algorithm", "time (s)", "#patterns"});
    for (const std::string& name : AllMinerNames()) {
      const MineTiming t =
          TimeMine(CreateMiner(name).get(), small_db, small_options);
      obs.Record(t.stats);
      table.AddRow({name, TablePrinter::Num(t.seconds),
                    std::to_string(t.num_patterns)});
    }
    table.Print();
  }
  return obs.Finish() && agree ? 0 : 1;
}
