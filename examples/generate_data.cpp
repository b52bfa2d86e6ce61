// Data-generator CLI: produce an IBM Quest-style customer-sequence database
// (the paper's Table 11 parameters) as an SPMF text file, then optionally
// mine it right back.
//
//   $ ./generate_data out.spmf [--mine --minsup=0.005]
//
// The defaults are --ncust=10000 --slen=10 --tlen=2.5 --nitems=1000
// --seq_patlen=4 --seed=42.
//
// Round-trip demo of the gen + io + algo layers. Exit codes follow the
// library convention (docs/ROBUSTNESS.md): 0 success, 2 usage error,
// 3 data/I-O error.
#include <cstdio>

#include "disc/algo/miner.h"
#include "disc/common/flags.h"
#include "disc/common/timer.h"
#include "disc/gen/quest.h"
#include "disc/seq/io.h"

int main(int argc, char** argv) {
  const disc::Flags flags = disc::Flags::Parse(argc, argv);
  if (flags.positional().empty()) {
    std::fprintf(stderr,
                 "usage: generate_data <out.spmf> [--ncust=N] [--slen=F] "
                 "[--tlen=F] [--nitems=N] [--seq_patlen=F] [--seed=N] "
                 "[--mine] [--minsup=F] [--algo=NAME]\n");
    return 2;
  }

  disc::QuestParams params;
  if (flags.GetInt("ncust", 10000) < 1 || flags.GetInt("nitems", 1000) < 1 ||
      flags.GetDouble("slen", 10.0) <= 0.0 ||
      flags.GetDouble("tlen", 2.5) <= 0.0) {
    std::fprintf(stderr,
                 "generate_data: --ncust/--nitems must be >= 1 and "
                 "--slen/--tlen positive\n");
    return 2;
  }
  params.ncust = static_cast<std::uint32_t>(flags.GetInt("ncust", 10000));
  params.slen = flags.GetDouble("slen", 10.0);
  params.tlen = flags.GetDouble("tlen", 2.5);
  params.nitems = static_cast<std::uint32_t>(flags.GetInt("nitems", 1000));
  params.seq_patlen = flags.GetDouble("seq_patlen", 4.0);
  params.seed = static_cast<std::uint64_t>(flags.GetInt("seed", 42));

  disc::Timer timer;
  const disc::SequenceDatabase db = disc::GenerateQuestDatabase(params);
  std::printf("generated %zu sequences (%llu items, avg %.2f txns x %.2f "
              "items) in %.2fs\n",
              db.size(), static_cast<unsigned long long>(db.TotalItems()),
              db.AvgTransactionsPerCustomer(), db.AvgItemsPerTransaction(),
              timer.Seconds());

  const std::string& path = flags.positional()[0];
  if (!disc::SaveSpmf(db, path)) {
    std::fprintf(stderr, "generate_data: cannot write %s\n", path.c_str());
    return 3;
  }
  std::printf("wrote %s\n", path.c_str());

  if (flags.GetBool("mine", false)) {
    auto loaded_or = disc::TryLoadSpmf(path);
    if (!loaded_or.ok()) {
      std::fprintf(stderr, "generate_data: %s\n",
                   loaded_or.status().message().c_str());
      return 3;
    }
    const disc::SequenceDatabase loaded = std::move(*loaded_or);
    disc::MineOptions options;
    options.min_support_count = disc::MineOptions::CountForFraction(
        loaded.size(), flags.GetDouble("minsup", 0.005));
    const std::string algo = flags.GetString("algo", "disc-all");
    auto miner_or = disc::TryCreateMiner(algo);
    if (!miner_or.ok()) {
      std::fprintf(stderr, "generate_data: %s\n",
                   miner_or.status().message().c_str());
      return 2;
    }
    timer.Reset();
    const disc::PatternSet patterns = (*miner_or)->Mine(loaded, options);
    std::printf("%s: %zu frequent sequences (delta=%u, max length %u) in "
                "%.2fs\n",
                algo.c_str(), patterns.size(), options.min_support_count,
                patterns.MaxLength(), timer.Seconds());
  }
  return 0;
}
