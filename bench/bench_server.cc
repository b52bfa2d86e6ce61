// Engine cache benchmark — cold vs cached minsup sweep: the serving
// scenario the engine layer exists for. One resident database, a sweep of
// support thresholds; each threshold is mined twice through the same
// Engine — cold (cache invalidated first: pays the first-level build) and
// cached (reuses the item supports and the partition memberships with each
// member's first transaction holding λ; the content hash behind the
// cache's fingerprint was paid once, at load). The ratio is the
// "bench.cache.speedup" gauge in the JSON report.
//
// Correctness gate, not just timing: the binary exits non-zero if any
// cold/cached pattern-set pair is not byte-identical, or if the cache
// outcomes are not miss-then-hit.
//
// Scaled-down default (1K customers on the Figure 9 workload); --full for
// the paper's 10K, --quick for a two-point sweep (CI smoke: the dense
// workload explodes combinatorially once delta bottoms out on a small
// container).
#include <cstdio>
#include <string>
#include <vector>

#include "disc/benchlib/report.h"
#include "disc/benchlib/workload.h"
#include "disc/common/flags.h"
#include "disc/common/table.h"
#include "disc/engine/engine.h"

using namespace disc;

namespace {

// Inserts a gauge into a MineStats record, keeping the by-name order the
// harvest produces (docs/OBSERVABILITY.md).
void InsertGauge(obs::MineStats* stats, const std::string& name,
                 double value) {
  auto it = stats->gauges.begin();
  while (it != stats->gauges.end() && it->first < name) ++it;
  stats->gauges.insert(it, {name, value});
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags = Flags::Parse(argc, argv);
  if (PrintBenchUsage(flags, "bench_server",
                      "[--ncust=N] [--algo=NAME] [--quick] [--seed=N] [--full]")) {
    return 0;
  }
  const bool full = flags.GetBool("full", false);
  const std::uint32_t ncust = static_cast<std::uint32_t>(
      flags.GetInt("ncust", full ? 10000 : 1000));
  const std::string algo = flags.GetString("algo", "disc-all");
  const std::vector<double> sweeps =
      flags.GetBool("quick", false)
          ? std::vector<double>{0.1, 0.05}
          : std::vector<double>{0.02, 0.015, 0.01, 0.0075, 0.005};

  QuestParams params = Fig9Params(ncust);
  params.seed = static_cast<std::uint64_t>(flags.GetInt("seed", 42));

  engine::Engine::Config config;
  config.session_threads = 1;  // timings must not interleave
  engine::Engine engine(config);
  engine.LoadDatabase(GenerateQuestDatabase(params));
  const std::shared_ptr<const SequenceDatabase> db = engine.database();

  ObsSession obs("bench_server", flags);
  obs.SetWorkload(MakeWorkloadInfo(*db, "quest:fig9"));

  PrintBanner("Engine cache: cold vs cached minsup sweep",
              "one resident Engine, " + algo + "; " + DescribeDatabase(*db),
              !full);

  engine::MineRequest request;
  request.algo = algo;
  request.options.threads = ThreadsFromFlags(flags);

  TablePrinter table({"minsup", "delta", "cold (s)", "cached (s)", "speedup",
                      "#patterns"});
  int failures = 0;
  for (const double minsup : sweeps) {
    request.min_support = minsup;

    engine.InvalidateCache();
    engine::MineResponse cold = engine.Mine(request);
    engine::MineResponse cached = engine.Mine(request);
    for (const engine::MineResponse* r : {&cold, &cached}) {
      if (!r->status.ok()) {
        std::fprintf(stderr, "bench_server: mine failed: %s\n",
                     r->status.ToString().c_str());
        return 1;
      }
    }

    if (cold.cache != engine::CacheOutcome::kMiss ||
        cached.cache != engine::CacheOutcome::kHit) {
      std::fprintf(stderr,
                   "bench_server: FAIL minsup %.4f: cache outcomes %s/%s, "
                   "want miss/hit\n",
                   minsup, engine::CacheOutcomeName(cold.cache),
                   engine::CacheOutcomeName(cached.cache));
      ++failures;
    }
    if (cold.patterns != cached.patterns) {
      std::fprintf(stderr,
                   "bench_server: FAIL minsup %.4f: cold and cached pattern "
                   "sets differ:\n%s\n",
                   minsup, cold.patterns.Diff(cached.patterns).c_str());
      ++failures;
    }

    const double speedup =
        cached.wall_ms > 0.0 ? cold.wall_ms / cached.wall_ms : 0.0;
    InsertGauge(&cached.stats, "bench.cache.speedup", speedup);
    obs.Record(cold.stats);
    obs.Record(cached.stats);

    table.AddRow({TablePrinter::Num(minsup, 4), std::to_string(cold.delta),
                  TablePrinter::Num(cold.wall_ms / 1000.0),
                  TablePrinter::Num(cached.wall_ms / 1000.0),
                  TablePrinter::Num(speedup),
                  std::to_string(cold.patterns.size())});
    std::printf("  [minsup %.4f] cold %.3fs cached %.3fs (%zu patterns)\n",
                minsup, cold.wall_ms / 1000.0, cached.wall_ms / 1000.0,
                cold.patterns.size());
    std::fflush(stdout);
  }
  table.Print();

  if (failures != 0) {
    std::fprintf(stderr, "bench_server: %d check(s) failed\n", failures);
    return 1;
  }
  return obs.Finish() ? 0 : 1;
}
