// Microbenchmarks (google-benchmark) for the library's hot primitives:
// comparative order, containment, extension scan, Apriori-KMS, the
// locative AVL tree, the counting array, and Quest generation throughput.
//
// Besides the google-benchmark suite, the binary doubles as the
// observability smoke driver: any of --stats, --trace-out=<file>,
// --json-out=<file>, or --validate switches it into a sweep of every
// miner over a tiny Quest workload, recording MineStats per run.
// --validate re-parses the emitted report through
// ValidateBenchReportJson and fails the process on schema drift (this is
// what the ctest smoke test runs).
//
// --alloc-compare switches into the allocation/locality comparison: the
// same DiscAll mine is run with the per-worker scratch SequenceArena
// (default) and with the legacy owning-Sequence scratch, and the heap
// bytes allocated plus wall time of each are reported (and written into
// the --json-out report as "bench.alloc.*" gauges). The run fails unless
// the arena path allocates strictly fewer bytes and both paths produce
// byte-identical patterns.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>

#include "disc/benchlib/report.h"
#include "disc/benchlib/workload.h"
#include "disc/common/flags.h"
#include "disc/common/timer.h"
#include "disc/core/counting_array.h"
#include "disc/core/disc_all.h"
#include "disc/core/kms.h"
#include "disc/core/locative_avl.h"
#include "disc/gen/quest.h"
#include "disc/order/compare.h"
#include "disc/seq/containment.h"
#include "disc/seq/extension.h"

namespace {
// Heap metering for --alloc-compare, local to this binary: the replaced
// global operator new routes through malloc and tallies request bytes.
// Cumulative allocation volume, not live bytes — deallocation is not
// subtracted, so the counter measures churn, which is what the arena path
// is meant to eliminate.
std::atomic<std::uint64_t> g_alloc_bytes{0};
std::atomic<std::uint64_t> g_alloc_calls{0};
}  // namespace

// GCC pairs `new` with `free` at inlined call sites and warns, but pairing
// a replaced malloc-backed operator new with free is exactly the contract
// here.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void* operator new(std::size_t n) {
  g_alloc_bytes.fetch_add(n, std::memory_order_relaxed);
  g_alloc_calls.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace disc {
namespace {

SequenceDatabase MicroDb() {
  QuestParams p;
  p.ncust = 2000;
  p.nitems = 200;
  p.slen = 8;
  p.tlen = 3;
  p.npats = 200;
  p.nlits = 400;
  return GenerateQuestDatabase(p);
}

void BM_CompareSequences(benchmark::State& state) {
  const SequenceDatabase db = MicroDb();
  std::size_t i = 0;
  for (auto _ : state) {
    const SequenceView a = db[i % db.size()];
    const SequenceView b = db[(i * 7 + 1) % db.size()];
    benchmark::DoNotOptimize(CompareSequences(a, b));
    ++i;
  }
}
BENCHMARK(BM_CompareSequences);

void BM_Containment(benchmark::State& state) {
  const SequenceDatabase db = MicroDb();
  Sequence pattern;
  pattern.AppendNewItemset(3);
  pattern.AppendNewItemset(8);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(Contains(db[i % db.size()], pattern));
    ++i;
  }
}
BENCHMARK(BM_Containment);

void BM_ScanExtensions(benchmark::State& state) {
  const SequenceDatabase db = MicroDb();
  Sequence pattern;
  pattern.AppendNewItemset(3);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ScanExtensions(db[i % db.size()], pattern));
    ++i;
  }
}
BENCHMARK(BM_ScanExtensions);

void BM_AprioriKms(benchmark::State& state) {
  const SequenceDatabase db = MicroDb();
  std::vector<Sequence> list;
  for (Item x = 1; x <= 20; ++x) {
    Sequence s;
    s.AppendNewItemset(x);
    list.push_back(s);
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(AprioriKms(db[i % db.size()], list));
    ++i;
  }
}
BENCHMARK(BM_AprioriKms);

void BM_LocativeAvlInsertSelect(benchmark::State& state) {
  for (auto _ : state) {
    LocativeAvlTree tree;
    for (std::uint32_t h = 0; h < 512; ++h) {
      tree.Insert(RankKey{h % 61, 1 + h % 7, ExtType::kSequence}, h);
    }
    benchmark::DoNotOptimize(tree.SelectKey(tree.size() / 2));
    std::vector<std::uint32_t> out;
    tree.PopMinBucket(&out);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_LocativeAvlInsertSelect);

void BM_CountingArray(benchmark::State& state) {
  CountingArray counts(1000);
  std::uint32_t i = 0;
  for (auto _ : state) {
    counts.Add((i * 37) % 1000 + 1,
               (i & 1) ? ExtType::kItemset : ExtType::kSequence, i % 64);
    if (++i % 4096 == 0) counts.Reset();
  }
}
BENCHMARK(BM_CountingArray);

void BM_QuestGenerate(benchmark::State& state) {
  for (auto _ : state) {
    QuestParams p;
    p.ncust = static_cast<std::uint32_t>(state.range(0));
    p.nitems = 500;
    benchmark::DoNotOptimize(GenerateQuestDatabase(p));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_QuestGenerate)->Arg(500)->Arg(2000);

// Runs every miner once over a tiny Quest workload and routes the
// MineStats through ObsSession (--stats / --json-out / --trace-out).
// With --validate the serialized report is parsed back and checked
// against the schema; any violation fails the run.
int RunMinerSweep(const Flags& flags) {
  QuestParams p;
  p.ncust = static_cast<std::uint32_t>(flags.GetInt("ncust", 300));
  p.nitems = 100;
  p.slen = 6;
  p.tlen = 2.5;
  p.seed = static_cast<std::uint64_t>(flags.GetInt("seed", 42));
  const SequenceDatabase db = GenerateQuestDatabase(p);
  MineOptions options;
  options.min_support_count = MineOptions::CountForFraction(
      db.size(), flags.GetDouble("minsup", 0.05));
  options.threads = ThreadsFromFlags(flags);

  ObsSession obs("micro", flags);
  WorkloadInfo workload = MakeWorkloadInfo(db, "quest:micro");
  workload.min_support_count = options.min_support_count;
  obs.SetWorkload(workload);
  BenchReport report("micro", workload);

  std::printf("miner sweep: %s, delta=%u\n", DescribeDatabase(db).c_str(),
              options.min_support_count);
  for (const std::string& name : AllMinerNames()) {
    const MineTiming t = TimeMine(CreateMiner(name).get(), db, options);
    obs.Record(t.stats);
    report.AddRun(t.stats);
    std::printf("  %-18s %8.3fs  %zu patterns\n", name.c_str(), t.seconds,
                t.num_patterns);
  }
  bool ok = obs.Finish();
  if (flags.GetBool("validate", false)) {
    std::string error;
    if (ValidateBenchReportJson(report.ToJson(), &error)) {
      std::printf("validate: report JSON matches the schema\n");
    } else {
      std::fprintf(stderr, "validate: %s\n", error.c_str());
      ok = false;
    }
  }
  return ok ? 0 : 1;
}

// Inserts a gauge into a MineStats keeping the by-name sort order intact
// (the JSON writer and Gauge() lookups rely on it).
void InsertGauge(obs::MineStats* stats, const std::string& name,
                 double value) {
  auto it = std::lower_bound(
      stats->gauges.begin(), stats->gauges.end(), name,
      [](const auto& g, const std::string& n) { return g.first < n; });
  stats->gauges.insert(it, {name, value});
}

// One metered DiscAll run: wall time via TimeMine, heap churn via the
// operator-new counters above, both folded into the harvested MineStats.
// The mined patterns are returned through `patterns_out` so the two
// scratch backends can be cross-checked for byte identity.
MineTiming TimeMineMetered(Miner* miner, const SequenceDatabase& db,
                           const MineOptions& options,
                           std::uint64_t* bytes_out,
                           std::string* patterns_out) {
  const std::uint64_t bytes0 = g_alloc_bytes.load(std::memory_order_relaxed);
  const std::uint64_t calls0 = g_alloc_calls.load(std::memory_order_relaxed);
  Timer timer;
  const PatternSet result = miner->Mine(db, options);
  MineTiming t;
  t.seconds = timer.Seconds();
  const std::uint64_t bytes =
      g_alloc_bytes.load(std::memory_order_relaxed) - bytes0;
  const std::uint64_t calls =
      g_alloc_calls.load(std::memory_order_relaxed) - calls0;
  t.num_patterns = result.size();
  t.max_length = result.MaxLength();
  t.stats = miner->last_stats();
  InsertGauge(&t.stats, "bench.alloc.bytes", static_cast<double>(bytes));
  InsertGauge(&t.stats, "bench.alloc.calls", static_cast<double>(calls));
  *bytes_out = bytes;
  *patterns_out = result.ToString();
  return t;
}

// The --alloc-compare mode: arena scratch vs legacy owning scratch on the
// same workload (see file comment). Returns non-zero when the arena path
// fails to allocate strictly fewer bytes or the outputs diverge.
int RunAllocCompare(const Flags& flags) {
  QuestParams p;
  p.ncust = static_cast<std::uint32_t>(flags.GetInt("ncust", 1000));
  p.nitems = 100;
  p.slen = 6;
  p.tlen = 2.5;
  p.seed = static_cast<std::uint64_t>(flags.GetInt("seed", 42));
  const SequenceDatabase db = GenerateQuestDatabase(p);
  MineOptions options;
  // Default support is lower than the miner sweep's: the arena's win is in
  // the reduce loop, so the comparison workload needs partitions with
  // plenty of surviving reduced sequences.
  options.min_support_count = MineOptions::CountForFraction(
      db.size(), flags.GetDouble("minsup", 0.01));
  options.threads = ThreadsFromFlags(flags);

  ObsSession obs("micro_alloc", flags);
  WorkloadInfo workload = MakeWorkloadInfo(db, "quest:micro_alloc");
  workload.min_support_count = options.min_support_count;
  obs.SetWorkload(workload);

  std::printf("alloc compare: %s, delta=%u, threads=%u\n",
              DescribeDatabase(db).c_str(), options.min_support_count,
              options.threads);

  DiscAll::Config legacy_cfg;
  legacy_cfg.arena_scratch = false;
  DiscAll legacy(legacy_cfg);
  DiscAll arena;

  std::uint64_t legacy_bytes = 0, arena_bytes = 0;
  std::string legacy_patterns, arena_patterns;
  const MineTiming legacy_t =
      TimeMineMetered(&legacy, db, options, &legacy_bytes, &legacy_patterns);
  const MineTiming arena_t =
      TimeMineMetered(&arena, db, options, &arena_bytes, &arena_patterns);
  obs.Record(legacy_t.stats);
  obs.Record(arena_t.stats);

  for (const MineTiming* t : {&legacy_t, &arena_t}) {
    std::printf("  %-22s %8.3fs  %12.0f bytes  %10.0f allocs  %zu patterns\n",
                t->stats.miner.c_str(), t->seconds,
                t->stats.Gauge("bench.alloc.bytes"),
                t->stats.Gauge("bench.alloc.calls"), t->num_patterns);
  }

  bool ok = obs.Finish();
  if (arena_patterns != legacy_patterns) {
    std::fprintf(stderr, "alloc compare: FAIL - outputs differ\n");
    ok = false;
  } else if (arena_bytes >= legacy_bytes) {
    std::fprintf(stderr,
                 "alloc compare: FAIL - arena path allocated %llu bytes, "
                 "legacy %llu (expected strictly fewer)\n",
                 static_cast<unsigned long long>(arena_bytes),
                 static_cast<unsigned long long>(legacy_bytes));
    ok = false;
  } else {
    std::printf("alloc compare: arena allocates %.1f%% of legacy bytes\n",
                100.0 * static_cast<double>(arena_bytes) /
                    static_cast<double>(legacy_bytes));
  }
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace disc

int main(int argc, char** argv) {
  // --help before benchmark::Initialize, which would otherwise claim it
  // and print google-benchmark's own usage.
  const disc::Flags flags = disc::Flags::Parse(argc, argv);
  if (disc::PrintBenchUsage(flags, "bench_micro",
                            "[--ncust=N] [--minsup=F] [--seed=N] "
                            "[--alloc-compare]\n                   "
                            "[--validate]")) {
    return 0;
  }
  benchmark::Initialize(&argc, argv);
  if (flags.GetBool("alloc-compare", false)) {
    return disc::RunAllocCompare(flags);
  }
  if (flags.Has("json-out") || flags.Has("trace-out") ||
      flags.GetBool("stats", false) || flags.GetBool("validate", false)) {
    return disc::RunMinerSweep(flags);
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
