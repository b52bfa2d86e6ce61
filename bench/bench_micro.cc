// Microbenchmarks (google-benchmark) for the library's hot primitives:
// comparative order, containment, extension scan, Apriori-KMS, a k-sorted
// database's DISC pass, the counting array, and Quest generation
// throughput.
//
// Besides the google-benchmark suite, the binary doubles as the
// observability smoke driver: any of --stats, --trace-out=<file>,
// --json-out=<file>, or --validate switches it into a sweep of every
// miner over a tiny Quest workload, recording MineStats per run.
// --validate re-parses the emitted report through
// ValidateBenchReportJson and fails the process on schema drift (this is
// what the ctest smoke test runs).
#include <benchmark/benchmark.h>

#include <cstdio>
#include <deque>
#include <string>
#include <vector>

#include "disc/algo/miner.h"
#include "disc/benchlib/report.h"
#include "disc/benchlib/workload.h"
#include "disc/common/flags.h"
#include "disc/core/counting_array.h"
#include "disc/core/discovery.h"
#include "disc/core/kms.h"
#include "disc/gen/quest.h"
#include "disc/order/compare.h"
#include "disc/seq/containment.h"
#include "disc/seq/extension.h"

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
  // The walk, not the index build: each sequence's index is built once.
  std::vector<SequenceIndex> indexes;
  indexes.reserve(db.size());
  for (const SequenceView s : db) indexes.emplace_back(s);
  // The 1-sequences extend the empty prefix: one group, in every sequence.
  const SupporterGroups groups = SupporterGroups::OneGroup(
      static_cast<std::uint32_t>(list.size()),
      std::vector<EmbeddingEnds>(db.size(), EmbeddingEnds{true}));
  KmsTally tally;
  std::uint32_t i = 0;
  for (auto _ : state) {
    const std::uint32_t c = i % static_cast<std::uint32_t>(db.size());
    KmsScanState scan;
    benchmark::DoNotOptimize(AprioriKms(
        KmsWalk{db[c], &indexes[c], &list, &groups, c}, &scan, &tally));
    ++i;
  }
  tally.Flush();
}
BENCHMARK(BM_AprioriKms);

// Build plus one DISC pass of a k-sorted database: the frequent
// 2-sequences of a fixed 64-member partition of the seeded micro database.
void BM_KSortedDiscPass(benchmark::State& state) {
  const SequenceDatabase db = MicroDb();
  std::deque<SequenceIndex> indexes;
  PartitionMembers members;
  for (Cid cid = 0; cid < 64; ++cid) {
    indexes.emplace_back(db[cid]);
    members.push_back({db[cid], &indexes.back(), cid});
  }
  DiscoveryOptions options;
  options.k = 2;
  options.delta = 4;
  std::vector<Sequence> list;  // the partition's frequent 1-sequences
  for (Item x = 1; x <= db.max_item(); ++x) {
    Sequence s;
    s.AppendNewItemset(x);
    std::uint32_t support = 0;
    for (const PartitionMember& m : members) support += Contains(m.seq, s);
    if (support >= options.delta) list.push_back(std::move(s));
  }
  const SupporterGroups groups = SupporterGroups::OneGroup(
      static_cast<std::uint32_t>(list.size()),
      std::vector<EmbeddingEnds>(members.size(), EmbeddingEnds{true}));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        DiscoverFrequentK(members, list, options, nullptr, groups));
  }
}
BENCHMARK(BM_KSortedDiscPass);

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

}  // namespace
}  // namespace disc

int main(int argc, char** argv) {
  // --help before benchmark::Initialize, which would otherwise claim it
  // and print google-benchmark's own usage.
  const disc::Flags flags = disc::Flags::Parse(argc, argv);
  if (disc::PrintBenchUsage(flags, "bench_micro",
                            "[--ncust=N] [--minsup=F] [--seed=N] "
                            "[--validate]")) {
    return 0;
  }
  benchmark::Initialize(&argc, argv);
  if (flags.Has("json-out") || flags.Has("trace-out") ||
      flags.GetBool("stats", false) || flags.GetBool("validate", false)) {
    return disc::RunMinerSweep(flags);
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
