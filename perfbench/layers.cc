// perfbench_layers — the in-process half of the end-to-end benchmark
// (perfbench/run.py). Every subcommand prints one JSON object on its last
// stdout line; run.py parses it.
//
//   gen OUT --ncust=N --slen=F --tlen=F --nitems=N --seq-patlen=F
//       --quest-seed=Q --seed=S
//       One Quest draw (seed Q) with its item labels permuted and its
//       customers shuffled by seed S, written as SPMF.
//   load DB --reps=K
//       Times TryLoadSpmf K times (the batch workloads' setup_s).
//   ref DB --minsups=a,b,... --out=PREFIX
//       Reference pattern text per minsup (PREFIX.<i>.txt), mined with
//       disc-all at four threads (the timed runs include pseudo, an
//       independent algorithm, so a disc-all error fails the check).
//   layers DB --minsup=F --threads=T --spans=FILE
//       Times each layer's public entry point once or twice, with spans
//       around every call, and reads the work counters from MineStats.
//   engine DB [DB2] --minsups=a,b,... --clients=C --session-threads=N
//       --seconds=S --spans=FILE
//       Closed-loop clients on one in-process Engine (cache on), each
//       cycling through the thresholds; with DB2, client 0 alternates the
//       loaded database about once per ten requests.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <numeric>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "disc/disc.h"
#include "disc/common/flags.h"
#include "disc/common/timer.h"

namespace {

using Clock = std::chrono::steady_clock;

// Spans recorded from this file around calls into the library. Each span
// has a parent (the span open on the same thread when it began) and a
// request id shared by every span of one engine request.
class SpanLog {
 public:
  class Scope {
   public:
    Scope(SpanLog* log, const char* name, std::uint64_t request = 0)
        : log_(log),
          name_(name),
          request_(request),
          id_(log->next_id_.fetch_add(1)),
          parent_(current_),
          start_(Clock::now()) {
      current_ = id_;
    }
    ~Scope() { Finish(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    // Ends the span (once) and returns its duration in seconds.
    double Finish() {
      if (!done_) {
        done_ = true;
        end_ = Clock::now();
        current_ = parent_;
        log_->Add({name_, id_, parent_, request_, start_, end_});
      }
      return std::chrono::duration<double>(end_ - start_).count();
    }
    std::uint64_t id() const { return id_; }

   private:
    SpanLog* log_;
    const char* name_;
    std::uint64_t request_;
    std::uint64_t id_;
    std::uint64_t parent_;
    Clock::time_point start_;
    Clock::time_point end_;
    bool done_ = false;
  };

  // A span whose interval is known only after the fact (the engine's own
  // wall time inside a request, reported by MineResponse::wall_ms).
  void AddDerived(const char* name, std::uint64_t parent,
                  std::uint64_t request, Clock::time_point start,
                  Clock::time_point end) {
    Add({name, next_id_.fetch_add(1), parent, request, start, end});
  }

  bool Write(const std::string& path) const {
    std::ofstream out(path);
    out << "[";
    std::lock_guard<std::mutex> lock(mu_);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Record& r = spans_[i];
      out << (i ? ",\n" : "\n") << "{\"name\":\"" << r.name
          << "\",\"id\":" << r.id << ",\"parent\":" << r.parent
          << ",\"request\":" << r.request << ",\"start_us\":"
          << Micros(r.start) << ",\"end_us\":" << Micros(r.end) << "}";
    }
    out << "\n]\n";
    return static_cast<bool>(out);
  }

 private:
  struct Record {
    const char* name;
    std::uint64_t id, parent, request;
    Clock::time_point start, end;
  };
  void Add(Record r) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(r);
  }
  double Micros(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  }

  static thread_local std::uint64_t current_;
  const Clock::time_point origin_ = Clock::now();
  std::atomic<std::uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<Record> spans_;  // guarded by mu_
};

thread_local std::uint64_t SpanLog::current_ = 0;

// Minimal JSON object writer for the result line.
class JsonLine {
 public:
  JsonLine& Num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    return Raw(key, buf);
  }
  JsonLine& Str(const std::string& key, const std::string& v) {
    return Raw(key, "\"" + v + "\"");
  }
  JsonLine& Raw(const std::string& key, const std::string& v) {
    body_ += (body_.empty() ? "" : ",") + ("\"" + key + "\":") + v;
    return *this;
  }
  void Print() const { std::printf("{%s}\n", body_.c_str()); }

 private:
  std::string body_;
};

int Fail(const std::string& message) {
  std::fprintf(stderr, "perfbench_layers: %s\n", message.c_str());
  return 1;
}

std::vector<double> ParseList(const std::string& text) {
  std::vector<double> out;
  std::stringstream in(text);
  std::string token;
  while (std::getline(in, token, ',')) out.push_back(std::stod(token));
  return out;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

disc::StatusOr<disc::SequenceDatabase> Load(const std::string& path) {
  return disc::TryLoadSpmf(path, disc::ParseOptions::Strict());
}

int Gen(const disc::Flags& flags) {
  if (flags.positional().size() != 2) return Fail("gen needs OUT");
  disc::QuestParams params;
  params.ncust = static_cast<std::uint32_t>(flags.GetInt("ncust", 1000));
  params.slen = flags.GetDouble("slen", 10.0);
  params.tlen = flags.GetDouble("tlen", 2.5);
  params.nitems = static_cast<std::uint32_t>(flags.GetInt("nitems", 1000));
  params.seq_patlen = flags.GetDouble("seq-patlen", 4.0);
  params.seed = static_cast<std::uint64_t>(flags.GetInt("quest-seed", 42));
  const disc::SequenceDatabase base = disc::GenerateQuestDatabase(params);

  std::mt19937_64 rng(static_cast<std::uint64_t>(flags.GetInt("seed", 1)));
  std::vector<disc::Item> label(base.max_item() + 1);
  std::iota(label.begin(), label.end(), disc::Item{0});
  // Item 0 keeps its label: SPMF items are positive, so only permute 1..max.
  std::shuffle(label.begin() + 1, label.end(), rng);
  std::vector<disc::Cid> order(base.size());
  std::iota(order.begin(), order.end(), disc::Cid{0});
  std::shuffle(order.begin(), order.end(), rng);

  disc::SequenceDatabase db;
  db.Reserve(base.TotalItems(), base.TotalTransactions(), base.size());
  std::vector<disc::Item> txn;
  for (const disc::Cid cid : order) {
    const disc::SequenceView s = base[cid];
    db.BeginSequence();
    for (std::uint32_t t = 0; t < s.NumTransactions(); ++t) {
      txn.clear();
      for (const disc::Item* x = s.TxnBegin(t); x != s.TxnEnd(t); ++x) {
        txn.push_back(label[*x]);
      }
      std::sort(txn.begin(), txn.end());
      for (const disc::Item x : txn) db.AppendItem(x);
      db.EndTransaction();
    }
    db.EndSequence();
  }
  if (!disc::SaveSpmf(db, flags.positional()[1])) return Fail("cannot write");
  JsonLine()
      .Num("sequences", static_cast<double>(db.size()))
      .Num("items", static_cast<double>(db.TotalItems()))
      .Print();
  return 0;
}

int LoadReps(const disc::Flags& flags) {
  if (flags.positional().size() != 2) return Fail("load needs DB");
  const long long reps = std::max<long long>(1, flags.GetInt("reps", 5));
  std::string times;
  for (long long i = 0; i < reps; ++i) {
    disc::Timer timer;
    auto db = Load(flags.positional()[1]);
    const double s = timer.Seconds();
    if (!db.ok()) return Fail(db.status().ToString());
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%s%.9g", i ? "," : "", s);
    times += buf;
  }
  JsonLine().Raw("load_s", "[" + times + "]").Print();
  return 0;
}

disc::MineResult MineWith(const std::string& algo,
                          const disc::SequenceDatabase& db,
                          std::uint32_t delta, std::uint32_t threads,
                          disc::MineStats* stats = nullptr) {
  std::unique_ptr<disc::Miner> miner = disc::CreateMiner(algo);
  disc::MineOptions options;
  options.min_support_count = delta;
  options.threads = threads;
  disc::MineResult result = miner->TryMine(db, options);
  if (stats != nullptr) *stats = miner->last_stats();
  return result;
}

int Ref(const disc::Flags& flags) {
  if (flags.positional().size() != 2) return Fail("ref needs DB");
  auto db = Load(flags.positional()[1]);
  if (!db.ok()) return Fail(db.status().ToString());
  const std::string prefix = flags.GetString("out", "ref");
  const std::vector<double> minsups = ParseList(flags.GetString("minsups", ""));
  std::string refs;
  for (std::size_t i = 0; i < minsups.size(); ++i) {
    const std::uint32_t delta =
        disc::MineOptions::CountForFraction(db->size(), minsups[i]);
    disc::MineResult disc_all = MineWith("disc-all", *db, delta, 4);
    if (!disc_all.status.ok()) return Fail(disc_all.status.ToString());
    const std::string path = prefix + "." + std::to_string(i) + ".txt";
    if (!disc::SavePatterns(disc_all.patterns, path)) return Fail("cannot write");
    refs += (i ? "," : "") + std::string("{\"delta\":") + std::to_string(delta) +
            ",\"patterns\":" + std::to_string(disc_all.patterns.size()) +
            ",\"path\":\"" + path + "\"}";
  }
  JsonLine().Raw("refs", "[" + refs + "]").Print();
  return 0;
}

// The counters the benchmark reports per layer (docs/OBSERVABILITY.md).
const char* const kCounters[] = {
    "disc.iterations",          "disc.infrequent_skips",
    "disc.frequent_buckets",    "kms.ckms_advances",
    "kms.initial_scans",        "order.seq_compares",
    "disc.encode.compares",     "counting_array.increments",
    "counting_array.probes",    "partition.reduced_sequences",
    "disc.partitions.second_level",
};
// Counts that must repeat exactly between two runs at threads=1.
const char* const kDeterministic[] = {
    "disc.iterations", "kms.ckms_advances", "counting_array.increments",
    "partition.reduced_sequences"};

int Layers(const disc::Flags& flags) {
  if (flags.positional().size() != 2) return Fail("layers needs DB");
  const std::string path = flags.positional()[1];
  const double minsup = flags.GetDouble("minsup", 0.01);
  const auto threads = static_cast<std::uint32_t>(flags.GetInt("threads", 4));
  SpanLog spans;
  JsonLine out;
  SpanLog::Scope root(&spans, "perfbench.layers");

  std::vector<double> load_s;
  disc::SequenceDatabase db;
  for (int i = 0; i < 3; ++i) {
    SpanLog::Scope span(&spans, "seq.load");
    auto loaded = Load(path);
    load_s.push_back(span.Finish());
    if (!loaded.ok()) return Fail(loaded.status().ToString());
    db = std::move(*loaded);
  }
  out.Num("seq.load_s", Median(load_s));
  const std::uint32_t delta = disc::MineOptions::CountForFraction(db.size(), minsup);

  std::vector<double> build_s;
  std::size_t first_level_bytes = 0;
  for (int i = 0; i < 3; ++i) {
    SpanLog::Scope span(&spans, "core.first_level.build");
    auto state = disc::BuildFirstLevelState(db);
    build_s.push_back(span.Finish());
    first_level_bytes = state->SizeBytes();
  }
  out.Num("first_level.build_s", Median(build_s))
      .Num("first_level.bytes", static_cast<double>(first_level_bytes));

  // disc-all at threads=1 twice: the work counts must repeat exactly.
  disc::MineStats stats[2];
  disc::MineResult reference;
  std::vector<double> disc_s;
  for (int i = 0; i < 2; ++i) {
    SpanLog::Scope span(&spans, "core.disc_all.mine");
    disc::MineResult r = MineWith("disc-all", db, delta, 1, &stats[i]);
    disc_s.push_back(span.Finish());
    if (!r.status.ok()) return Fail(r.status.ToString());
    reference = std::move(r);
  }
  std::string unstable;
  for (const char* name : kDeterministic) {
    if (stats[0].Counter(name) != stats[1].Counter(name)) {
      unstable += (unstable.empty() ? "" : " ") + std::string(name);
    }
  }
  out.Num("mine.disc_all_s", Median(disc_s))
      .Num("mine.peak_rss_mib",
           static_cast<double>(stats[0].peak_rss_bytes) / (1 << 20))
      .Str("counts_unstable", unstable);
  for (const char* name : kCounters) {
    out.Num(name, static_cast<double>(stats[0].Counter(name)));
  }

  bool agree = true;
  disc::MineStats mt_stats;
  {
    SpanLog::Scope span(&spans, "core.disc_all.mine_mt");
    disc::MineResult r = MineWith("disc-all", db, delta, threads, &mt_stats);
    const double s = span.Finish();
    agree = agree && r.status.ok() && r.patterns == reference.patterns;
    out.Num("mine.disc_all_mt_s", s)
        .Num("mine.scaling_eff", Median(disc_s) / (threads * s))
        .Num("pool.queue_wait_us.sum",
             static_cast<double>(mt_stats.Counter("pool.queue_wait_us.sum")));
  }
  for (const auto& [algo, key, span_name] :
       {std::tuple{"dynamic-disc-all", "mine.dyn_s", "core.dynamic_disc_all.mine"},
        std::tuple{"pseudo", "mine.pseudo_s", "algo.pseudo.mine"}}) {
    SpanLog::Scope span(&spans, span_name);
    disc::MineResult r = MineWith(algo, db, delta, 1);
    out.Num(key, span.Finish());
    agree = agree && r.status.ok() && r.patterns == reference.patterns;
  }

  std::vector<double> rebuild_s, serialize_s;
  std::size_t bytes = 0;
  for (int i = 0; i < 2; ++i) {
    SpanLog::Scope span(&spans, "algo.pattern_set.rebuild");
    disc::PatternSet copy;
    for (const auto& [pattern, support] : reference.patterns) {
      copy.Add(pattern, support);
    }
    rebuild_s.push_back(span.Finish());
    agree = agree && copy == reference.patterns;
  }
  for (int i = 0; i < 2; ++i) {
    SpanLog::Scope span(&spans, "algo.pattern_io.serialize");
    bytes = disc::ToSpmfPatternString(reference.patterns).size();
    serialize_s.push_back(span.Finish());
  }
  out.Num("pattern_set.rebuild_s", Median(rebuild_s))
      .Num("output.serialize_s", Median(serialize_s))
      .Num("output.bytes", static_cast<double>(bytes))
      .Num("patterns", static_cast<double>(reference.patterns.size()))
      .Num("delta", delta)
      .Raw("agree", agree ? "true" : "false");
  root.Finish();
  if (!spans.Write(flags.GetString("spans", "layers_spans.json"))) {
    return Fail("cannot write spans");
  }
  out.Print();
  return 0;
}

int EngineLoop(const disc::Flags& flags) {
  const std::vector<std::string> paths(flags.positional().begin() + 1,
                                       flags.positional().end());
  if (paths.empty() || paths.size() > 2) return Fail("engine needs DB [DB2]");
  const std::vector<double> minsups = ParseList(flags.GetString("minsups", ""));
  const auto clients = static_cast<std::size_t>(flags.GetInt("clients", 4));
  const double seconds = flags.GetDouble("seconds", 3.0);

  // Per-database, per-minsup reference results (untimed).
  std::vector<std::vector<disc::PatternSet>> refs(paths.size());
  for (std::size_t d = 0; d < paths.size(); ++d) {
    auto db = Load(paths[d]);
    if (!db.ok()) return Fail(db.status().ToString());
    for (const double m : minsups) {
      refs[d].push_back(
          MineWith("disc-all", *db,
                   disc::MineOptions::CountForFraction(db->size(), m), 4)
              .patterns);
    }
  }

  disc::engine::Engine::Config config;
  config.session_threads =
      static_cast<std::uint32_t>(flags.GetInt("session-threads", 2));
  disc::engine::Engine engine(config);
  if (auto info = engine.LoadSpmf(paths[0]); !info.ok()) {
    return Fail(info.status().ToString());
  }
  SpanLog spans;
  std::mutex mu;
  std::vector<double> wait_ms;  // guarded by mu
  std::atomic<std::uint64_t> attempted{0}, failed{0}, next_request{1},
      since_load{0};
  std::size_t resident = 0;  // client 0 only
  const std::uint64_t hits0 = engine.cache().hits();
  const std::uint64_t misses0 = engine.cache().misses();
  const Clock::time_point stop =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));

  auto client = [&](std::size_t c) {
    for (std::size_t i = c; Clock::now() < stop;) {
      attempted.fetch_add(1);
      if (c == 0 && paths.size() == 2 && since_load.load() >= 9) {
        SpanLog::Scope span(&spans, "engine.load", next_request.fetch_add(1));
        resident = 1 - resident;
        if (!engine.LoadSpmf(paths[resident]).ok()) failed.fetch_add(1);
        since_load.store(0);
        continue;
      }
      const std::size_t k = i++ % minsups.size();
      disc::engine::MineRequest request;
      request.min_support = minsups[k];
      const std::uint64_t id = next_request.fetch_add(1);
      SpanLog::Scope span(&spans, "engine.request", id);
      auto session = engine.Submit(request);
      if (!session.ok()) {
        failed.fetch_add(1);
        continue;
      }
      (*session)->Wait();
      const Clock::time_point done = Clock::now();
      const double total_ms = span.Finish() * 1e3;
      const disc::engine::MineResponse& r = (*session)->response();
      spans.AddDerived("engine.mine", span.id(), id,
                       done - std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double, std::milli>(
                                      r.wall_ms)),
                       done);
      // The response came from whichever database was resident at submit.
      bool ok = r.status.ok() && !r.partial();
      ok = ok && std::any_of(refs.begin(), refs.end(), [&](const auto& ref) {
             return ref[k] == r.patterns;
           });
      if (!ok) failed.fetch_add(1);
      since_load.fetch_add(1);
      std::lock_guard<std::mutex> lock(mu);
      wait_ms.push_back(total_ms - r.wall_ms);
    }
  };
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients; ++c) threads.emplace_back(client, c);
  for (std::thread& t : threads) t.join();

  const double hits = static_cast<double>(engine.cache().hits() - hits0);
  const double misses = static_cast<double>(engine.cache().misses() - misses0);
  if (!spans.Write(flags.GetString("spans", "engine_spans.json"))) {
    return Fail("cannot write spans");
  }
  JsonLine()
      .Num("attempted", static_cast<double>(attempted.load()))
      .Num("failed", static_cast<double>(failed.load()))
      .Num("engine.wait_ms", wait_ms.empty() ? 0 : Median(wait_ms))
      .Num("cache.hits", hits)
      .Num("cache.misses", misses)
      .Num("cache.hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0)
      .Print();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const disc::Flags flags = disc::Flags::Parse(argc, argv);
  const std::string command =
      flags.positional().empty() ? "" : flags.positional()[0];
  if (command == "gen") return Gen(flags);
  if (command == "load") return LoadReps(flags);
  if (command == "ref") return Ref(flags);
  if (command == "layers") return Layers(flags);
  if (command == "engine") return EngineLoop(flags);
  std::fprintf(stderr,
               "usage: perfbench_layers gen|load|ref|layers|engine ... "
               "(see the file comment of perfbench/layers.cc)\n");
  return 2;
}
