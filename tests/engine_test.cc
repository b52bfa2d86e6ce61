// Engine-layer tests (engine/engine.h): query-cache lifecycle (LRU
// retention, eviction, the content-hash fingerprint), the byte-identity
// contract between cached and uncached mining across miners and thread
// counts, load/fingerprint isolation, submit validation, and the
// cancel/deadline partial-result (byte-prefix) guarantee through a
// session — the engine-path regression next to CancelDeterminism
// (parallel_determinism_test.cc).
#include "disc/engine/engine.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "disc/algo/pattern_io.h"
#include "disc/core/first_level.h"
#include "disc/seq/io.h"
#include "disc/seq/storage.h"
#include "test_util.h"

namespace disc {
namespace {

SequenceDatabase EngineDb() {
  return testutil::MakeQuestDb(
      {.ncust = 150, .nitems = 60, .slen = 5, .tlen = 2.0});
}

engine::MineRequest Request(const std::string& algo, double minsup,
                            std::uint32_t threads = 1) {
  engine::MineRequest request;
  request.algo = algo;
  request.min_support = minsup;
  request.options.threads = threads;
  return request;
}

TEST(FirstLevelStateTest, MatchesFingerprint) {
  const SequenceDatabase db = EngineDb();
  const auto state = BuildFirstLevelState(db);
  EXPECT_TRUE(state->Matches(db));
  const SequenceDatabase other = testutil::MakeRandomDb();
  EXPECT_FALSE(state->Matches(other));
  EXPECT_GT(state->SizeBytes(), 0u);
}

// The ⟨(x)⟩-partition by brute force: every sequence containing x, with
// its leftmost transaction holding x.
std::vector<FirstLevelMember> BruteMembers(const SequenceDatabase& db,
                                           Item x) {
  std::vector<FirstLevelMember> members;
  for (Cid cid = 0; cid < db.size(); ++cid) {
    const SequenceView s = db[cid];
    for (std::uint32_t t = 0; t < s.NumTransactions(); ++t) {
      if (std::find(s.TxnBegin(t), s.TxnEnd(t), x) != s.TxnEnd(t)) {
        members.push_back({cid, t});
        break;
      }
    }
  }
  return members;
}

void ExpectStateAgreesWithBruteForce(const SequenceDatabase& db) {
  const auto state = BuildFirstLevelState(db);
  ASSERT_EQ(state->item_support.size(), db.max_item() + 1u);
  ASSERT_EQ(state->members_of.size(), db.max_item() + 1u);
  std::size_t later_points = 0;  // members whose x is not in transaction 0
  for (Item x = 0; x <= db.max_item(); ++x) {
    const std::vector<FirstLevelMember> members = BruteMembers(db, x);
    EXPECT_EQ(state->item_support[x], members.size()) << "item " << x;
    EXPECT_EQ(state->members_of[x], members) << "item " << x;
    for (const FirstLevelMember& m : members) later_points += m.txn > 0;
  }
  EXPECT_GT(later_points, 0u);
}

TEST(FirstLevelStateTest, AgreesWithBruteForce) {
  ExpectStateAgreesWithBruteForce(testutil::Table6Database());
  ExpectStateAgreesWithBruteForce(EngineDb());

  // Above δ = 1 only the frequent items' lists are filled, each whole.
  const SequenceDatabase db = EngineDb();
  const std::vector<std::uint32_t> support = CountItemSupport(db);
  const std::uint32_t delta = 12;
  const std::vector<std::vector<FirstLevelMember>> members_of =
      CollectPartitionMembers(db, support, delta);
  ASSERT_EQ(members_of.size(), db.max_item() + 1u);
  std::size_t frequent = 0;
  for (Item x = 0; x <= db.max_item(); ++x) {
    if (support[x] >= delta) {
      ++frequent;
      EXPECT_EQ(members_of[x], BruteMembers(db, x)) << "item " << x;
    } else {
      EXPECT_TRUE(members_of[x].empty()) << "item " << x;
    }
  }
  EXPECT_GT(frequent, 0u);
  EXPECT_LT(frequent, db.max_item());
}

TEST(QueryCacheTest, HitMissLifecycle) {
  const SequenceDatabase db = EngineDb();
  engine::QueryCache cache;
  EXPECT_EQ(cache.bytes(), 0u);

  bool hit = true;
  const auto first = cache.GetOrBuild(db, &hit);
  EXPECT_FALSE(hit);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.bytes(), first->SizeBytes());

  const auto second = cache.GetOrBuild(db, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(second.get(), first.get()) << "a hit must return the same state";

  cache.Invalidate();
  EXPECT_EQ(cache.bytes(), 0u);
  cache.GetOrBuild(db, &hit);
  EXPECT_FALSE(hit);
  EXPECT_EQ(cache.misses(), 2u);
  // The invalidated state stays valid for holders.
  EXPECT_TRUE(first->Matches(db));
}

TEST(QueryCacheTest, DifferentDatabaseMisses) {
  engine::QueryCache cache;
  const SequenceDatabase a = EngineDb();
  const SequenceDatabase b = testutil::MakeRandomDb();
  bool hit = true;
  cache.GetOrBuild(a, &hit);
  EXPECT_FALSE(hit);
  cache.GetOrBuild(b, &hit);
  EXPECT_FALSE(hit) << "a mismatched fingerprint must rebuild";
  EXPECT_EQ(cache.misses(), 2u);
}

// The tentpole contract: with the cache on or off, for every first-level
// consumer and at serial and parallel thread counts, the mined PatternSet
// serializes byte-identically. Different thresholds against one cached
// state must also agree (the state is threshold-independent).
TEST(EngineTest, CachedMatchesUncachedByteForByte) {
  const SequenceDatabase db = EngineDb();
  const std::vector<std::string> algos = {"disc-all", "disc-all-nobilevel",
                                          "dynamic-disc-all"};
  const std::vector<std::uint32_t> thread_counts = {1, 4};
  const std::vector<double> minsups = {0.2, 0.05};

  engine::Engine::Config uncached_config;
  uncached_config.enable_cache = false;
  engine::Engine uncached(uncached_config);
  uncached.LoadDatabase(EngineDb());

  engine::Engine cached;
  cached.LoadDatabase(EngineDb());

  for (const std::string& algo : algos) {
    for (const std::uint32_t threads : thread_counts) {
      for (const double minsup : minsups) {
        const auto request = Request(algo, minsup, threads);
        const engine::MineResponse cold = uncached.Mine(request);
        const engine::MineResponse warm = cached.Mine(request);
        ASSERT_TRUE(cold.status.ok()) << cold.status.ToString();
        ASSERT_TRUE(warm.status.ok()) << warm.status.ToString();
        EXPECT_EQ(cold.cache, engine::CacheOutcome::kNone);
        EXPECT_NE(warm.cache, engine::CacheOutcome::kNone);
        EXPECT_EQ(ToSpmfPatternString(cold.patterns),
                  ToSpmfPatternString(warm.patterns))
            << algo << " threads=" << threads << " minsup=" << minsup
            << "\n" << cold.patterns.Diff(warm.patterns);
        EXPECT_EQ(cold.delta, warm.delta);
      }
    }
  }
  EXPECT_EQ(uncached.cache().hits() + uncached.cache().misses(), 0u)
      << "enable_cache=false must never consult the cache";
  EXPECT_GE(cached.cache().hits(), 1u);
}

// With the cache on, every load hashes the database once and caches the
// hash on it, so a cache hit's fingerprint check and the miner's
// stale-state check never walk it; a one-shot engine (cache off) pays for
// no hash.
TEST(EngineTest, LoadCachesContentHashOnlyWithCacheOn) {
  const std::uint64_t want = ContentHash(EngineDb());
  const std::string path = ::testing::TempDir() + "/engine_load_hash.spmf";
  ASSERT_TRUE(SaveSpmf(EngineDb(), path));

  engine::Engine cached;
  ASSERT_TRUE(cached.LoadSpmf(path).ok());
  ASSERT_TRUE(cached.database()->has_cached_content_hash());
  EXPECT_EQ(cached.database()->cached_content_hash(), want);
  cached.LoadDatabase(EngineDb());
  ASSERT_TRUE(cached.database()->has_cached_content_hash());
  EXPECT_EQ(cached.database()->cached_content_hash(), want);

  engine::Engine::Config config;
  config.enable_cache = false;
  engine::Engine one_shot(config);
  ASSERT_TRUE(one_shot.LoadSpmf(path).ok());
  EXPECT_FALSE(one_shot.database()->has_cached_content_hash());
  one_shot.LoadDatabase(EngineDb());
  EXPECT_FALSE(one_shot.database()->has_cached_content_hash());
  std::remove(path.c_str());
}

TEST(EngineTest, SecondQueryHitsRegardlessOfThreshold) {
  engine::Engine engine;
  engine.LoadDatabase(EngineDb());
  const engine::MineResponse first = engine.Mine(Request("disc-all", 0.2));
  const engine::MineResponse second = engine.Mine(Request("disc-all", 0.05));
  EXPECT_EQ(first.cache, engine::CacheOutcome::kMiss);
  EXPECT_EQ(second.cache, engine::CacheOutcome::kHit)
      << "first-level state is threshold-independent";
  EXPECT_EQ(engine.cache().misses(), 1u);
  EXPECT_EQ(engine.cache().hits(), 1u);
}

TEST(EngineTest, LoadNeverServesStaleStateAndKeepsWarmSlots) {
  engine::Engine engine;
  engine.LoadDatabase(EngineDb());
  EXPECT_EQ(engine.Mine(Request("disc-all", 0.2)).cache,
            engine::CacheOutcome::kMiss);
  EXPECT_EQ(engine.Mine(Request("disc-all", 0.2)).cache,
            engine::CacheOutcome::kHit);

  engine.LoadDatabase(testutil::MakeRandomDb());
  EXPECT_EQ(engine.Mine(Request("disc-all", 0.2)).cache,
            engine::CacheOutcome::kMiss)
      << "the new database's fingerprint must never match stale state";
  EXPECT_EQ(engine.loads(), 2u);

  // The LRU keeps the first database's slot warm: loading it back hits.
  engine.LoadDatabase(EngineDb());
  EXPECT_EQ(engine.Mine(Request("disc-all", 0.2)).cache,
            engine::CacheOutcome::kHit)
      << "re-loading a cached database must reuse its first-level state";
  EXPECT_EQ(engine.cache().slots(), 2u);
  EXPECT_EQ(engine.cache().evictions(), 0u);
}

TEST(QueryCacheTest, LruEvictsTheColdestSlotAtCapacity) {
  engine::QueryCache cache(/*capacity=*/2);
  EXPECT_EQ(cache.capacity(), 2u);
  const SequenceDatabase a = testutil::RandomDatabase(1);
  const SequenceDatabase b = testutil::RandomDatabase(2);
  const SequenceDatabase c = testutil::RandomDatabase(3);

  bool hit = true;
  cache.GetOrBuild(a, &hit);
  cache.GetOrBuild(b, &hit);
  EXPECT_EQ(cache.slots(), 2u);
  EXPECT_EQ(cache.evictions(), 0u);

  cache.GetOrBuild(a, &hit);  // touch a: b becomes the LRU victim
  EXPECT_TRUE(hit);
  cache.GetOrBuild(c, &hit);  // full: evicts b
  EXPECT_FALSE(hit);
  EXPECT_EQ(cache.slots(), 2u);
  EXPECT_EQ(cache.evictions(), 1u);

  cache.GetOrBuild(a, &hit);
  EXPECT_TRUE(hit) << "the recently-touched slot must survive the eviction";
  cache.GetOrBuild(b, &hit);
  EXPECT_FALSE(hit) << "the LRU slot must have been evicted";
  EXPECT_EQ(cache.evictions(), 2u) << "re-inserting b evicts again";
}

TEST(QueryCacheTest, BytesSumAcrossSlots) {
  engine::QueryCache cache(/*capacity=*/4);
  const SequenceDatabase a = testutil::RandomDatabase(1);
  const SequenceDatabase b = testutil::RandomDatabase(2);
  const auto state_a = cache.GetOrBuild(a);
  EXPECT_EQ(cache.bytes(), state_a->SizeBytes());
  const auto state_b = cache.GetOrBuild(b);
  EXPECT_EQ(cache.bytes(), state_a->SizeBytes() + state_b->SizeBytes());
  cache.Invalidate();
  EXPECT_EQ(cache.bytes(), 0u);
  EXPECT_EQ(cache.slots(), 0u);
  EXPECT_EQ(cache.evictions(), 0u)
      << "an explicit reset is not capacity pressure";
}

TEST(QueryCacheTest, ShapeCollisionsAreSeparatedByContentHash) {
  // Two different databases engineered to share every shape aggregate
  // (sequences, total items, max item): without the content hash these
  // would alias one slot and serve each other's state.
  SequenceDatabase x;
  x.Add(Sequence({Itemset({1, 3})}));
  SequenceDatabase y;
  y.Add(Sequence({Itemset({2, 3})}));
  ASSERT_EQ(x.size(), y.size());
  ASSERT_EQ(x.TotalItems(), y.TotalItems());
  ASSERT_EQ(x.max_item(), y.max_item());

  engine::QueryCache cache(/*capacity=*/4);
  bool hit = true;
  const auto state_x = cache.GetOrBuild(x, &hit);
  EXPECT_FALSE(hit);
  const auto state_y = cache.GetOrBuild(y, &hit);
  EXPECT_FALSE(hit) << "same shape, different content must not collide";
  EXPECT_NE(state_x.get(), state_y.get());
  EXPECT_TRUE(state_x->Matches(x));
  EXPECT_FALSE(state_x->Matches(y));
}

TEST(EngineTest, NonConsumerMinerReportsNoCache) {
  engine::Engine engine;
  engine.LoadDatabase(EngineDb());
  const engine::MineResponse response = engine.Mine(Request("prefixspan", 0.2));
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  EXPECT_EQ(response.cache, engine::CacheOutcome::kNone);
}

TEST(EngineTest, SubmitValidation) {
  engine::Engine engine;
  // No database loaded.
  auto no_db = engine.Submit(Request("disc-all", 0.2));
  ASSERT_FALSE(no_db.ok());
  EXPECT_EQ(no_db.status().code(), StatusCode::kInvalidArgument);

  engine.LoadDatabase(EngineDb());
  auto bad_algo = engine.Submit(Request("no-such-miner", 0.2));
  ASSERT_FALSE(bad_algo.ok());
  EXPECT_EQ(bad_algo.status().code(), StatusCode::kInvalidArgument);

  auto bad_minsup = engine.Submit(Request("disc-all", 1.5));
  ASSERT_FALSE(bad_minsup.ok());
  EXPECT_EQ(bad_minsup.status().code(), StatusCode::kInvalidArgument);

  // Errors surface through the blocking wrapper too.
  EXPECT_EQ(engine.Mine(Request("no-such-miner", 0.2)).status.code(),
            StatusCode::kInvalidArgument);
}

TEST(EngineTest, LoadSpmfFailureKeepsCurrentDatabase) {
  engine::Engine engine;
  engine.LoadDatabase(EngineDb());
  const auto before = engine.database();
  auto bad = engine.LoadSpmf("/no/such/file.spmf");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kIoError);
  EXPECT_EQ(engine.database().get(), before.get());
  EXPECT_EQ(engine.loads(), 1u);
}

// Engine-path regression next to CancelDeterminism: a session stopped by
// its CancelToken (via the deterministic cancel_after budget) returns
// kCancelled and a pattern block that is an exact byte-prefix of the full
// run's, cached or not, serial or parallel.
TEST(EngineTest, CancelAfterYieldsBytePrefixPartialResult) {
  engine::Engine engine;
  engine.LoadDatabase(EngineDb());

  for (const std::uint32_t threads : {1u, 4u}) {
    const engine::MineResponse full =
        engine.Mine(Request("disc-all", 0.05, threads));
    ASSERT_TRUE(full.status.ok());
    const std::string full_text = ToSpmfPatternString(full.patterns);

    for (const std::uint64_t budget : {0ull, 3ull, 10ull}) {
      auto request = Request("disc-all", 0.05, threads);
      request.cancel_after = budget;
      const engine::MineResponse partial = engine.Mine(request);
      EXPECT_EQ(partial.status.code(), StatusCode::kCancelled)
          << "threads=" << threads << " budget=" << budget;
      EXPECT_TRUE(partial.partial());
      const std::string partial_text = ToSpmfPatternString(partial.patterns);
      EXPECT_LT(partial.patterns.size(), full.patterns.size());
      EXPECT_EQ(partial_text, full_text.substr(0, partial_text.size()))
          << "threads=" << threads << " budget=" << budget
          << ": partial output must be a byte-prefix of the full output";
    }
  }
}

TEST(EngineTest, SessionCancelStopsTheRun) {
  engine::Engine engine;
  engine.LoadDatabase(EngineDb());
  auto request = Request("disc-all", 0.05);
  auto session_or = engine.Submit(request);
  ASSERT_TRUE(session_or.ok());
  const std::shared_ptr<engine::Session> session = *session_or;
  session->Cancel();  // may land before, during, or after the mine
  session->Wait();
  ASSERT_TRUE(session->done());
  const engine::MineResponse& response = session->response();
  // Either the cancel landed (kCancelled, prefix partial) or the run
  // finished first (OK) — both are valid; undefined states are not.
  EXPECT_TRUE(response.status.ok() ||
              response.status.code() == StatusCode::kCancelled)
      << response.status.ToString();
}

TEST(EngineTest, ConcurrentSessionsShareTheCache) {
  engine::Engine::Config config;
  config.session_threads = 4;
  engine::Engine engine(config);
  engine.LoadDatabase(EngineDb());

  const engine::MineResponse reference = engine.Mine(Request("disc-all", 0.1));
  ASSERT_TRUE(reference.status.ok());

  std::vector<std::shared_ptr<engine::Session>> sessions;
  for (int i = 0; i < 6; ++i) {
    auto session = engine.Submit(Request("disc-all", 0.1));
    ASSERT_TRUE(session.ok());
    sessions.push_back(*session);
  }
  for (const auto& session : sessions) {
    session->Wait();
    const engine::MineResponse& response = session->response();
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
    EXPECT_EQ(response.cache, engine::CacheOutcome::kHit);
    EXPECT_EQ(ToSpmfPatternString(response.patterns),
              ToSpmfPatternString(reference.patterns));
  }
  EXPECT_EQ(engine.queries(), 7u);
  EXPECT_EQ(engine.active(), 0u);
}

}  // namespace
}  // namespace disc
