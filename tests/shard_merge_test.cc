// Sharded mining equivalence: MineShardFiles over PackShards' files must be
// byte-identical (ToSpmfPatternString) to the unsharded miner on the
// committed golden corpus, across shard counts, thread counts, and both
// DISC miners — the merge is a reproduction of the result, not an
// approximation of it. Plus the planner/extractor invariants the
// equivalence rests on, and the validation MineShardFiles applies to a
// hostile or mis-ordered shard set.
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "disc/algo/miner.h"
#include "disc/algo/pattern_io.h"
#include "disc/core/shard.h"
#include "disc/seq/io.h"
#include "disc/seq/storage.h"
#include "test_util.h"

namespace disc {
namespace {

struct Corpus {
  const char* db;
  std::uint32_t delta;
};

constexpr Corpus kCorpora[] = {
    {"quest_tiny.spmf", 4},
    {"quest_mid.spmf", 6},
    {"quest_dense.spmf", 8},
};

const char* const kMiners[] = {"disc-all", "dynamic-disc-all"};

std::string DataPath(const std::string& name) {
  return std::string(DISC_TEST_DATA_DIR) + "/" + name;
}

// Packs `db` into `shards` shard files next to the temp base `name` and
// returns their paths.
std::vector<std::string> Pack(const SequenceDatabase& db,
                              const std::string& name, std::uint32_t shards) {
  std::vector<std::string> paths;
  const Status packed =
      PackShards(db, ::testing::TempDir() + "/" + name, shards, &paths);
  EXPECT_TRUE(packed.ok()) << packed.ToString();
  return paths;
}

TEST(PlanShards, CoversTheAlphabetContiguously) {
  const SequenceDatabase db = testutil::MakeQuestDb();
  for (const std::uint32_t count : {1u, 2u, 3u, 7u, 16u}) {
    SCOPED_TRACE(count);
    const ShardPlan plan = PlanShards(db, count);
    ASSERT_FALSE(plan.shards.empty());
    EXPECT_LE(plan.shards.size(), count);
    EXPECT_EQ(plan.total_customers, db.size());
    EXPECT_EQ(plan.max_item, db.max_item());
    // Contiguous cover of [1, max_item], in index order.
    EXPECT_EQ(plan.shards.front().lambda_lo, 1u);
    EXPECT_EQ(plan.shards.back().lambda_hi, db.max_item());
    for (std::size_t i = 0; i < plan.shards.size(); ++i) {
      EXPECT_EQ(plan.shards[i].index, i);
      EXPECT_LE(plan.shards[i].lambda_lo, plan.shards[i].lambda_hi);
      if (i > 0) {
        EXPECT_EQ(plan.shards[i].lambda_lo,
                  plan.shards[i - 1].lambda_hi + 1);
      }
    }
  }
}

TEST(PlanShards, ClampsToTheAlphabetSize) {
  // 3 distinct items can fill at most 3 shards, however many are asked
  // for.
  const SequenceDatabase db = MakeDatabase({"(a)(b)", "(b,c)", "(a,c)"});
  const ShardPlan plan = PlanShards(db, 64);
  EXPECT_EQ(plan.shards.size(), 3u);
}

TEST(PlanShards, EmptyDatabaseGetsOneTrivialShard) {
  const SequenceDatabase empty;
  const ShardPlan plan = PlanShards(empty, 8);
  ASSERT_EQ(plan.shards.size(), 1u);
  EXPECT_EQ(plan.shards[0].lambda_lo, 1u);
  EXPECT_EQ(plan.shards[0].lambda_hi, 1u);
  EXPECT_EQ(plan.total_customers, 0u);
}

TEST(ExtractShard, KeepsWholeSequencesOfEveryInRangeCustomer) {
  const SequenceDatabase db = testutil::Table6Database();
  ShardSpec spec;
  spec.lambda_lo = 2;  // b
  spec.lambda_hi = 4;  // d
  const SequenceDatabase shard = ExtractShard(db, spec);

  std::size_t expected = 0;
  for (Cid cid = 0; cid < db.size(); ++cid) {
    bool in_range = false;
    const SequenceView seq = db[cid];
    for (std::uint32_t p = 0; p < seq.Length(); ++p) {
      const Item x = seq.ItemAt(p);
      if (x >= spec.lambda_lo && x <= spec.lambda_hi) in_range = true;
    }
    if (!in_range) continue;
    // Present, whole (not projected), and in CID order.
    ASSERT_LT(expected, shard.size());
    EXPECT_TRUE(shard[expected] == seq) << "cid=" << cid;
    ++expected;
  }
  EXPECT_EQ(shard.size(), expected);
  EXPECT_LT(shard.size(), db.size());  // the range must actually filter
}

TEST(ShardPath, EncodesIndexAndCount) {
  EXPECT_EQ(ShardPath("corpus.dsa", 0, 4), "corpus.shard0of4.dsa");
  EXPECT_EQ(ShardPath("corpus", 3, 4), "corpus.shard3of4.dsa");
  EXPECT_EQ(ShardPath("/tmp/x/c.dsa", 1, 2), "/tmp/x/c.shard1of2.dsa");
}

// The headline guarantee: sharded mining is byte-identical to unsharded,
// for every corpus x shard count x thread count x DISC miner.
TEST(ShardMerge, MineShardedIsByteIdenticalOnGoldenCorpus) {
  for (const Corpus& corpus : kCorpora) {
    SCOPED_TRACE(corpus.db);
    const SequenceDatabase db = TryLoadSpmf(DataPath(corpus.db)).value();
    const std::uint32_t shard_counts[] = {1, 2, 4, 8};
    std::vector<std::vector<std::string>> packs;
    for (const std::uint32_t shards : shard_counts) {
      packs.push_back(
          Pack(db, std::string("golden_") + corpus.db + ".dsa", shards));
    }
    MineOptions options;
    options.min_support_count = corpus.delta;
    for (const char* miner : kMiners) {
      for (const std::uint32_t threads : {1u, 4u}) {
        SCOPED_TRACE(std::string(miner) +
                     " threads=" + std::to_string(threads));
        options.threads = threads;
        MineResult unsharded = CreateMiner(miner)->TryMine(db, options);
        ASSERT_TRUE(unsharded.status.ok());
        const std::string want = ToSpmfPatternString(unsharded.patterns);
        for (std::size_t i = 0; i < packs.size(); ++i) {
          SCOPED_TRACE("shards=" + std::to_string(shard_counts[i]));
          MineResult sharded = MineShardFiles(packs[i], miner, options);
          ASSERT_TRUE(sharded.status.ok()) << sharded.status.ToString();
          EXPECT_EQ(ToSpmfPatternString(sharded.patterns), want);
        }
      }
    }
  }
}

// Out-of-core path: pack shards to disk, mine them back one mmap at a
// time, same bytes out.
TEST(ShardMerge, MineShardFilesIsByteIdenticalOnGoldenCorpus) {
  const Corpus& corpus = kCorpora[1];  // quest_mid
  const SequenceDatabase db = TryLoadSpmf(DataPath(corpus.db)).value();
  MineOptions options;
  options.min_support_count = corpus.delta;

  const std::string base = ::testing::TempDir() + "/shard_merge_mid.dsa";
  std::vector<std::string> paths;
  ASSERT_TRUE(PackShards(db, base, 4, &paths).ok());
  ASSERT_EQ(paths.size(), 4u);
  for (std::size_t i = 0; i < paths.size(); ++i) {
    EXPECT_EQ(paths[i], ShardPath(base, static_cast<std::uint32_t>(i), 4));
  }

  for (const char* miner : kMiners) {
    SCOPED_TRACE(miner);
    MineResult unsharded = CreateMiner(miner)->TryMine(db, options);
    ASSERT_TRUE(unsharded.status.ok());
    MineResult from_files = MineShardFiles(paths, miner, options);
    ASSERT_TRUE(from_files.status.ok()) << from_files.status.ToString();
    EXPECT_EQ(ToSpmfPatternString(from_files.patterns),
              ToSpmfPatternString(unsharded.patterns));
  }
}

TEST(ShardMerge, ShardFilesRecordTheirRangeMetadata) {
  const SequenceDatabase db = testutil::MakeQuestDb();
  const std::string base = ::testing::TempDir() + "/shard_meta.dsa";
  std::vector<std::string> paths;
  ASSERT_TRUE(PackShards(db, base, 3, &paths).ok());
  const ShardPlan plan = PlanShards(db, 3);
  ASSERT_EQ(paths.size(), plan.shards.size());
  for (std::size_t i = 0; i < paths.size(); ++i) {
    SCOPED_TRACE(paths[i]);
    auto info = ReadDsaInfo(paths[i]);
    ASSERT_TRUE(info.ok()) << info.status().ToString();
    EXPECT_EQ(info->shard.shard_index, i);
    EXPECT_EQ(info->shard.shard_count, paths.size());
    EXPECT_EQ(info->shard.lambda_lo, plan.shards[i].lambda_lo);
    EXPECT_EQ(info->shard.lambda_hi, plan.shards[i].lambda_hi);
    EXPECT_EQ(info->shard.total_customers, db.size());
  }
}

TEST(ShardMerge, MineShardFilesRejectsMisorderedOrIncompleteSets) {
  const SequenceDatabase db = testutil::MakeQuestDb();
  const std::string base = ::testing::TempDir() + "/shard_validate.dsa";
  std::vector<std::string> paths;
  ASSERT_TRUE(PackShards(db, base, 3, &paths).ok());
  MineOptions options;
  options.min_support_count = 2;

  // Swapped order: shard 1 where shard 0 belongs.
  std::vector<std::string> swapped = {paths[1], paths[0], paths[2]};
  EXPECT_FALSE(MineShardFiles(swapped, "disc-all", options).status.ok());

  // Missing middle shard: the λ cover has a hole.
  std::vector<std::string> holed = {paths[0], paths[2]};
  EXPECT_FALSE(MineShardFiles(holed, "disc-all", options).status.ok());

  // A shard of a different packing (count mismatch).
  std::vector<std::string> other_paths;
  ASSERT_TRUE(PackShards(db, ::testing::TempDir() + "/shard_other.dsa", 2,
                         &other_paths)
                  .ok());
  std::vector<std::string> mixed = {other_paths[0], paths[1], paths[2]};
  EXPECT_FALSE(MineShardFiles(mixed, "disc-all", options).status.ok());

  // No paths at all.
  EXPECT_FALSE(MineShardFiles({}, "disc-all", options).status.ok());

  // The untampered set still mines fine after all the rejected attempts.
  EXPECT_TRUE(MineShardFiles(paths, "disc-all", options).status.ok());
}

TEST(ShardMerge, MineShardRangeRequiresAFirstLevelConsumer) {
  // The λ restriction is injected through the FirstLevelConsumer seam;
  // miners without the seam (the baselines) cannot be range-restricted.
  const SequenceDatabase db = testutil::Table1Database();
  MineOptions options;
  options.min_support_count = 2;
  auto miner = CreateMiner("prefixspan");
  MineResult result = MineShardRange(*miner, db, options, 1, db.max_item());
  EXPECT_EQ(result.status.code(), StatusCode::kInvalidArgument);
}

TEST(ShardMerge, ShardedMiningOnTinyEdgeDatabases) {
  MineOptions options;
  options.min_support_count = 1;
  // Empty database: nothing to mine, nothing to crash on.
  const SequenceDatabase empty;
  MineResult r =
      MineShardFiles(Pack(empty, "shard_empty.dsa", 4), "disc-all", options);
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_EQ(r.patterns.size(), 0u);

  // Single-item database across more shards than items.
  const SequenceDatabase one = MakeDatabase({"(a)", "(a)"});
  MineResult r1 =
      MineShardFiles(Pack(one, "shard_one.dsa", 8), "disc-all", options);
  ASSERT_TRUE(r1.status.ok()) << r1.status.ToString();
  MineResult direct = CreateMiner("disc-all")->TryMine(one, options);
  EXPECT_EQ(ToSpmfPatternString(r1.patterns),
            ToSpmfPatternString(direct.patterns));
}

}  // namespace
}  // namespace disc
