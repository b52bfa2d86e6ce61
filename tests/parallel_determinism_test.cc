// Determinism of the partition-scheduled miners: the mined PatternSet must
// be byte-identical for every thread count (docs/PARALLELISM.md), and the
// disc-all-nobilevel support-counting invariant must hold under
// parallelism exactly as it does serially.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>

#include "disc/algo/miner.h"
#include "disc/core/dynamic_disc_all.h"
#include "disc/gen/quest.h"
#include "test_util.h"

namespace disc {
namespace {

SequenceDatabase QuestDb() {
  return testutil::MakeQuestDb(
      {.ncust = 250, .nitems = 100, .slen = 6, .tlen = 2.5});
}

constexpr std::uint32_t kThreadCounts[] = {1, 2, 4, 8};

TEST(ParallelDeterminism, DiscAllByteIdenticalAcrossThreadCounts) {
  const SequenceDatabase db = QuestDb();
  MineOptions options;
  options.min_support_count = MineOptions::CountForFraction(db.size(), 0.05);
  options.threads = 1;
  const std::string baseline =
      CreateMiner("disc-all")->Mine(db, options).ToString();
  for (const std::uint32_t threads : kThreadCounts) {
    options.threads = threads;
    EXPECT_EQ(CreateMiner("disc-all")->Mine(db, options).ToString(), baseline)
        << "threads=" << threads;
  }
}

TEST(ParallelDeterminism, DynamicDiscAllByteIdenticalAcrossThreadCounts) {
  const SequenceDatabase db = QuestDb();
  MineOptions options;
  options.min_support_count = MineOptions::CountForFraction(db.size(), 0.05);
  options.threads = 1;
  const std::string baseline =
      CreateMiner("dynamic-disc-all")->Mine(db, options).ToString();
  for (const std::uint32_t threads : kThreadCounts) {
    options.threads = threads;
    EXPECT_EQ(CreateMiner("dynamic-disc-all")->Mine(db, options).ToString(),
              baseline)
        << "threads=" << threads;
  }
}

TEST(ParallelDeterminism, HardwareThreadsMatchSerial) {
  // threads = 0 resolves to the hardware concurrency, whatever it is here.
  const SequenceDatabase db = testutil::RandomDatabase(3);
  MineOptions options;
  options.min_support_count = 2;
  for (const char* algo : {"disc-all", "dynamic-disc-all"}) {
    options.threads = 1;
    const std::string baseline = CreateMiner(algo)->Mine(db, options).ToString();
    options.threads = 0;
    EXPECT_EQ(CreateMiner(algo)->Mine(db, options).ToString(), baseline)
        << algo;
  }
}

// --- Cancellation: the partial result is a byte-prefix of the full one ---

// Asserts `partial` is a (not necessarily proper) byte-prefix of `full`.
void ExpectBytePrefix(const std::string& partial, const std::string& full,
                      const std::string& label) {
  ASSERT_LE(partial.size(), full.size()) << label;
  EXPECT_EQ(full.compare(0, partial.size(), partial), 0) << label;
}

TEST(CancelDeterminism, DiscAllPartialIsBytePrefixAtEveryThreadCount) {
  const SequenceDatabase db = QuestDb();
  MineOptions options;
  options.min_support_count = MineOptions::CountForFraction(db.size(), 0.05);
  options.threads = 1;
  const std::string full =
      CreateMiner("disc-all")->Mine(db, options).ToString();
  for (const std::uint32_t threads : kThreadCounts) {
    for (const std::uint64_t budget : {std::uint64_t{0}, std::uint64_t{3},
                                       std::uint64_t{10}}) {
      CancelToken token;
      token.CancelAfter(budget);
      options.threads = threads;
      options.cancel = &token;
      const auto miner = CreateMiner("disc-all");
      MineResult result = miner->TryMine(db, options);
      const std::string label = "threads=" + std::to_string(threads) +
                                " budget=" + std::to_string(budget);
      EXPECT_EQ(result.status.code(), StatusCode::kCancelled) << label;
      EXPECT_TRUE(miner->last_stats().cancelled) << label;
      EXPECT_FALSE(miner->last_stats().deadline_exceeded) << label;
      ExpectBytePrefix(result.patterns.ToString(), full, label);
    }
  }
  options.cancel = nullptr;
}

TEST(CancelDeterminism, DynamicDiscAllPartialIsBytePrefixAtEveryThreadCount) {
  const SequenceDatabase db = QuestDb();
  MineOptions options;
  options.min_support_count = MineOptions::CountForFraction(db.size(), 0.05);
  options.threads = 1;
  const std::string full =
      CreateMiner("dynamic-disc-all")->Mine(db, options).ToString();
  for (const std::uint32_t threads : kThreadCounts) {
    for (const std::uint64_t budget : {std::uint64_t{0}, std::uint64_t{2},
                                       std::uint64_t{7}}) {
      CancelToken token;
      token.CancelAfter(budget);
      options.threads = threads;
      options.cancel = &token;
      MineResult result = CreateMiner("dynamic-disc-all")->TryMine(db, options);
      const std::string label = "threads=" + std::to_string(threads) +
                                " budget=" + std::to_string(budget);
      EXPECT_EQ(result.status.code(), StatusCode::kCancelled) << label;
      ExpectBytePrefix(result.patterns.ToString(), full, label);
    }
  }
  options.cancel = nullptr;
}

TEST(CancelDeterminism, SerialCancelAtPartitionKIsExactPrefix) {
  // Serially, CancelAfter(k) stops exactly before the (k+1)-th partition,
  // so the prefix grows monotonically with k and reaches the full result.
  const SequenceDatabase db = QuestDb();
  MineOptions options;
  options.min_support_count = MineOptions::CountForFraction(db.size(), 0.05);
  options.threads = 1;
  const std::string full =
      CreateMiner("disc-all")->Mine(db, options).ToString();
  std::string previous;
  for (std::uint64_t k = 0; k < 200; k += 20) {
    CancelToken token;
    token.CancelAfter(k);
    options.cancel = &token;
    MineResult result = CreateMiner("disc-all")->TryMine(db, options);
    const std::string partial = result.patterns.ToString();
    ExpectBytePrefix(previous, partial, "k=" + std::to_string(k));
    ExpectBytePrefix(partial, full, "k=" + std::to_string(k));
    previous = partial;
  }
  options.cancel = nullptr;
}

TEST(CancelDeterminism, UncancelledTokenChangesNothing) {
  const SequenceDatabase db = QuestDb();
  MineOptions options;
  options.min_support_count = MineOptions::CountForFraction(db.size(), 0.05);
  options.threads = 1;
  const std::string full =
      CreateMiner("disc-all")->Mine(db, options).ToString();
  CancelToken token;  // never cancelled, no budget
  options.cancel = &token;
  for (const std::uint32_t threads : kThreadCounts) {
    options.threads = threads;
    MineResult result = CreateMiner("disc-all")->TryMine(db, options);
    EXPECT_TRUE(result.status.ok()) << "threads=" << threads;
    EXPECT_EQ(result.patterns.ToString(), full) << "threads=" << threads;
  }
  options.cancel = nullptr;
}

TEST(CancelDeterminism, DeadlinePartialIsBytePrefix) {
  const SequenceDatabase db = QuestDb();
  MineOptions options;
  options.min_support_count = MineOptions::CountForFraction(db.size(), 0.05);
  options.threads = 1;
  const std::string full =
      CreateMiner("disc-all")->Mine(db, options).ToString();
  for (const std::uint32_t threads : kThreadCounts) {
    options.threads = threads;
    options.deadline_ms = 1;
    const auto miner = CreateMiner("disc-all");
    MineResult result = miner->TryMine(db, options);
    const std::string label = "threads=" + std::to_string(threads);
    // The run may or may not finish within 1ms; either way the result must
    // be a byte-prefix of the full result and the status must match the
    // stats flags.
    if (result.status.ok()) {
      EXPECT_EQ(result.patterns.ToString(), full) << label;
      EXPECT_FALSE(miner->last_stats().deadline_exceeded) << label;
    } else {
      EXPECT_EQ(result.status.code(), StatusCode::kDeadlineExceeded) << label;
      EXPECT_TRUE(miner->last_stats().deadline_exceeded) << label;
      ExpectBytePrefix(result.patterns.ToString(), full, label);
    }
  }
  options.deadline_ms = 0;
}

TEST(CancelDeterminism, NoBilevelCancelKeepsCountingInvariant) {
  // Cancellation must not leak k>=4 support counting into the nobilevel
  // configuration at any thread count.
  const SequenceDatabase db = QuestDb();
  MineOptions options;
  options.min_support_count = MineOptions::CountForFraction(db.size(), 0.05);
  for (const std::uint32_t threads : kThreadCounts) {
    CancelToken token;
    token.CancelAfter(5);
    options.threads = threads;
    options.cancel = &token;
    const std::unique_ptr<Miner> miner = CreateMiner("disc-all-nobilevel");
    miner->TryMine(db, options);
    EXPECT_EQ(miner->last_stats().Counter("support.increments.k4plus"), 0u)
        << "threads=" << threads;
  }
  options.cancel = nullptr;
}

TEST(ParallelDeterminism, NoBilevelNeverCountsLongSupports) {
  // disc-all-nobilevel harvests at most 3-sequences by support counting;
  // "support.increments.k4plus" must stay zero at every thread count (the
  // counter is zero trivially when the obs layer is compiled out).
  const SequenceDatabase db = QuestDb();
  MineOptions options;
  options.min_support_count = MineOptions::CountForFraction(db.size(), 0.05);
  for (const std::uint32_t threads : kThreadCounts) {
    options.threads = threads;
    const std::unique_ptr<Miner> miner = CreateMiner("disc-all-nobilevel");
    miner->Mine(db, options);
    EXPECT_EQ(miner->last_stats().Counter("support.increments.k4plus"), 0u)
        << "threads=" << threads;
  }
}

}  // namespace
}  // namespace disc
