#include "disc/common/failpoint.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>

#include "disc/algo/miner.h"
#include "disc/common/file_util.h"
#include "disc/obs/metrics.h"
#include "disc/seq/io.h"
#include "disc/seq/parse.h"
#include "disc/seq/storage.h"

namespace disc {
namespace {

// Disarms every fail point on scope exit so one test cannot leak injected
// faults into the next.
struct FailpointGuard {
  FailpointGuard() { failpoint::Reset(); }
  ~FailpointGuard() { failpoint::Reset(); }
};

std::uint64_t Triggered(const std::string& name) {
  return obs::MetricsRegistry::Global()
      .counter("failpoint.triggered." + name)
      ->value();
}

TEST(Failpoint, OffByDefault) {
  FailpointGuard guard;
  EXPECT_EQ(DISC_FAILPOINT("test.never_armed"), failpoint::Action::kOff);
  EXPECT_TRUE(failpoint::Armed().empty());
}

TEST(Failpoint, ConfigureArmsAndResetDisarms) {
  FailpointGuard guard;
  ASSERT_TRUE(failpoint::Configure("test.a=error").ok());
  EXPECT_TRUE(failpoint::AnyArmed());
  EXPECT_EQ(failpoint::Armed(), std::vector<std::string>{"test.a"});
  EXPECT_EQ(DISC_FAILPOINT("test.a"), failpoint::Action::kError);
  failpoint::Reset();
  EXPECT_EQ(DISC_FAILPOINT("test.a"), failpoint::Action::kOff);
  EXPECT_TRUE(failpoint::Armed().empty());
}

TEST(Failpoint, ThrowIsAliasOfError) {
  FailpointGuard guard;
  ASSERT_TRUE(failpoint::Configure("test.b=throw").ok());
  EXPECT_EQ(DISC_FAILPOINT("test.b"), failpoint::Action::kError);
}

TEST(Failpoint, OffEntryOverridesEarlierEntry) {
  FailpointGuard guard;
  ASSERT_TRUE(failpoint::Configure("test.c=error;test.c=off").ok());
  EXPECT_EQ(DISC_FAILPOINT("test.c"), failpoint::Action::kOff);
  EXPECT_TRUE(failpoint::Armed().empty());
}

TEST(Failpoint, DelayActionSleepsThenProceeds) {
  FailpointGuard guard;
  ASSERT_TRUE(failpoint::Configure("test.d=delay:20").ok());
  const auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(DISC_FAILPOINT("test.d"), failpoint::Action::kDelay);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  EXPECT_GE(elapsed.count(), 15);
}

TEST(Failpoint, MalformedSpecsRejectedAtomically) {
  FailpointGuard guard;
  EXPECT_EQ(failpoint::Configure("noequals").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(failpoint::Configure("=error").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(failpoint::Configure("a=explode").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(failpoint::Configure("a=delay:").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(failpoint::Configure("a=delay:12x").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(failpoint::Configure("a=delay:999999").code(),
            StatusCode::kInvalidArgument);
  // A rejected spec must not arm anything.
  EXPECT_TRUE(failpoint::Armed().empty());
}

TEST(Failpoint, SemicolonsAndWhitespaceTolerated) {
  FailpointGuard guard;
  ASSERT_TRUE(failpoint::Configure(" test.e = error ; ; test.f = delay:1 ;")
                  .ok());
  EXPECT_EQ(DISC_FAILPOINT("test.e"), failpoint::Action::kError);
  EXPECT_EQ(failpoint::Armed().size(), 2u);
}

TEST(Failpoint, FiringBumpsTriggeredCounter) {
  FailpointGuard guard;
  const std::uint64_t before = Triggered("test.g");
  ASSERT_TRUE(failpoint::Configure("test.g=error").ok());
  (void)DISC_FAILPOINT("test.g");
  (void)DISC_FAILPOINT("test.g");
  EXPECT_EQ(Triggered("test.g"), before + 2);
}

TEST(Failpoint, IoReadFailsTryLoadSpmf) {
  FailpointGuard guard;
  const std::string path = testing::TempDir() + "/failpoint_io_read.spmf";
  ASSERT_TRUE(SaveSpmf(MakeDatabase({"(a)(b)"}), path));
  ASSERT_TRUE(TryLoadSpmf(path).ok());
  ASSERT_TRUE(failpoint::Configure("io.read=error").ok());
  const auto result = TryLoadSpmf(path);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIoError);
  EXPECT_NE(result.status().message().find("io.read"), std::string::npos);
  failpoint::Reset();
  EXPECT_TRUE(TryLoadSpmf(path).ok());
  std::remove(path.c_str());
}

TEST(Failpoint, IoWriteFailureLeavesPreviousFileIntact) {
  FailpointGuard guard;
  const std::string path = testing::TempDir() + "/failpoint_atomic.txt";
  ASSERT_TRUE(WriteFileAtomic(path, "good contents\n").ok());
  ASSERT_TRUE(failpoint::Configure("io.write=error").ok());
  const Status status = WriteFileAtomic(path, "should never land\n");
  EXPECT_EQ(status.code(), StatusCode::kIoError);
  failpoint::Reset();
  // The injected failure hit the temp file before the rename: the old
  // contents must still be there, and no temp file may linger.
  std::ifstream in(path);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, "good contents");
  std::remove(path.c_str());
}

TEST(Failpoint, IoMmapFailureFailsDsaLoadCleanly) {
  FailpointGuard guard;
  const std::string path = testing::TempDir() + "/failpoint_mmap.dsa";
  const SequenceDatabase db = MakeDatabase({"(a)(b)", "(b,c)"});
  ASSERT_TRUE(SaveDsa(db, path).ok());
  ASSERT_TRUE(TryLoadDsa(path).ok());
  ASSERT_TRUE(failpoint::Configure("io.mmap=error").ok());
  const auto result = TryLoadDsa(path);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIoError);
  EXPECT_NE(result.status().message().find("io.mmap"), std::string::npos);
  failpoint::Reset();
  // The file itself is untouched by the injected mapping failure.
  EXPECT_TRUE(TryLoadDsa(path).ok());
  std::remove(path.c_str());
}

TEST(Failpoint, IoWriteFailureMidPackLeavesNoPartialDsa) {
  FailpointGuard guard;
  const std::string path = testing::TempDir() + "/failpoint_pack.dsa";
  std::remove(path.c_str());
  const SequenceDatabase db = MakeDatabase({"(a)(b)(c)", "(a,c)"});
  // Crash-atomicity from a cold start: the failed pack must not leave a
  // partial .dsa where none existed.
  ASSERT_TRUE(failpoint::Configure("io.write=error").ok());
  EXPECT_EQ(SaveDsa(db, path).code(), StatusCode::kIoError);
  failpoint::Reset();
  EXPECT_FALSE(std::ifstream(path).is_open())
      << "failed pack left a partial file behind";
  // And when a valid file already exists, a failed re-pack preserves it
  // bit for bit (WriteFileAtomic renames over, never writes in place).
  ASSERT_TRUE(SaveDsa(db, path).ok());
  const SequenceDatabase bigger = MakeDatabase({"(a)(b)(c)", "(a,c)", "(b)"});
  ASSERT_TRUE(failpoint::Configure("io.write=error").ok());
  EXPECT_EQ(SaveDsa(bigger, path).code(), StatusCode::kIoError);
  failpoint::Reset();
  auto survived = TryLoadDsa(path);
  ASSERT_TRUE(survived.ok()) << survived.status().ToString();
  EXPECT_EQ(survived->size(), db.size());  // the old pack, not the new one
  ASSERT_TRUE(SaveDsa(bigger, path).ok());  // re-pack succeeds once disarmed
  EXPECT_EQ(TryLoadDsa(path)->size(), bigger.size());
  std::remove(path.c_str());
}

TEST(Failpoint, PoolTaskThrowBecomesInternalStatus) {
  FailpointGuard guard;
  const SequenceDatabase db = MakeDatabase({
      "(a)(b)(c)",
      "(a)(b)",
      "(b)(c)",
      "(a)(c)",
  });
  MineOptions options;
  options.min_support_count = 2;
  options.threads = 2;
  ASSERT_TRUE(failpoint::Configure("pool.task=throw").ok());
  auto miner = CreateMiner("disc-all");
  MineResult result = miner->TryMine(db, options);
  EXPECT_EQ(result.status.code(), StatusCode::kInternal);
  EXPECT_NE(result.status.message().find("pool.task"), std::string::npos);
  failpoint::Reset();
  // The same miner object recovers completely once the fault is disarmed.
  MineResult clean = miner->TryMine(db, options);
  EXPECT_TRUE(clean.status.ok());
  EXPECT_GT(clean.patterns.size(), 0u);
}

// Asserts the contained failure's status and that its partial result is a
// byte-prefix of the full one (docs/ROBUSTNESS.md).
void ExpectContainedPrefix(const MineResult& result, const std::string& full,
                           const std::string& site, const std::string& label) {
  EXPECT_EQ(result.status.code(), StatusCode::kInternal) << label;
  EXPECT_EQ(result.status.message(),
            "partition mining failed: failpoint " + site)
      << label;
  const std::string partial = result.patterns.ToString();
  ASSERT_LE(partial.size(), full.size()) << label;
  EXPECT_EQ(full.compare(0, partial.size(), partial), 0) << label;
}

TEST(Failpoint, DiscReduceThrowIsContained) {
  FailpointGuard guard;
  // Both miners split the root here (Dynamic DISC-all's root NRR is
  // 16 / (6 * 7) < γ = 0.5). The ⟨a⟩-partition has no frequent
  // 2-sequence, so it completes before the ⟨b⟩-partition reaches the
  // reducer: the serial partial is <(a)>.
  const SequenceDatabase db = MakeDatabase({
      "(b)(c)(a)",
      "(c)(a)",
      "(b)(c)(d)",
      "(b)(c)(d)",
      "(b)(d)",
      "(e)(f)",
      "(e)(f)",
  });
  MineOptions options;
  options.min_support_count = 2;
  for (const char* algo : {"disc-all", "dynamic-disc-all"}) {
    options.threads = 1;
    const std::string full = CreateMiner(algo)->Mine(db, options).ToString();
    ASSERT_TRUE(failpoint::Configure("disc.reduce=throw").ok());
    for (const std::uint32_t threads : {1u, 2u}) {
      options.threads = threads;
      const MineResult result = CreateMiner(algo)->TryMine(db, options);
      const std::string label =
          std::string(algo) + " threads=" + std::to_string(threads);
      ExpectContainedPrefix(result, full, "disc.reduce", label);
      if (threads == 1) {
        EXPECT_EQ(result.patterns.size(), 1u) << label;
      }
    }
    failpoint::Reset();
  }
}

TEST(Failpoint, DiscLoopThrowIsContainedInBothMiners) {
  FailpointGuard guard;
  const SequenceDatabase db = MakeDatabase({
      "(a)(b)(c)(d)",
      "(a)(b)(c)(d)",
      "(a)(c)(b)(d)",
      "(b)(c)(d)(e)",
      "(b)(c)(d)(e)",
  });
  MineOptions options;
  options.min_support_count = 2;
  for (const char* algo : {"disc-all", "dynamic-disc-all"}) {
    options.threads = 1;
    const std::string full = CreateMiner(algo)->Mine(db, options).ToString();
    ASSERT_TRUE(failpoint::Configure("disc.loop=throw").ok());
    for (const std::uint32_t threads : {1u, 4u}) {
      options.threads = threads;
      const MineResult result = CreateMiner(algo)->TryMine(db, options);
      ExpectContainedPrefix(
          result, full, "disc.loop",
          std::string(algo) + " threads=" + std::to_string(threads));
    }
    failpoint::Reset();
  }
}

}  // namespace
}  // namespace disc
