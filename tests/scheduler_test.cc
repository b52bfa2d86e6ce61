// The partition scheduler (core/scheduler.h) driven by fake partitions:
// serial order on the calling thread, the stop checkpoint, failure
// containment into one kInternal status, and balanced telemetry ticks, at
// one and several workers.
#include "disc/core/scheduler.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "disc/common/cancel.h"
#include "disc/obs/progress.h"

namespace disc {
namespace {

constexpr std::size_t kPartitions = 12;
constexpr std::size_t kWorkerCounts[] = {1, 2, 4};

std::vector<Item> Ids() {
  std::vector<Item> ids(kPartitions);
  std::iota(ids.begin(), ids.end(), Item{1});
  return ids;
}

// Skewed, with ties, so the largest-first order differs from ascending.
std::vector<std::uint64_t> Weights() {
  std::vector<std::uint64_t> weights;
  for (std::size_t i = 0; i < kPartitions; ++i) weights.push_back(i * 7 % 5);
  return weights;
}

// Records which partitions were mined; safe to call from pool workers.
class Tally {
 public:
  Tally() : mined_(kPartitions) {}
  void Mark(std::size_t i) { mined_[i].fetch_add(1); }
  int Count(std::size_t i) const { return mined_[i].load(); }
  // The scheduler's return value must be exactly this: the length of the
  // leading run of mined partitions.
  std::size_t LeadingMined() const {
    std::size_t i = 0;
    while (i < kPartitions && Count(i) == 1) ++i;
    return i;
  }

 private:
  std::vector<std::atomic<int>> mined_;
};

TEST(Scheduler, PartitionWorkersCapsAtThePartitionCount) {
  EXPECT_EQ(PartitionWorkers(4, 10), 4u);
  EXPECT_EQ(PartitionWorkers(4, 3), 3u);
  EXPECT_EQ(PartitionWorkers(4, 0), 1u);
  EXPECT_EQ(PartitionWorkers(1, 10), 1u);
  EXPECT_GE(PartitionWorkers(0, 10), 1u);  // 0 = hardware concurrency
}

TEST(Scheduler, OneWorkerRunsAscendingOnTheCallingThread) {
  RunControl ctl(nullptr, 0);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  bool on_caller = true;
  const std::size_t done = MinePartitions(
      Ids(), Weights(), 1, ctl, nullptr,
      [&](std::size_t i, std::size_t worker) -> std::uint64_t {
        order.push_back(i);
        on_caller = on_caller && worker == 0 &&
                    std::this_thread::get_id() == caller;
        return 0;
      });
  std::vector<std::size_t> ascending(kPartitions);
  std::iota(ascending.begin(), ascending.end(), std::size_t{0});
  EXPECT_EQ(done, kPartitions);
  EXPECT_EQ(order, ascending);
  EXPECT_TRUE(on_caller);
  EXPECT_TRUE(ctl.ToStatus().ok());
}

TEST(Scheduler, EveryPartitionRunsOnceAtEveryWorkerCount) {
  for (const std::size_t workers : kWorkerCounts) {
    RunControl ctl(nullptr, 0);
    Tally tally;
    std::atomic<bool> worker_in_range{true};
    const std::size_t done = MinePartitions(
        Ids(), Weights(), workers, ctl, nullptr,
        [&](std::size_t i, std::size_t worker) -> std::uint64_t {
          tally.Mark(i);
          if (worker >= workers) worker_in_range = false;
          return 0;
        });
    EXPECT_EQ(done, kPartitions) << "workers=" << workers;
    EXPECT_TRUE(worker_in_range) << "workers=" << workers;
    for (std::size_t i = 0; i < kPartitions; ++i) {
      EXPECT_EQ(tally.Count(i), 1) << "workers=" << workers << " i=" << i;
    }
  }
}

TEST(Scheduler, StopAtEntryOfPartitionKCompletesK) {
  // Each partition polls the stop checkpoint once at entry, so a budget of
  // k polls stops the serial run exactly at the entry of partition k.
  for (const std::uint64_t k : {0u, 1u, 5u, 11u}) {
    CancelToken token;
    token.CancelAfter(k);
    RunControl ctl(&token, 0);
    Tally tally;
    const std::size_t done = MinePartitions(
        Ids(), Weights(), 1, ctl, nullptr,
        [&](std::size_t i, std::size_t) -> std::uint64_t {
          tally.Mark(i);
          return 0;
        });
    EXPECT_EQ(done, k);
    for (std::size_t i = 0; i < kPartitions; ++i) {
      EXPECT_EQ(tally.Count(i), i < k ? 1 : 0) << "k=" << k << " i=" << i;
    }
    EXPECT_EQ(ctl.ToStatus().code(), StatusCode::kCancelled) << "k=" << k;
  }
}

TEST(Scheduler, StoppedParallelRunReturnsOnlyCompletedPartitions) {
  for (const std::size_t workers : kWorkerCounts) {
    CancelToken token;
    RunControl ctl(&token, 0);
    Tally tally;
    const std::size_t done = MinePartitions(
        Ids(), Weights(), workers, ctl, nullptr,
        [&](std::size_t i, std::size_t) -> std::uint64_t {
          tally.Mark(i);
          if (i == 4) token.RequestCancel();
          return 0;
        });
    const std::string label = "workers=" + std::to_string(workers);
    EXPECT_EQ(done, tally.LeadingMined()) << label;
    if (workers == 1) {
      EXPECT_EQ(done, 5u) << label;  // partition 4 itself still completes
    }
    // In parallel every other entry may have polled before partition 4
    // cancelled; then nothing observed the stop and the run is complete.
    if (done < kPartitions) {
      EXPECT_EQ(ctl.ToStatus().code(), StatusCode::kCancelled) << label;
    }
  }
}

TEST(Scheduler, ThrowAtPartitionKIsOneInternalStatus) {
  for (const std::size_t workers : kWorkerCounts) {
    for (const std::size_t k : {std::size_t{0}, std::size_t{6}}) {
      RunControl ctl(nullptr, 0);
      Tally tally;
      const std::size_t done = MinePartitions(
          Ids(), Weights(), workers, ctl, nullptr,
          [&](std::size_t i, std::size_t) -> std::uint64_t {
            if (i == k) throw std::runtime_error("boom");
            tally.Mark(i);
            return 0;
          });
      const std::string label =
          "workers=" + std::to_string(workers) + " k=" + std::to_string(k);
      const Status status = ctl.ToStatus();
      EXPECT_EQ(status.code(), StatusCode::kInternal) << label;
      EXPECT_EQ(status.message(), "partition mining failed: boom") << label;
      EXPECT_LE(done, k) << label;
      EXPECT_EQ(done, tally.LeadingMined()) << label;
      if (workers == 1) {
        EXPECT_EQ(done, k) << label;
        for (std::size_t i = k + 1; i < kPartitions; ++i) {
          EXPECT_EQ(tally.Count(i), 0) << label << " i=" << i;
        }
      }
    }
  }
}

TEST(Scheduler, NonStandardExceptionIsContainedToo) {
  for (const std::size_t workers : kWorkerCounts) {
    RunControl ctl(nullptr, 0);
    const std::size_t done = MinePartitions(
        Ids(), Weights(), workers, ctl, nullptr,
        [](std::size_t i, std::size_t) -> std::uint64_t {
          if (i == 2) throw 42;
          return 0;
        });
    EXPECT_LE(done, 2u) << "workers=" << workers;
    EXPECT_EQ(ctl.ToStatus().message(),
              "partition mining failed: unknown exception")
        << "workers=" << workers;
  }
}

TEST(Scheduler, TelemetryStartedEqualsDonePlusAborted) {
  obs::RunRegistry& registry = obs::RunRegistry::Global();
  registry.ResetForTest();
  for (const std::size_t workers : kWorkerCounts) {
    for (const bool fail : {false, true}) {
      const std::string label = "workers=" + std::to_string(workers) +
                                " fail=" + std::to_string(fail);
      const auto tel = registry.Begin("scheduler-test", kPartitions);
      ASSERT_NE(tel, nullptr);
      RunControl ctl(nullptr, 0);
      std::atomic<std::uint64_t> started{0};
      std::atomic<std::uint64_t> aborted{0};
      const std::size_t done = MinePartitions(
          Ids(), Weights(), workers, ctl, tel.get(),
          [&](std::size_t i, std::size_t) -> std::uint64_t {
            started.fetch_add(1);
            if (fail && i == 3) {
              aborted.fetch_add(1);
              throw std::runtime_error("boom");
            }
            return 10;
          });
      const obs::ProgressSnapshot snap = tel->Snapshot();
      EXPECT_EQ(snap.partitions_total, kPartitions) << label;
      EXPECT_EQ(snap.partitions_in_flight, 0u) << label;
      EXPECT_EQ(started.load(), snap.partitions_completed + aborted.load())
          << label;
      EXPECT_EQ(snap.patterns_found, 10 * snap.partitions_completed) << label;
      EXPECT_LE(done, snap.partitions_completed) << label;
      if (!fail) {
        EXPECT_EQ(done, kPartitions) << label;
      }
      registry.Finish(tel, snap.patterns_found, 0.0, false, false);
    }
  }
  registry.ResetForTest();
}

}  // namespace
}  // namespace disc
