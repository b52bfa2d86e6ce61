// Live-telemetry layer tests: run registry / progress snapshots, the JSONL
// event log and its validator, the Prometheus exposition writer and its
// validator, the background sampler, end-to-end miner wiring — plus a
// concurrent-writers stress test of MetricsRegistry::HarvestSince (run
// under tools/check_tsan.sh) asserting no counter delta is torn or lost.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "disc/algo/miner.h"
#include "disc/common/file_util.h"
#include "disc/gen/quest.h"
#include "disc/obs/event_log.h"
#include "disc/obs/expose.h"
#include "disc/obs/metrics.h"
#include "disc/obs/progress.h"
#include "disc/obs/sampler.h"
#include "test_util.h"

namespace disc {
namespace obs {
namespace {

class ObsLiveTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MetricsRegistry::Global().ResetAll();
    RunRegistry::Global().ResetForTest();
    EventLog::Global().Close();
  }
  void TearDown() override {
    EventLog::Global().Close();
    RunRegistry::Global().ResetForTest();
  }

  std::string TempPath(const std::string& name) {
    return ::testing::TempDir() + "obs_live_" + name;
  }
};

// ---------------------------------------------------------------- progress

TEST_F(ObsLiveTest, RunLifecycleProducesMonotoneSnapshots) {
  RunRegistry& reg = RunRegistry::Global();
  auto tel = reg.Begin("disc-all", 100);
  ASSERT_NE(tel, nullptr);
  EXPECT_EQ(reg.SnapshotActive().size(), 1u);

  tel->BeginPartitions(4, 100);
  tel->AddPatterns(7);
  ProgressSnapshot s = tel->Snapshot();
  EXPECT_EQ(s.partitions_total, 4u);
  EXPECT_EQ(s.partitions_completed, 0u);
  EXPECT_EQ(s.patterns_found, 7u);
  EXPECT_DOUBLE_EQ(s.PercentDone(), 0.0);
  EXPECT_LT(s.eta_seconds, 0.0) << "ETA unknown before the first completion";

  tel->PartitionStarted(3);
  s = tel->Snapshot();
  EXPECT_EQ(s.partitions_in_flight, 1u);

  tel->PartitionDone(3, 50, 10);
  s = tel->Snapshot();
  EXPECT_EQ(s.partitions_completed, 1u);
  EXPECT_EQ(s.partitions_in_flight, 0u);
  EXPECT_EQ(s.patterns_found, 17u);
  EXPECT_DOUBLE_EQ(s.PercentDone(), 25.0);
  EXPECT_DOUBLE_EQ(s.fraction_done, 0.5);  // 50 of 100 weight
  EXPECT_GE(s.eta_seconds, 0.0) << "ETA known once weight completed";

  reg.Finish(tel, 42, 1.5, /*cancelled=*/false, /*deadline_exceeded=*/false);
  EXPECT_TRUE(reg.SnapshotActive().empty());
  const auto all = reg.SnapshotAll();
  ASSERT_EQ(all.size(), 1u);
  EXPECT_TRUE(all[0].finished);
  EXPECT_EQ(all[0].patterns_found, 42u);
  EXPECT_DOUBLE_EQ(all[0].elapsed_seconds, 1.5);
  EXPECT_DOUBLE_EQ(all[0].fraction_done, 1.0);
  EXPECT_NE(all[0].ToString().find("[done]"), std::string::npos);
}

TEST_F(ObsLiveTest, PartitionAbortedReleasesInFlight) {
  auto tel = RunRegistry::Global().Begin("disc-all", 10);
  ASSERT_NE(tel, nullptr);
  tel->BeginPartitions(2, 2);
  tel->PartitionStarted(1);
  tel->PartitionAborted(1);
  EXPECT_EQ(tel->Snapshot().partitions_in_flight, 0u);
  EXPECT_EQ(tel->Snapshot().partitions_completed, 0u);
}

TEST_F(ObsLiveTest, FinishToleratesNull) {
  RunRegistry& reg = RunRegistry::Global();
  reg.Finish(nullptr, 0, 0.0, false, false);  // must not crash
  EXPECT_TRUE(reg.SnapshotAll().empty());
}

TEST_F(ObsLiveTest, FinishedRingIsCappedAndRunIdsAreMonotone) {
  RunRegistry& reg = RunRegistry::Global();
  std::uint64_t last_id = 0;
  for (std::size_t i = 0; i < RunRegistry::kMaxFinished + 10; ++i) {
    auto tel = reg.Begin("gsp", 1);
    ASSERT_NE(tel, nullptr);
    EXPECT_GT(tel->run_id(), last_id);
    last_id = tel->run_id();
    reg.Finish(tel, i, 0.0, false, false);
  }
  const auto all = reg.SnapshotAll();
  EXPECT_EQ(all.size(), RunRegistry::kMaxFinished);
  // Newest runs survive the cap.
  EXPECT_EQ(all.back().run_id, last_id);
}

TEST_F(ObsLiveTest, PercentDoneDegenerateCases) {
  ProgressSnapshot s;
  EXPECT_DOUBLE_EQ(s.PercentDone(), 0.0);  // unplanned, unfinished
  s.finished = true;
  EXPECT_DOUBLE_EQ(s.PercentDone(), 100.0);  // finished with no partitions
}

TEST_F(ObsLiveTest, RssHighWaterTracksMaxAndFlagsSampling) {
  auto tel = RunRegistry::Global().Begin("spade", 5);
  ASSERT_NE(tel, nullptr);
  EXPECT_FALSE(tel->rss_sampled());
  tel->ObserveRss(1000);
  tel->ObserveRss(500);
  tel->ObserveRss(2000);
  EXPECT_TRUE(tel->rss_sampled());
  EXPECT_EQ(tel->rss_high_water_bytes(), 2000u);
  RunRegistry::Global().Finish(tel, 0, 0.0, false, false);
}

// ---------------------------------------------------------------- eventlog

TEST_F(ObsLiveTest, EventLogWritesValidatableLifecycle) {
  const std::string path = TempPath("events.jsonl");
  EventLog& log = EventLog::Global();
  ASSERT_TRUE(log.Open(path).ok());
  EXPECT_TRUE(log.active());

  log.RunStart(1, "disc-all", 100);
  log.PartitionStart(1, 7);
  log.PartitionDone(1, 7, 42, 13, 1, 2);
  log.PartitionStart(1, 9);
  log.PartitionDone(1, 9, 58, 5, 2, 2);
  log.RunDone(1, 18, 0.25, false, false);
  EXPECT_EQ(log.records_written(), 6u);
  log.Close();
  EXPECT_FALSE(log.active());

  std::string text;
  ASSERT_TRUE(ReadFileToString(path, &text).ok());
  std::string error;
  EXPECT_TRUE(ValidateEventLogJsonl(text, &error)) << error;
  std::remove(path.c_str());
}

TEST_F(ObsLiveTest, EventLogInactiveAppendsAreNoOps) {
  EventLog& log = EventLog::Global();
  EXPECT_FALSE(log.active());
  log.RunStart(1, "disc-all", 10);  // must not crash or write anywhere
  log.RunDone(1, 0, 0.0, false, false);
}

TEST_F(ObsLiveTest, EventLogEscapesMinerName) {
  const std::string path = TempPath("events_escape.jsonl");
  EventLog& log = EventLog::Global();
  ASSERT_TRUE(log.Open(path).ok());
  log.RunStart(1, "we\"ird\\name", 1);
  log.RunDone(1, 0, 0.0, false, false);
  log.Close();
  std::string text;
  ASSERT_TRUE(ReadFileToString(path, &text).ok());
  std::string error;
  EXPECT_TRUE(ValidateEventLogJsonl(text, &error)) << error;
  std::remove(path.c_str());
}

TEST_F(ObsLiveTest, EventLogValidatorRejectsMalformedStreams) {
  std::string error;
  const std::string start =
      R"({"seq":1,"ts_us":0,"event":"run_start","run_id":1,"miner":"m","db_sequences":1})"
      "\n";

  EXPECT_FALSE(ValidateEventLogJsonl("not json\n", &error));
  EXPECT_NE(error.find("line 1"), std::string::npos);

  // seq must be strictly increasing.
  EXPECT_FALSE(ValidateEventLogJsonl(
      start +
          R"({"seq":1,"ts_us":1,"event":"run_done","run_id":1,"patterns":0,"wall_seconds":0})"
          "\n",
      &error));
  EXPECT_NE(error.find("seq"), std::string::npos);

  // ts_us must be non-decreasing.
  EXPECT_FALSE(ValidateEventLogJsonl(
      R"({"seq":1,"ts_us":100,"event":"run_start","run_id":1,"miner":"m","db_sequences":1})"
      "\n"
      R"({"seq":2,"ts_us":50,"event":"run_done","run_id":1,"patterns":0,"wall_seconds":0})"
      "\n",
      &error));
  EXPECT_NE(error.find("ts_us"), std::string::npos);

  // Unknown event names are rejected.
  EXPECT_FALSE(ValidateEventLogJsonl(
      R"({"seq":1,"ts_us":0,"event":"bogus","run_id":1})"
      "\n",
      &error));
  EXPECT_NE(error.find("unknown event"), std::string::npos);

  // A run's first event must be run_start.
  EXPECT_FALSE(ValidateEventLogJsonl(
      R"({"seq":1,"ts_us":0,"event":"partition_start","run_id":3,"partition":1})"
      "\n",
      &error));
  EXPECT_NE(error.find("before run_start"), std::string::npos);

  // Nothing may follow run_done for the same run.
  EXPECT_FALSE(ValidateEventLogJsonl(
      start +
          R"({"seq":2,"ts_us":1,"event":"run_done","run_id":1,"patterns":0,"wall_seconds":0})"
          "\n" +
          R"({"seq":3,"ts_us":2,"event":"cancel","run_id":1})"
          "\n",
      &error));
  EXPECT_NE(error.find("after run_done"), std::string::npos);

  // partition_done completed counts must be monotone.
  EXPECT_FALSE(ValidateEventLogJsonl(
      start +
          R"({"seq":2,"ts_us":1,"event":"partition_done","run_id":1,"partition":1,"weight":1,"patterns":0,"completed":2,"total":3})"
          "\n" +
          R"({"seq":3,"ts_us":2,"event":"partition_done","run_id":1,"partition":2,"weight":1,"patterns":0,"completed":1,"total":3})"
          "\n",
      &error));
  EXPECT_NE(error.find("completed"), std::string::npos);
}

// ------------------------------------------------------------- exposition

TEST_F(ObsLiveTest, PrometheusNameSanitizesCharset) {
  EXPECT_EQ(PrometheusName("disc.partitions.first_level"),
            "disc_partitions_first_level");
  EXPECT_EQ(PrometheusName("pool.queue_wait_us"), "pool_queue_wait_us");
  EXPECT_EQ(PrometheusName("weird-name with spaces"),
            "weird_name_with_spaces");
  EXPECT_EQ(PrometheusName("9lives"), "_9lives");
  EXPECT_EQ(PrometheusName(""), "_");
}

TEST_F(ObsLiveTest, RenderPrometheusTextCoversAllKindsAndValidates) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  reg.counter("test.live.counter")->Add(5);
  reg.gauge("test.live.gauge")->Set(0.25);
  reg.histogram("test.live.hist")->Record(7);
  reg.histogram("test.live.hist")->Record(3);

  auto tel = RunRegistry::Global().Begin("disc-all", 100);
  ASSERT_NE(tel, nullptr);
  tel->BeginPartitions(4, 100);
  tel->PartitionStarted(1);
  tel->PartitionDone(1, 25, 10);

  const std::string text = RenderPrometheusText();
  std::string error;
  EXPECT_TRUE(ValidatePrometheusText(text, &error)) << error << "\n" << text;

  EXPECT_NE(text.find("# TYPE test_live_counter counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("test_live_counter 5\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE test_live_gauge gauge\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE test_live_hist summary\n"), std::string::npos);
  EXPECT_NE(text.find("test_live_hist_count 2\n"), std::string::npos);
  EXPECT_NE(text.find("test_live_hist_sum 10\n"), std::string::npos);
  EXPECT_NE(text.find("test_live_hist_min 3\n"), std::string::npos);
  EXPECT_NE(text.find("test_live_hist_max 7\n"), std::string::npos);
  EXPECT_NE(text.find("disc_run_partitions_completed{run_id=\"" +
                      std::to_string(tel->run_id()) +
                      "\",miner=\"disc-all\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("disc_process_rss_bytes "), std::string::npos);

  RunRegistry::Global().Finish(tel, 10, 0.1, false, false);
}

TEST_F(ObsLiveTest, WritePrometheusFileRoundTrips) {
  const std::string path = TempPath("metrics.prom");
  MetricsRegistry::Global().counter("test.file.counter")->Add(1);
  ASSERT_TRUE(WritePrometheusFile(path).ok());
  std::string text;
  ASSERT_TRUE(ReadFileToString(path, &text).ok());
  std::string error;
  EXPECT_TRUE(ValidatePrometheusText(text, &error)) << error;
  EXPECT_NE(text.find("test_file_counter 1\n"), std::string::npos);
  std::remove(path.c_str());
}

TEST_F(ObsLiveTest, PrometheusValidatorRejectsMalformedText) {
  std::string error;
  EXPECT_TRUE(ValidatePrometheusText("", &error));
  EXPECT_TRUE(ValidatePrometheusText("# arbitrary comment\n", &error));
  EXPECT_TRUE(ValidatePrometheusText("x{a=\"b\"} 1 123\n", &error));
  EXPECT_TRUE(ValidatePrometheusText("x NaN\ny +Inf\n", &error));

  EXPECT_FALSE(ValidatePrometheusText("2bad 1\n", &error));
  EXPECT_FALSE(ValidatePrometheusText("ok notanumber\n", &error));
  EXPECT_FALSE(ValidatePrometheusText("no_value\n", &error));
  EXPECT_FALSE(ValidatePrometheusText("x{a=b} 1\n", &error));
  EXPECT_FALSE(ValidatePrometheusText("x{a=\"b} 1\n", &error));
  EXPECT_FALSE(ValidatePrometheusText("# TYPE x bogus\n", &error));
  EXPECT_FALSE(
      ValidatePrometheusText("# TYPE x gauge\n# TYPE x gauge\n", &error));
  EXPECT_FALSE(ValidatePrometheusText("x 1\n# TYPE x gauge\n", &error));
  EXPECT_NE(error.find("after its samples"), std::string::npos);
  // A summary's TYPE must also precede its _count/_sum samples.
  EXPECT_FALSE(
      ValidatePrometheusText("x_count 1\n# TYPE x summary\n", &error));
}

// ---------------------------------------------------------------- sampler

TEST_F(ObsLiveTest, SamplerTicksAndDeliversFinalTick) {
  auto tel = RunRegistry::Global().Begin("disc-all", 10);
  ASSERT_NE(tel, nullptr);

  std::atomic<std::uint64_t> ticks{0};
  std::atomic<std::uint64_t> final_ticks{0};
  std::atomic<std::uint64_t> seen_runs{0};
  TelemetrySampler sampler;
  TelemetrySampler::Options options;
  options.period_ms = 10;
  sampler.Start(options, [&](const std::vector<ProgressSnapshot>& runs,
                             bool final) {
    ticks.fetch_add(1);
    if (final) final_ticks.fetch_add(1);
    seen_runs.fetch_add(runs.size());
  });
  EXPECT_TRUE(sampler.running());
  // Wait (bounded) until the run's RSS has been sampled at least once.
  for (int i = 0; i < 500 && !tel->rss_sampled(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  sampler.Stop();
  EXPECT_FALSE(sampler.running());
  EXPECT_TRUE(tel->rss_sampled());
  EXPECT_GT(tel->rss_high_water_bytes(), 0u);
  EXPECT_GE(ticks.load(), 1u);
  EXPECT_EQ(final_ticks.load(), 1u);
  EXPECT_GE(seen_runs.load(), 1u);
  EXPECT_EQ(sampler.ticks(), ticks.load());
  // Stop is idempotent.
  sampler.Stop();
  RunRegistry::Global().Finish(tel, 0, 0.0, false, false);
}

// ------------------------------------------------------------- end to end

// Miner::TryMine only registers runs when the obs layer is compiled in;
// the registry/log/exposition units above stay testable either way.
#if DISC_OBS_ENABLED

TEST_F(ObsLiveTest, MinerRunRegistersLifecycleAndEventLog) {
  const std::string path = TempPath("mine_events.jsonl");
  ASSERT_TRUE(EventLog::Global().Open(path).ok());

  const SequenceDatabase db = testutil::MakeQuestDb(
      {.ncust = 120, .nitems = 40, .slen = 5, .tlen = 2.0});
  MineOptions options;
  options.min_support_count = MineOptions::CountForFraction(db.size(), 0.1);
  std::size_t expected_runs = 0;
  for (const char* algo : {"disc-all", "dynamic-disc-all"}) {
    for (const std::uint32_t threads : {1u, 4u}) {
      options.threads = threads;
      auto miner = CreateMiner(algo);
      const MineResult result = miner->TryMine(db, options);
      ASSERT_TRUE(result.status.ok());

      const auto all = RunRegistry::Global().SnapshotAll();
      ASSERT_EQ(all.size(), ++expected_runs)
          << algo << " threads=" << threads;
      const ProgressSnapshot& run = all.back();
      EXPECT_TRUE(run.finished);
      EXPECT_EQ(run.miner, algo);
      EXPECT_GT(run.partitions_total, 0u);
      EXPECT_EQ(run.partitions_completed, run.partitions_total);
      EXPECT_EQ(run.partitions_in_flight, 0u);
      EXPECT_DOUBLE_EQ(run.PercentDone(), 100.0);
      EXPECT_EQ(run.patterns_found, result.patterns.size());
    }
  }
  EventLog::Global().Close();

  std::string text;
  ASSERT_TRUE(ReadFileToString(path, &text).ok());
  std::string error;
  EXPECT_TRUE(ValidateEventLogJsonl(text, &error)) << error;
  std::remove(path.c_str());
}

TEST_F(ObsLiveTest, CancelledRunEmitsCancelEventAndFlags) {
  const std::string path = TempPath("cancel_events.jsonl");
  ASSERT_TRUE(EventLog::Global().Open(path).ok());

  const SequenceDatabase db = testutil::MakeQuestDb(
      {.ncust = 100, .nitems = 30, .slen = 5, .tlen = 2.0});
  CancelToken cancel;
  cancel.RequestCancel();  // stop before the first partition
  MineOptions options;
  options.min_support_count = MineOptions::CountForFraction(db.size(), 0.1);
  options.cancel = &cancel;
  auto miner = CreateMiner("disc-all");
  const MineResult result = miner->TryMine(db, options);
  EXPECT_EQ(result.status.code(), StatusCode::kCancelled);

  const auto all = RunRegistry::Global().SnapshotAll();
  ASSERT_EQ(all.size(), 1u);
  EXPECT_TRUE(all[0].cancelled);
  EXPECT_NE(all[0].ToString().find("[cancelled]"), std::string::npos);
  EventLog::Global().Close();

  std::string text;
  ASSERT_TRUE(ReadFileToString(path, &text).ok());
  std::string error;
  EXPECT_TRUE(ValidateEventLogJsonl(text, &error)) << error;
  EXPECT_NE(text.find("\"event\":\"cancel\""), std::string::npos);
  std::remove(path.c_str());
}

#endif  // DISC_OBS_ENABLED

// ----------------------------------------------------- harvest stress test

// Satellite requirement: MetricsRegistry::HarvestSince must be safe (and
// lossless for settled deltas) while writer threads hammer the counters.
// Writers bump two counters a fixed number of times; a reader concurrently
// snapshots and harvests mid-run (results discarded — the point is that
// TSan sees the access pattern); the final post-join harvest must account
// for every increment exactly once.
TEST_F(ObsLiveTest, HarvestSinceUnderConcurrentWritersLosesNothing) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  constexpr int kWriters = 8;
  constexpr std::uint64_t kIncrementsPerWriter = 20000;

  Counter* hot = reg.counter("stress.hot");
  Counter* warm = reg.counter("stress.warm");
  const MetricsSnapshot before = reg.Snapshot();

  std::atomic<bool> stop_reader{false};
  std::thread reader([&] {
    while (!stop_reader.load(std::memory_order_relaxed)) {
      std::vector<std::pair<std::string, std::uint64_t>> counters;
      std::vector<std::pair<std::string, double>> gauges;
      reg.HarvestSince(before, &counters, &gauges);
      // Mid-run deltas must never exceed the true totals.
      for (const auto& [name, delta] : counters) {
        if (name == "stress.hot") {
          EXPECT_LE(delta, kWriters * kIncrementsPerWriter);
        }
      }
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (std::uint64_t i = 0; i < kIncrementsPerWriter; ++i) {
        hot->Increment();
        if ((i & 3u) == 0) warm->Add(2);
      }
      (void)w;
    });
  }
  for (std::thread& t : writers) t.join();
  stop_reader.store(true, std::memory_order_relaxed);
  reader.join();

  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  reg.HarvestSince(before, &counters, &gauges);
  std::uint64_t hot_delta = 0;
  std::uint64_t warm_delta = 0;
  for (const auto& [name, delta] : counters) {
    if (name == "stress.hot") hot_delta = delta;
    if (name == "stress.warm") warm_delta = delta;
  }
  EXPECT_EQ(hot_delta, kWriters * kIncrementsPerWriter);
  EXPECT_EQ(warm_delta, kWriters * (kIncrementsPerWriter / 4) * 2);
}

// RunRegistry + sampler + event log under concurrent runs: N threads each
// drive a full run lifecycle while the sampler reads — the TSan companion
// of the lifecycle tests above.
TEST_F(ObsLiveTest, ConcurrentRunsWithSamplerAreRaceFree) {
  const std::string path = TempPath("stress_events.jsonl");
  ASSERT_TRUE(EventLog::Global().Open(path).ok());
  TelemetrySampler sampler;
  TelemetrySampler::Options options;
  options.period_ms = 10;
  sampler.Start(options);

  constexpr int kRuns = 6;
  std::vector<std::thread> threads;
  threads.reserve(kRuns);
  for (int r = 0; r < kRuns; ++r) {
    threads.emplace_back([r] {
      auto tel = RunRegistry::Global().Begin("stress", 10);
      ASSERT_NE(tel, nullptr);
      tel->BeginPartitions(8, 8);
      for (std::uint64_t p = 0; p < 8; ++p) {
        tel->PartitionStarted(p);
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        tel->PartitionDone(p, 1, 2);
      }
      RunRegistry::Global().Finish(tel, 16, 0.01, false, false);
      (void)r;
    });
  }
  for (std::thread& t : threads) t.join();
  sampler.Stop();
  EventLog::Global().Close();

  std::string text;
  ASSERT_TRUE(ReadFileToString(path, &text).ok());
  std::string error;
  EXPECT_TRUE(ValidateEventLogJsonl(text, &error)) << error;
  EXPECT_EQ(RunRegistry::Global().SnapshotAll().size(),
            static_cast<std::size_t>(kRuns));
}

}  // namespace
}  // namespace obs
}  // namespace disc
