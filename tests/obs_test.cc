// Unit tests for the observability layer: metrics registry semantics,
// per-run harvesting, span nesting, and trace/JSON well-formedness.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "disc/algo/miner.h"
#include "disc/common/thread_pool.h"
#include "disc/obs/json.h"
#include "disc/obs/metrics.h"
#include "disc/obs/mine_stats.h"
#include "disc/obs/trace.h"
#include "test_util.h"

namespace disc {
namespace obs {
namespace {

class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MetricsRegistry::Global().ResetAll();
    Tracer::Global().Clear();
    Tracer::Global().set_enabled(false);
  }
};

TEST_F(ObsTest, CounterHandlesAreStableAndSharedByName) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  Counter* a = reg.counter("test.counter");
  Counter* b = reg.counter("test.counter");
  EXPECT_EQ(a, b);
  a->Increment();
  a->Add(4);
  EXPECT_EQ(b->value(), 5u);
  // ResetAll zeroes the value but keeps the handle valid.
  reg.ResetAll();
  EXPECT_EQ(a->value(), 0u);
  a->Increment();
  EXPECT_EQ(reg.counter("test.counter")->value(), 1u);
}

TEST_F(ObsTest, HistogramBucketsByPowerOfTwo) {
  Histogram* h = MetricsRegistry::Global().histogram("test.hist");
  h->Record(0);
  h->Record(1);
  h->Record(2);
  h->Record(3);
  h->Record(7);
  EXPECT_EQ(h->count(), 5u);
  EXPECT_EQ(h->sum(), 13u);
  EXPECT_EQ(h->min(), 0u);
  EXPECT_EQ(h->max(), 7u);
  EXPECT_DOUBLE_EQ(h->mean(), 13.0 / 5.0);
  EXPECT_EQ(h->buckets()[0], 1u);  // v == 0
  EXPECT_EQ(h->buckets()[1], 1u);  // v == 1
  EXPECT_EQ(h->buckets()[2], 2u);  // v in 2..3
  EXPECT_EQ(h->buckets()[3], 1u);  // v in 4..7
}

TEST_F(ObsTest, HistogramTallyPublishesAsRecordWould) {
  Histogram* recorded = MetricsRegistry::Global().histogram("test.recorded");
  Histogram* added = MetricsRegistry::Global().histogram("test.added");
  added->Add(HistogramTally{});
  EXPECT_EQ(added->count(), 0u) << "an empty tally publishes nothing";
  EXPECT_EQ(added->min(), 0u);
  HistogramTally tally;
  for (const std::uint64_t v : {5u, 0u, 1u, 9u, 3u, 1000u, 9u}) {
    recorded->Record(v);
    tally.Record(v);
  }
  added->Record(4);
  recorded->Record(4);
  added->Add(tally);
  EXPECT_EQ(added->count(), recorded->count());
  EXPECT_EQ(added->sum(), recorded->sum());
  EXPECT_EQ(added->min(), 0u);
  EXPECT_EQ(added->max(), 1000u);
  for (std::size_t b = 0; b < Histogram::kBuckets; ++b) {
    EXPECT_EQ(added->buckets()[b], recorded->buckets()[b]) << "bucket " << b;
  }
}

TEST_F(ObsTest, HarvestReportsOnlyDeltasAndFreshGauges) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  reg.counter("test.before")->Add(10);
  reg.gauge("test.stale")->Set(1.0);

  MetricsSnapshot before = reg.Snapshot();
  reg.counter("test.before")->Add(7);
  reg.counter("test.during")->Increment();
  reg.gauge("test.fresh")->Set(0.25);

  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  reg.HarvestSince(before, &counters, &gauges);

  ASSERT_EQ(counters.size(), 2u);
  EXPECT_EQ(counters[0].first, "test.before");
  EXPECT_EQ(counters[0].second, 7u);  // delta, not absolute value
  EXPECT_EQ(counters[1].first, "test.during");
  EXPECT_EQ(counters[1].second, 1u);
  ASSERT_EQ(gauges.size(), 1u);
  EXPECT_EQ(gauges[0].first, "test.fresh");
  EXPECT_DOUBLE_EQ(gauges[0].second, 0.25);
}

TEST_F(ObsTest, HistogramsHarvestAsCountAndSum) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  MetricsSnapshot before = reg.Snapshot();
  reg.histogram("test.sizes")->Record(3);
  reg.histogram("test.sizes")->Record(5);

  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  reg.HarvestSince(before, &counters, &gauges);
  ASSERT_EQ(counters.size(), 2u);
  EXPECT_EQ(counters[0].first, "test.sizes.count");
  EXPECT_EQ(counters[0].second, 2u);
  EXPECT_EQ(counters[1].first, "test.sizes.sum");
  EXPECT_EQ(counters[1].second, 8u);
}

TEST_F(ObsTest, StatsHarvestFillsMineStats) {
  StatsHarvest harvest;
  MetricsRegistry::Global().counter("test.work")->Add(42);
  MetricsRegistry::Global().gauge("test.rate")->Set(0.5);
  MineStats stats;
  harvest.Finish(&stats);
  EXPECT_EQ(stats.Counter("test.work"), 42u);
  EXPECT_EQ(stats.Counter("test.never_touched"), 0u);
  EXPECT_TRUE(stats.HasGauge("test.rate"));
  EXPECT_DOUBLE_EQ(stats.Gauge("test.rate"), 0.5);
  EXPECT_FALSE(stats.HasGauge("test.unset"));
  EXPECT_TRUE(std::isnan(stats.Gauge("test.unset")));
  EXPECT_GT(stats.peak_rss_bytes, 0u);
}

TEST_F(ObsTest, SpansNestAndRecordDepth) {
  Tracer& tracer = Tracer::Global();
  tracer.set_enabled(true);
  {
    ScopedSpan outer("outer");
    EXPECT_EQ(tracer.open_spans(), 1u);
    {
      ScopedSpan inner("inner");
      EXPECT_EQ(tracer.open_spans(), 2u);
    }
  }
  EXPECT_EQ(tracer.open_spans(), 0u);
  ASSERT_EQ(tracer.events().size(), 2u);
  // Spans close innermost-first; the child lies within the parent.
  const Tracer::Event& inner = tracer.events()[0];
  const Tracer::Event& outer = tracer.events()[1];
  EXPECT_EQ(inner.name, "inner");
  EXPECT_EQ(inner.depth, 1u);
  EXPECT_EQ(outer.name, "outer");
  EXPECT_EQ(outer.depth, 0u);
  EXPECT_GE(inner.start_us, outer.start_us);
  EXPECT_LE(inner.start_us + inner.dur_us, outer.start_us + outer.dur_us);
}

TEST_F(ObsTest, SpanCopiesItsNameWhenItOpens) {
  Tracer::Global().set_enabled(true);
  char name[] = "mine/pseudo";
  {
    ScopedSpan span(name);
    name[0] = 'X';
  }
  ASSERT_EQ(Tracer::Global().events().size(), 1u);
  EXPECT_EQ(Tracer::Global().events()[0].name, "mine/pseudo");
}

TEST_F(ObsTest, TracedMineSpanIsNamedAfterTheMiner) {
  const SequenceDatabase db = testutil::Table1Database();
  MineOptions options;
  options.min_support_count = 2;
  CreateMiner("pseudo")->Mine(db, options);
  EXPECT_TRUE(Tracer::Global().events().empty());
  Tracer::Global().set_enabled(true);
  CreateMiner("pseudo")->Mine(db, options);
  ASSERT_FALSE(Tracer::Global().events().empty());
  EXPECT_EQ(Tracer::Global().events().back().name, "mine/pseudo");
}

TEST_F(ObsTest, DisabledTracerRecordsNothing) {
  {
    ScopedSpan span("ignored");
  }
  EXPECT_TRUE(Tracer::Global().events().empty());
}

TEST_F(ObsTest, ChromeTraceJsonIsWellFormed) {
  Tracer& tracer = Tracer::Global();
  tracer.set_enabled(true);
  {
    ScopedSpan outer("mine/disc-all");
    ScopedSpan inner("disc/partitions");
  }
  tracer.set_enabled(false);

  JsonValue root;
  std::string error;
  ASSERT_TRUE(JsonParse(tracer.ToChromeTraceJson(), &root, &error)) << error;
  ASSERT_TRUE(root.is_object());
  const JsonValue* events = root.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  std::size_t complete_events = 0;
  for (const JsonValue& e : events->array_items()) {
    ASSERT_TRUE(e.is_object());
    const JsonValue* ph = e.Find("ph");
    ASSERT_NE(ph, nullptr);
    if (ph->string_value() != "X") continue;  // metadata events
    ++complete_events;
    EXPECT_TRUE(e.Find("name")->is_string());
    EXPECT_TRUE(e.Find("ts")->is_number());
    EXPECT_TRUE(e.Find("dur")->is_number());
  }
  EXPECT_EQ(complete_events, 2u);
}

// The lane names of the Chrome export, in lane-id order.
std::vector<std::string> LaneNames() {
  JsonValue root;
  std::string error;
  EXPECT_TRUE(JsonParse(Tracer::Global().ToChromeTraceJson(), &root, &error))
      << error;
  std::vector<std::string> lanes;
  for (const JsonValue& e : root.Find("traceEvents")->array_items()) {
    if (e.Find("name")->string_value() == "thread_name") {
      lanes.push_back(e.Find("args")->Find("name")->string_value());
    }
  }
  return lanes;
}

TEST_F(ObsTest, UntracedPoolsLeaveNoLanes) {
  // Lanes are never dropped, so count the ones earlier tests in this
  // process left.
  const std::size_t before = LaneNames().size();
  for (int i = 0; i < 50; ++i) {
    ThreadPool pool(4);
    for (int t = 0; t < 4; ++t) pool.Submit([](std::size_t) {});
    pool.Wait();
  }
  Tracer::Global().set_enabled(true);
  const std::vector<std::string> lanes = LaneNames();
  ASSERT_GE(lanes.size(), before);
  // Enabling registers the calling thread as "main", unless an earlier test
  // already did; the 200 untraced workers add nothing.
  EXPECT_LE(lanes.size(), before + 1);
  EXPECT_NE(std::find(lanes.begin(), lanes.end(), "main"), lanes.end());
  if (lanes.size() > before) {
    EXPECT_EQ(lanes.back(), "main");
  }
}

#if DISC_OBS_ENABLED
TEST_F(ObsTest, PoolTaskSpansLandOnWorkerLanes) {
  Tracer::Global().set_enabled(true);
  {
    ThreadPool pool(2);
    pool.Submit([](std::size_t) {});
    pool.Wait();
  }
  const std::vector<std::string> lanes = LaneNames();
  std::size_t task_spans = 0;
  for (const Tracer::Event& e : Tracer::Global().events()) {
    if (e.name != "pool/task") continue;
    ++task_spans;
    ASSERT_LT(e.tid, lanes.size());
    EXPECT_EQ(lanes[e.tid].rfind("pool-worker-", 0), 0u) << lanes[e.tid];
  }
  EXPECT_EQ(task_spans, 1u);
}
#endif  // DISC_OBS_ENABLED

TEST_F(ObsTest, JsonWriterEscapesAndParserRoundTrips) {
  JsonWriter w;
  w.BeginObject();
  w.Key("text").String("line\none \"two\" \\three");
  w.Key("neg").Int(-7);
  w.Key("flag").Bool(true);
  w.Key("nothing").Null();
  w.Key("list").BeginArray();
  w.Double(1.5);
  w.Uint(12345678901234567ull);
  w.EndArray();
  w.EndObject();

  JsonValue root;
  std::string error;
  ASSERT_TRUE(JsonParse(w.str(), &root, &error)) << error;
  EXPECT_EQ(root.Find("text")->string_value(), "line\none \"two\" \\three");
  EXPECT_DOUBLE_EQ(root.Find("neg")->number_value(), -7.0);
  EXPECT_TRUE(root.Find("flag")->bool_value());
  EXPECT_TRUE(root.Find("nothing")->is_null());
  ASSERT_EQ(root.Find("list")->array_items().size(), 2u);
  EXPECT_DOUBLE_EQ(root.Find("list")->array_items()[0].number_value(), 1.5);
}

TEST_F(ObsTest, JsonParserRejectsMalformedInput) {
  JsonValue out;
  std::string error;
  EXPECT_FALSE(JsonParse("{\"a\": }", &out, &error));
  EXPECT_FALSE(JsonParse("[1, 2", &out, &error));
  EXPECT_FALSE(JsonParse("", &out, &error));
  EXPECT_FALSE(JsonParse("{} trailing", &out, &error));
}

}  // namespace
}  // namespace obs
}  // namespace disc
