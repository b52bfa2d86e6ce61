#include <gtest/gtest.h>

#include "disc/benchlib/report.h"
#include "disc/benchlib/workload.h"
#include "disc/seq/parse.h"

namespace disc {
namespace {

TEST(Benchlib, WorkloadPresetsMatchPaperTable11) {
  const QuestParams fig8 = Fig8Params(50000);
  EXPECT_EQ(fig8.ncust, 50000u);
  EXPECT_DOUBLE_EQ(fig8.slen, 10.0);
  EXPECT_DOUBLE_EQ(fig8.tlen, 2.5);
  EXPECT_EQ(fig8.nitems, 1000u);
  EXPECT_DOUBLE_EQ(fig8.seq_patlen, 4.0);

  const QuestParams fig9 = Fig9Params(10000);
  EXPECT_DOUBLE_EQ(fig9.slen, 8.0);
  EXPECT_DOUBLE_EQ(fig9.tlen, 8.0);
  EXPECT_DOUBLE_EQ(fig9.seq_patlen, 8.0);

  const QuestParams theta = ThetaParams(50000, 25.0);
  EXPECT_DOUBLE_EQ(theta.slen, 25.0);
  EXPECT_DOUBLE_EQ(theta.tlen, 2.5);
}

TEST(Benchlib, TimeMineReportsResultShape) {
  // A sparse Figure 8 draw: about 160 patterns, enough to check the shape.
  const SequenceDatabase db = GenerateQuestDatabase(Fig8Params(120));
  MineOptions options;
  options.min_support_count = MineOptions::CountForFraction(db.size(), 0.05);
  const auto miner = CreateMiner("disc-all");
  const MineTiming t = TimeMine(miner.get(), db, options);
  EXPECT_GE(t.seconds, 0.0);
  EXPECT_GT(t.num_patterns, 0u);
  EXPECT_GE(t.max_length, 1u);
  // Consistent with a direct run.
  const PatternSet direct = miner->Mine(db, options);
  EXPECT_EQ(t.num_patterns, direct.size());
  EXPECT_EQ(t.max_length, direct.MaxLength());
}

TEST(Benchlib, TimeMinersRepeatedRunsEveryMinerEveryRound) {
  const SequenceDatabase db = GenerateQuestDatabase(Fig8Params(120));
  MineOptions options;
  options.min_support_count = MineOptions::CountForFraction(db.size(), 0.05);
  const std::vector<std::vector<MineTiming>> runs =
      TimeMinersRepeated({"disc-all", "pseudo"}, db, options, 3);
  ASSERT_EQ(runs.size(), 2u);
  for (std::size_t m = 0; m < runs.size(); ++m) {
    ASSERT_EQ(runs[m].size(), 3u);
    for (const MineTiming& t : runs[m]) {
      EXPECT_EQ(t.stats.miner, m == 0 ? "disc-all" : "pseudo");
      EXPECT_EQ(t.num_patterns, runs[0][0].num_patterns);
      EXPECT_GE(t.seconds, 0.0);
    }
  }
}

TEST(Benchlib, MediansOfRepeatedRuns) {
  auto timings = [](std::vector<double> seconds) {
    std::vector<MineTiming> out(seconds.size());
    for (std::size_t i = 0; i < seconds.size(); ++i) {
      out[i].seconds = seconds[i];
    }
    return out;
  };
  EXPECT_DOUBLE_EQ(MedianSeconds(timings({3, 1, 2})), 2.0);
  EXPECT_DOUBLE_EQ(MedianSeconds(timings({4, 1, 2, 3})), 2.5);
  EXPECT_DOUBLE_EQ(MedianSeconds(timings({0.5})), 0.5);
  // Per-run ratios 2, 3 and 1: their median, not the ratio of the medians
  // (4 / 3).
  EXPECT_DOUBLE_EQ(MedianRatio(timings({2, 9, 4}), timings({1, 3, 4})), 2.0);
}

TEST(Benchlib, DescribeDatabaseMentionsShape) {
  SequenceDatabase db;
  db.Add(ParseSequence("(a,b)(c)"));
  const std::string desc = DescribeDatabase(db);
  EXPECT_NE(desc.find("|DB|=1"), std::string::npos);
  EXPECT_NE(desc.find("3 item occurrences"), std::string::npos);
}

TEST(Benchlib, DatabaseAggregatesStayInSyncWithAdds) {
  SequenceDatabase db;
  EXPECT_EQ(db.TotalItems(), 0u);
  EXPECT_EQ(db.TotalTransactions(), 0u);
  db.Add(ParseSequence("(a,b)(c)"));
  db.Add(ParseSequence("(d)"));
  EXPECT_EQ(db.TotalItems(), 4u);
  EXPECT_EQ(db.TotalTransactions(), 3u);
  EXPECT_DOUBLE_EQ(db.AvgTransactionsPerCustomer(), 1.5);
  EXPECT_DOUBLE_EQ(db.AvgItemsPerTransaction(), 4.0 / 3.0);
}

TEST(Benchlib, BenchReportJsonRoundTripsThroughTheValidator) {
  SequenceDatabase db;
  db.Add(ParseSequence("(a)(b)(a,b)"));
  db.Add(ParseSequence("(a)(b)"));
  WorkloadInfo workload = MakeWorkloadInfo(db, "inline");
  workload.min_support_count = 2;
  BenchReport report("unit", workload);

  obs::MineStats stats;
  stats.miner = "disc-all";
  stats.wall_seconds = 0.25;
  stats.num_patterns = 7;
  stats.max_length = 3;
  stats.db_sequences = db.size();
  stats.peak_rss_bytes = 1 << 20;
  stats.counters.push_back({"order.seq_compares", 12});
  stats.gauges.push_back({"disc.physical_nrr.level0", 0.5});
  report.AddRun(stats);

  std::string error;
  EXPECT_TRUE(ValidateBenchReportJson(report.ToJson(), &error)) << error;
}

TEST(Benchlib, ValidatorRejectsBrokenReports) {
  std::string error;
  EXPECT_FALSE(ValidateBenchReportJson("not json", &error));
  EXPECT_FALSE(ValidateBenchReportJson("{}", &error));
  // Structurally close but missing the per-run wall_seconds.
  const std::string no_wall =
      "{\"bench\":\"b\",\"library_version\":\"v\","
      "\"workload\":{\"db_sequences\":1,\"total_items\":2,"
      "\"avg_txns_per_customer\":1.0},"
      "\"runs\":[{\"miner\":\"m\",\"num_patterns\":0,"
      "\"peak_rss_bytes\":0,\"counters\":{}}]}";
  EXPECT_FALSE(ValidateBenchReportJson(no_wall, &error));
  EXPECT_NE(error.find("wall_seconds"), std::string::npos);
}

}  // namespace
}  // namespace disc
