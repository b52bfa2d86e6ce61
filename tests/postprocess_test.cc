#include "disc/algo/postprocess.h"

#include <gtest/gtest.h>

#include "disc/algo/miner.h"
#include "disc/seq/containment.h"
#include "test_util.h"

namespace disc {
namespace {

using testutil::Seq;

PatternSet MakeSet(
    const std::vector<std::pair<const char*, std::uint32_t>>& items) {
  PatternSet out;
  for (const auto& [text, sup] : items) out.Add(Seq(text), sup);
  return out;
}

TEST(Postprocess, MaximalHandExample) {
  const PatternSet all = MakeSet({
      {"(a)", 5},
      {"(b)", 4},
      {"(a)(b)", 3},
      {"(a,c)", 2},
      {"(c)", 2},
  });
  const PatternSet maximal = MaximalPatterns(all);
  EXPECT_EQ(maximal.size(), 2u);
  EXPECT_TRUE(maximal.Contains(Seq("(a)(b)")));
  EXPECT_TRUE(maximal.Contains(Seq("(a,c)")));
  EXPECT_FALSE(maximal.Contains(Seq("(a)")));
  EXPECT_FALSE(maximal.Contains(Seq("(c)")));
}

TEST(Postprocess, ClosedHandExample) {
  // (a) has the same support as its superset (a)(b): not closed.
  // (b) has higher support than any superset: closed.
  const PatternSet all = MakeSet({
      {"(a)", 3},
      {"(b)", 4},
      {"(a)(b)", 3},
  });
  const PatternSet closed = ClosedPatterns(all);
  EXPECT_EQ(closed.size(), 2u);
  EXPECT_FALSE(closed.Contains(Seq("(a)")));
  EXPECT_TRUE(closed.Contains(Seq("(b)")));
  EXPECT_TRUE(closed.Contains(Seq("(a)(b)")));
}

TEST(Postprocess, PropertiesOnMinedData) {
  const SequenceDatabase db = testutil::RandomDatabase(23);
  MineOptions options;
  options.min_support_count = 3;
  const PatternSet all = CreateMiner("disc-all")->Mine(db, options);
  const PatternSet maximal = MaximalPatterns(all);
  const PatternSet closed = ClosedPatterns(all);
  // maximal ⊆ closed ⊆ all.
  EXPECT_LE(maximal.size(), closed.size());
  EXPECT_LE(closed.size(), all.size());
  for (const auto& [p, sup] : maximal) {
    EXPECT_EQ(closed.SupportOf(p), sup) << p.ToString();
  }
  // Every maximal pattern is in no other frequent pattern.
  for (const auto& [p, sup] : maximal) {
    (void)sup;
    for (const auto& [q, qsup] : all) {
      (void)qsup;
      if (q.Length() > p.Length()) {
        EXPECT_FALSE(Contains(q, p) && !(q == p))
            << p.ToString() << " inside " << q.ToString();
      }
    }
  }
  // Every non-closed pattern has a same-support superpattern.
  for (const auto& [p, sup] : all) {
    if (closed.Contains(p)) continue;
    bool witnessed = false;
    for (const auto& [q, qsup] : all) {
      if (qsup == sup && q.Length() > p.Length() && Contains(q, p)) {
        witnessed = true;
        break;
      }
    }
    EXPECT_TRUE(witnessed) << p.ToString();
  }
  // Reconstruction: every frequent pattern is contained in some maximal.
  for (const auto& [p, sup] : all) {
    (void)sup;
    bool covered = false;
    for (const auto& [m, msup] : maximal) {
      (void)msup;
      if (Contains(m, p)) {
        covered = true;
        break;
      }
    }
    EXPECT_TRUE(covered) << p.ToString();
  }
}

TEST(Postprocess, Summary) {
  const PatternSet all = MakeSet({
      {"(a)", 5},
      {"(a)(b)", 5},
      {"(c)", 2},
  });
  const PatternSummary s = Summarize(all);
  EXPECT_EQ(s.total, 3u);
  EXPECT_EQ(s.maximal, 2u);  // (a)(b), (c)
  EXPECT_EQ(s.closed, 2u);   // (a) absorbed by (a)(b) at equal support
  EXPECT_EQ(s.max_length, 2u);
  EXPECT_EQ(s.max_support, 5u);

  // Without the quadratic counts, the rest is the same.
  const PatternSummary quick = Summarize(all, /*count_maximal_closed=*/false);
  EXPECT_EQ(quick.total, 3u);
  EXPECT_EQ(quick.maximal, 0u);
  EXPECT_EQ(quick.closed, 0u);
  EXPECT_EQ(quick.max_length, 2u);
  EXPECT_EQ(quick.max_support, 5u);
}

TEST(Postprocess, EmptyInput) {
  EXPECT_TRUE(MaximalPatterns(PatternSet()).empty());
  EXPECT_TRUE(ClosedPatterns(PatternSet()).empty());
  EXPECT_EQ(Summarize(PatternSet()).total, 0u);
}

}  // namespace
}  // namespace disc
