// seqmined protocol tests (server/protocol.h, server/server.h): command
// parsing (including strict-number and unknown-flag usage errors), and
// full sessions over string streams — response framing, the same-minsup
// cache hit with byte-identical pattern blocks, the --cancel-after
// partial-result byte-prefix, and error recovery (a malformed command
// must not kill the session).
#include "disc/server/protocol.h"

#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "disc/engine/engine.h"
#include "disc/seq/io.h"
#include "disc/server/server.h"
#include "test_util.h"

namespace disc {
namespace server {
namespace {

StatusOr<Command> Parse(const std::string& line) { return ParseCommand(line); }

TEST(ParseCommandTest, EmptyAndBlankLinesAreNops) {
  EXPECT_EQ(Parse("")->kind, Command::Kind::kNop);
  EXPECT_EQ(Parse("   \t ")->kind, Command::Kind::kNop);
}

TEST(ParseCommandTest, BareVerbs) {
  EXPECT_EQ(Parse("stop")->kind, Command::Kind::kStop);
  EXPECT_EQ(Parse("stat")->kind, Command::Kind::kStat);
  EXPECT_EQ(Parse("help")->kind, Command::Kind::kHelp);
  EXPECT_EQ(Parse("quit")->kind, Command::Kind::kQuit);
  EXPECT_FALSE(Parse("stop now").ok()) << "bare verbs take no arguments";
}

TEST(ParseCommandTest, UnknownVerbIsUsageError) {
  auto result = Parse("bogus");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(ParseCommandTest, Load) {
  auto cmd = Parse("load /tmp/db.spmf");
  ASSERT_TRUE(cmd.ok());
  EXPECT_EQ(cmd->kind, Command::Kind::kLoad);
  EXPECT_EQ(cmd->path, "/tmp/db.spmf");
  EXPECT_FALSE(cmd->permissive);

  cmd = Parse("load db.spmf --permissive");
  ASSERT_TRUE(cmd.ok());
  EXPECT_TRUE(cmd->permissive);

  EXPECT_FALSE(Parse("load").ok()) << "load requires a path";
  EXPECT_FALSE(Parse("load a.spmf b.spmf").ok());
  EXPECT_FALSE(Parse("load a.spmf --frobnicate").ok());
}

TEST(ParseCommandTest, MineDefaults) {
  auto cmd = Parse("mine");
  ASSERT_TRUE(cmd.ok());
  EXPECT_EQ(cmd->kind, Command::Kind::kMine);
  EXPECT_DOUBLE_EQ(cmd->mine.minsup, 0.01);
  EXPECT_EQ(cmd->mine.delta, -1);
  EXPECT_EQ(cmd->mine.algo, "disc-all");
  EXPECT_EQ(cmd->mine.threads, 0u) << "every core by default";
  EXPECT_EQ(cmd->mine.deadline_ms, 0u);
  EXPECT_EQ(cmd->mine.cancel_after, kNoCancelAfter);
}

TEST(ParseCommandTest, MineFlagsBothSpellings) {
  auto cmd = Parse(
      "mine --minsup 0.05 --algo dynamic-disc-all --threads 4 "
      "--deadline-ms 500 --max-length 3 --cancel-after 7");
  ASSERT_TRUE(cmd.ok());
  EXPECT_DOUBLE_EQ(cmd->mine.minsup, 0.05);
  EXPECT_EQ(cmd->mine.algo, "dynamic-disc-all");
  EXPECT_EQ(cmd->mine.threads, 4u);
  EXPECT_EQ(cmd->mine.deadline_ms, 500u);
  EXPECT_EQ(cmd->mine.max_length, 3u);
  EXPECT_EQ(cmd->mine.cancel_after, 7u);

  cmd = Parse("mine --minsup=0.05 --threads=4");
  ASSERT_TRUE(cmd.ok());
  EXPECT_DOUBLE_EQ(cmd->mine.minsup, 0.05);
  EXPECT_EQ(cmd->mine.threads, 4u);
}

TEST(ParseCommandTest, MineDelta) {
  auto cmd = Parse("mine --delta 25");
  ASSERT_TRUE(cmd.ok());
  EXPECT_EQ(cmd->mine.delta, 25);
  EXPECT_LT(cmd->mine.minsup, 0.0) << "delta switches minsup off";
  EXPECT_FALSE(Parse("mine --delta 0").ok());
  EXPECT_FALSE(Parse("mine --minsup 0.1 --delta 5").ok())
      << "minsup and delta are mutually exclusive";
}

TEST(ParseCommandTest, StrictNumbersNeverTruncate) {
  EXPECT_FALSE(Parse("mine --minsup 0.1x").ok());
  EXPECT_FALSE(Parse("mine --minsup 2").ok()) << "fraction must be <= 1";
  EXPECT_FALSE(Parse("mine --minsup 0").ok());
  EXPECT_FALSE(Parse("mine --threads 4k").ok());
  EXPECT_FALSE(Parse("mine --threads -2").ok());
  EXPECT_FALSE(Parse("mine --deadline-ms").ok()) << "missing value";
  EXPECT_FALSE(Parse("mine --cancel-after=").ok());
  EXPECT_FALSE(Parse("mine --frobnicate 3").ok());
}

// --- Full sessions over string streams --------------------------------------

class ServerSessionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // One file per test: ctest runs the cases of this fixture in parallel,
    // and a shared path lets one case's TearDown delete another's input.
    db_path_ = ::testing::TempDir() + "server_protocol_test_" +
               ::testing::UnitTest::GetInstance()->current_test_info()->name() +
               ".spmf";
    const SequenceDatabase db = testutil::MakeQuestDb(
        {.ncust = 120, .nitems = 50, .slen = 5, .tlen = 2.0});
    ASSERT_TRUE(SaveSpmf(db, db_path_));
  }
  void TearDown() override { std::remove(db_path_.c_str()); }

  /// Runs one scripted session; returns all output lines.
  std::vector<std::string> Serve(const std::string& script) {
    engine::Engine engine;
    std::istringstream in(script);
    std::ostringstream out;
    Server server(&engine, in, out);
    EXPECT_EQ(server.Run(), 0);
    std::vector<std::string> lines;
    std::istringstream reader(out.str());
    std::string line;
    while (std::getline(reader, line)) lines.push_back(line);
    return lines;
  }

  /// The pattern block of the i-th `ok mine` response (lines between the
  /// header and its `end`).
  static std::vector<std::string> MineBlock(
      const std::vector<std::string>& lines, int index,
      std::string* header = nullptr) {
    int seen = -1;
    std::vector<std::string> block;
    for (std::size_t i = 0; i < lines.size(); ++i) {
      if (lines[i].rfind("ok mine ", 0) == 0) ++seen;
      if (seen != index || lines[i].rfind("ok mine ", 0) != 0) continue;
      if (header != nullptr) *header = lines[i];
      for (std::size_t j = i + 1; j < lines.size() && lines[j] != "end"; ++j) {
        block.push_back(lines[j]);
      }
      return block;
    }
    ADD_FAILURE() << "mine response #" << index << " not found";
    return block;
  }

  static bool Contains(const std::vector<std::string>& lines,
                       const std::string& prefix) {
    for (const std::string& line : lines) {
      if (line.rfind(prefix, 0) == 0) return true;
    }
    return false;
  }

  std::string db_path_;
};

TEST_F(ServerSessionTest, GreetingLoadAndQuitFraming) {
  const auto lines = Serve("load " + db_path_ + "\nquit\n");
  ASSERT_GE(lines.size(), 3u);
  EXPECT_EQ(lines[0], "info seqmined ready");
  EXPECT_TRUE(lines[1].rfind("ok load sequences=120 items=", 0) == 0)
      << lines[1];
  EXPECT_EQ(lines.back(), "ok quit");
}

TEST_F(ServerSessionTest, EofActsAsQuit) {
  const auto lines = Serve("load " + db_path_ + "\n");
  EXPECT_EQ(lines.back(), "ok quit");
}

TEST_F(ServerSessionTest, SameMinsupTwiceIsByteIdenticalAndHitsCache) {
  const auto lines = Serve("load " + db_path_ +
                           "\nmine --minsup 0.1\nmine --minsup 0.1\nquit\n");
  std::string header1, header2;
  const auto block1 = MineBlock(lines, 0, &header1);
  const auto block2 = MineBlock(lines, 1, &header2);
  EXPECT_FALSE(block1.empty());
  EXPECT_EQ(block1, block2)
      << "same query against the same database must frame identically";
  EXPECT_NE(header1.find("status=complete"), std::string::npos) << header1;
  EXPECT_NE(header1.find("cache=miss"), std::string::npos) << header1;
  EXPECT_NE(header2.find("cache=hit"), std::string::npos) << header2;
}

TEST_F(ServerSessionTest, CancelAfterReportsPartialBytePrefix) {
  // --cancel-after counts checkpoints, which cut at one place only on a
  // serial run.
  const auto lines = Serve("load " + db_path_ +
                           "\nmine --minsup 0.05\n"
                           "mine --minsup 0.05 --threads 1 --cancel-after 2\n"
                           "quit\n");
  std::string full_header, partial_header;
  const auto full = MineBlock(lines, 0, &full_header);
  const auto partial = MineBlock(lines, 1, &partial_header);
  EXPECT_NE(full_header.find("status=complete"), std::string::npos);
  EXPECT_NE(partial_header.find("status=partial"), std::string::npos)
      << partial_header;
  EXPECT_NE(partial_header.find("reason=cancelled"), std::string::npos)
      << partial_header;
  ASSERT_LT(partial.size(), full.size());
  for (std::size_t i = 0; i < partial.size(); ++i) {
    EXPECT_EQ(partial[i], full[i])
        << "partial block must be a byte-prefix of the full block (line "
        << i << ")";
  }
}

TEST_F(ServerSessionTest, MalformedCommandsDoNotKillTheSession) {
  const auto lines = Serve("bogus\nmine --minsup 7\nload\nload " + db_path_ +
                           "\nmine --minsup 0.1\nquit\n");
  EXPECT_TRUE(Contains(lines, "error unknown command 'bogus'"));
  EXPECT_TRUE(Contains(lines, "error bad value '7' for --minsup"));
  EXPECT_TRUE(Contains(lines, "error load: missing <path>"));
  EXPECT_TRUE(Contains(lines, "ok load sequences="))
      << "session must keep serving after errors";
  EXPECT_TRUE(Contains(lines, "ok mine id="));
  EXPECT_EQ(lines.back(), "ok quit");
}

TEST_F(ServerSessionTest, MineWithoutDatabaseIsAnError) {
  const auto lines = Serve("mine --minsup 0.1\nquit\n");
  EXPECT_TRUE(Contains(lines, "error mine: no database loaded"));
  EXPECT_FALSE(Contains(lines, "ok mine"));
}

TEST_F(ServerSessionTest, StopWhenIdleIsBenign) {
  const auto lines = Serve("stop\nquit\n");
  EXPECT_TRUE(Contains(lines, "ok stop id=none"));
}

TEST_F(ServerSessionTest, StatReportsEngineAndCacheCounters) {
  const auto lines =
      Serve("load " + db_path_ + "\nmine --minsup 0.1\nstat\nquit\n");
  // `stat` is interruptive: it may answer while the mine runs, so only its
  // presence and shape are asserted, not its position.
  bool saw_engine = false, saw_cache = false, saw_ok = false;
  for (const std::string& line : lines) {
    if (line.rfind("info engine queries=", 0) == 0) saw_engine = true;
    if (line.rfind("info cache hits=", 0) == 0) saw_cache = true;
    if (line == "ok stat") saw_ok = true;
  }
  EXPECT_TRUE(saw_engine);
  EXPECT_TRUE(saw_cache);
  EXPECT_TRUE(saw_ok);
}

TEST_F(ServerSessionTest, HelpListsEveryVerb) {
  const auto lines = Serve("help\nquit\n");
  EXPECT_TRUE(Contains(lines, "info commands"));
  for (const char* verb : {"load", "mine", "stop", "stat", "quit"}) {
    bool found = false;
    for (const std::string& line : lines) {
      if (line.rfind("info ", 0) == 0 &&
          line.find(verb) != std::string::npos) {
        found = true;
      }
    }
    EXPECT_TRUE(found) << "help must mention `" << verb << "`";
  }
  EXPECT_TRUE(Contains(lines, "ok help"));
}

TEST_F(ServerSessionTest, DeltaIsEchoedInTheMineHeader) {
  const auto lines =
      Serve("load " + db_path_ + "\nmine --delta 12\nquit\n");
  std::string header;
  MineBlock(lines, 0, &header);
  EXPECT_NE(header.find("delta=12"), std::string::npos) << header;
}

}  // namespace
}  // namespace server
}  // namespace disc
