// Golden-corpus regression tests: every registered miner, at 1 and 4
// threads, must reproduce the committed golden pattern files byte for
// byte on three small Quest datasets (tests/data/*.spmf).
//
// The goldens pin the full mining contract at once — the pattern set, the
// exact supports, and the canonical comparative-order serialization — so
// any drift in an algorithm, the order, or the SPMF writer shows up as a
// diff against a file in version control. Refresh a golden only for an
// intentional contract change, by running
//
//   $ build/examples/seqmine tests/data/<db>.spmf --algo=disc-all
//
// with --delta=<delta> --out=tests/data/<db>.delta<delta>.golden.spmf.
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "disc/algo/miner.h"
#include "disc/algo/pattern_io.h"
#include "disc/seq/io.h"
#include "disc/seq/storage.h"

namespace disc {
namespace {

struct Corpus {
  const char* db;      // SPMF database under tests/data/
  const char* golden;  // expected patterns (SPMF pattern format)
  std::uint32_t delta;
};

constexpr Corpus kCorpora[] = {
    {"quest_tiny.spmf", "quest_tiny.delta4.golden.spmf", 4},
    {"quest_mid.spmf", "quest_mid.delta6.golden.spmf", 6},
    {"quest_dense.spmf", "quest_dense.delta8.golden.spmf", 8},
};

std::string DataPath(const std::string& name) {
  return std::string(DISC_TEST_DATA_DIR) + "/" + name;
}

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << "missing " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST(GoldenCorpus, EveryMinerMatchesGoldenAtOneAndFourThreads) {
  for (const Corpus& corpus : kCorpora) {
    SCOPED_TRACE(corpus.db);
    const SequenceDatabase db = TryLoadSpmf(DataPath(corpus.db)).value();
    const std::string golden = ReadFileOrDie(DataPath(corpus.golden));
    ASSERT_FALSE(golden.empty());
    MineOptions options;
    options.min_support_count = corpus.delta;
    for (const std::string& name : AllMinerNames()) {
      for (const std::uint32_t threads : {1u, 4u}) {
        SCOPED_TRACE(name + " threads=" + std::to_string(threads));
        options.threads = threads;
        const PatternSet patterns = CreateMiner(name)->Mine(db, options);
        EXPECT_EQ(ToSpmfPatternString(patterns), golden);
      }
    }
  }
}

// Packed variant: each corpus pushed through the .dsa arena format
// (SaveDsa -> mmap TryLoadDsa) must mine to the same goldens. This is the
// end-to-end storage guarantee — a mapped database is not merely
// "equal", it produces byte-identical mining output.
TEST(GoldenCorpus, PackedDatabasesMatchGolden) {
  for (const Corpus& corpus : kCorpora) {
    SCOPED_TRACE(corpus.db);
    const SequenceDatabase db = TryLoadSpmf(DataPath(corpus.db)).value();
    const std::string golden = ReadFileOrDie(DataPath(corpus.golden));
    ASSERT_FALSE(golden.empty());

    const std::string packed =
        ::testing::TempDir() + "/golden_packed_" + corpus.db + ".dsa";
    ASSERT_TRUE(SaveDsa(db, packed).ok());
    auto mapped = TryLoadDsa(packed);
    ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
    ASSERT_TRUE(mapped->mapped());

    MineOptions options;
    options.min_support_count = corpus.delta;
    for (const std::string& name : {std::string("disc-all"),
                                    std::string("dynamic-disc-all")}) {
      SCOPED_TRACE(name);
      const PatternSet patterns = CreateMiner(name)->Mine(*mapped, options);
      EXPECT_EQ(ToSpmfPatternString(patterns), golden);
    }
  }
}

// The goldens themselves must round-trip through the pattern reader, so a
// hand-edited or truncated golden fails loudly rather than silently
// "matching" a similarly broken writer.
TEST(GoldenCorpus, GoldenFilesRoundTrip) {
  for (const Corpus& corpus : kCorpora) {
    SCOPED_TRACE(corpus.golden);
    const std::string golden = ReadFileOrDie(DataPath(corpus.golden));
    const PatternSet parsed = FromSpmfPatternString(golden);
    EXPECT_GT(parsed.size(), 0u);
    EXPECT_EQ(ToSpmfPatternString(parsed), golden);
  }
}

}  // namespace
}  // namespace disc
