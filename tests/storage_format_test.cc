// The .dsa hostile-input battery (docs/STORAGE.md): round-trip identity,
// one test per corruption class pinned to its exact diagnostic, and a
// byte-flip fuzzer over every position in a packed file. The invariant
// under fuzz is absolute: any mutation either fails with a clean Status
// or loads a database with identical contents — never UB, never a
// silently different database. tools/check_asan.sh runs this battery
// under ASan/UBSan so "clean" means clean at the memory level too.
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "disc/common/rng.h"
#include "disc/common/status.h"
#include "disc/core/first_level.h"
#include "disc/seq/database.h"
#include "disc/seq/io.h"
#include "disc/seq/parse.h"
#include "disc/seq/storage.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace disc {
namespace {

// FNV-1a constants mirrored from storage.cc — the header-hash fixup below
// must agree with the reader for crafted-header tests to get past the
// header integrity check.
constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;
constexpr std::size_t kHeaderHashOffset = 80;

std::uint64_t Fnv1a(const unsigned char* p, std::size_t len) {
  std::uint64_t h = kFnvOffset;
  for (std::size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

// Recomputes header_hash over bytes [0, 80) and patches it in, so tests
// can corrupt *semantic* header fields and still present a header whose
// integrity check passes — exercising the validation behind it.
void FixupHeaderHash(std::string* bytes) {
  ASSERT_GE(bytes->size(), kDsaHeaderBytes);
  const std::uint64_t h = Fnv1a(
      reinterpret_cast<const unsigned char*>(bytes->data()), kHeaderHashOffset);
  std::memcpy(bytes->data() + kHeaderHashOffset, &h, sizeof(h));
}

void PokeU32(std::string* bytes, std::size_t offset, std::uint32_t value) {
  ASSERT_LE(offset + sizeof(value), bytes->size());
  std::memcpy(bytes->data() + offset, &value, sizeof(value));
}

std::uint32_t PeekU32(const std::string& bytes, std::size_t offset) {
  std::uint32_t value = 0;
  std::memcpy(&value, bytes.data() + offset, sizeof(value));
  return value;
}

// Loads from an in-memory byte string through an aligned heap buffer (a
// std::string's data is only char-aligned; the loader requires 4).
StatusOr<SequenceDatabase> LoadFromString(const std::string& bytes,
                                          DsaInfo* info = nullptr) {
  auto buf = std::make_shared<std::vector<std::uint64_t>>((bytes.size() + 7) /
                                                          8);
  if (!bytes.empty()) std::memcpy(buf->data(), bytes.data(), bytes.size());
  const void* data = buf->data();
  return TryFromDsaBytes(std::shared_ptr<const void>(buf, buf->data()), data,
                         bytes.size(), "test", info);
}

// EXPECT_TRUE(FailsWith(result, "bad magic")): the load failed AND its
// message carries the expected diagnostic.
::testing::AssertionResult FailsWith(
    const StatusOr<SequenceDatabase>& result, const std::string& needle) {
  if (result.ok()) {
    return ::testing::AssertionFailure()
           << "load succeeded, wanted an error containing \"" << needle
           << "\"";
  }
  if (result.status().message().find(needle) == std::string::npos) {
    return ::testing::AssertionFailure()
           << "error \"" << result.status().message()
           << "\" does not contain \"" << needle << "\"";
  }
  return ::testing::AssertionSuccess();
}

// Header field offsets (mirrors DsaHeaderRaw in storage.cc).
constexpr std::size_t kOffVersion = 8;
constexpr std::size_t kOffSequences = 16;
constexpr std::size_t kOffMaxItem = 40;
constexpr std::size_t kOffLambdaLo = 44;
constexpr std::size_t kOffLambdaHi = 48;
constexpr std::size_t kOffShardIndex = 52;
constexpr std::size_t kOffShardCount = 56;
constexpr std::size_t kOffReserved0 = 60;
constexpr std::size_t kOffReserved1 = 88;

TEST(DsaFormat, IsDsaPath) {
  EXPECT_TRUE(IsDsaPath("corpus.dsa"));
  EXPECT_TRUE(IsDsaPath("/a/b/c.shard0of4.dsa"));
  EXPECT_FALSE(IsDsaPath("corpus.spmf"));
  EXPECT_FALSE(IsDsaPath(".dsa"));        // bare extension, no stem
  EXPECT_FALSE(IsDsaPath("corpus.DSA"));  // case-sensitive by contract
  EXPECT_FALSE(IsDsaPath(""));
}

TEST(DsaFormat, RoundTripPreservesEverySequence) {
  const SequenceDatabase db = testutil::MakeRandomDb(
      {.num_seqs = 60, .alphabet = 15, .max_txns = 6, .seed = 17});
  DsaInfo info;
  auto loaded = LoadFromString(PackDsaString(db), &info);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded->mapped());
  EXPECT_EQ(loaded->size(), db.size());
  EXPECT_EQ(loaded->max_item(), db.max_item());
  EXPECT_EQ(ToSpmfString(*loaded), ToSpmfString(db));
  EXPECT_EQ(info.sequences, db.size());
  EXPECT_EQ(info.transactions, db.TotalTransactions());
  EXPECT_EQ(info.items, db.TotalItems());
  EXPECT_EQ(info.max_item, db.max_item());
  // Unsharded defaults: shard 0 of 1 covering the whole alphabet.
  EXPECT_EQ(info.shard.lambda_lo, 1u);
  EXPECT_EQ(info.shard.lambda_hi, db.max_item());
  EXPECT_EQ(info.shard.shard_index, 0u);
  EXPECT_EQ(info.shard.shard_count, 1u);
  EXPECT_EQ(info.shard.total_customers, db.size());
}

TEST(DsaFormat, ContentHashMatchesFirstLevelWalk) {
  // The loader's fused validate-and-hash pass and ContentHash, the engine
  // QueryCache fingerprint, must be bit-for-bit the same walk: the
  // loader's verified hash doubles as the fingerprint. This test pins the
  // two walks together — if either changes, it fails.
  const SequenceDatabase db = testutil::Table6Database();
  DsaInfo info;
  auto loaded = LoadFromString(PackDsaString(db), &info);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(info.content_hash, ContentHash(db));
  // And the loaded copy serves it from the cache, no rescan.
  ASSERT_TRUE(loaded->has_cached_content_hash());
  EXPECT_EQ(loaded->cached_content_hash(), info.content_hash);
  EXPECT_EQ(ContentHash(*loaded), info.content_hash);
}

TEST(DsaFormat, EmptyDatabaseRoundTrips) {
  const SequenceDatabase empty;
  auto loaded = LoadFromString(PackDsaString(empty));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->size(), 0u);
  EXPECT_EQ(loaded->max_item(), 0u);
}

TEST(DsaFormat, EmptySequencesRoundTrip) {
  // SPMF ingestion rejects empty sequences, but programmatically built
  // arenas hold them (BeginSequence/EndSequence with no transactions);
  // the format must round-trip any valid in-memory database.
  SequenceDatabase db;
  db.Add(testutil::Seq("(a)(b)"));
  db.BeginSequence();
  db.EndSequence();
  db.Add(testutil::Seq("(c)"));
  auto loaded = LoadFromString(PackDsaString(db));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->size(), 3u);
  EXPECT_EQ((*loaded)[1].NumTransactions(), 0u);
  EXPECT_EQ((*loaded)[2].ItemAt(0), testutil::Seq("(c)").ItemAt(0));
}

TEST(DsaFormat, ZeroBytesIsACleanError) {
  auto loaded = LoadFromString("");
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
  EXPECT_TRUE(FailsWith(loaded, "empty file (0 bytes)"));
}

TEST(DsaFormat, TruncatedHeaderIsACleanError) {
  const std::string bytes = PackDsaString(testutil::Table1Database());
  for (const std::size_t keep : {1ul, 8ul, 50ul, kDsaHeaderBytes - 1ul}) {
    auto loaded = LoadFromString(bytes.substr(0, keep));
    EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss) << keep;
    EXPECT_TRUE(FailsWith(loaded, "truncated header"));
  }
}

TEST(DsaFormat, BadMagicIsACleanError) {
  std::string bytes = PackDsaString(testutil::Table1Database());
  bytes[0] = 'P';  // no longer the .dsa signature
  auto loaded = LoadFromString(bytes);
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
  EXPECT_TRUE(FailsWith(loaded, "bad magic"));

  // An SPMF text file fed to the .dsa loader is the everyday spelling of
  // this mistake.
  EXPECT_TRUE(FailsWith(
      LoadFromString(ToSpmfString(testutil::Table6Database())), "bad magic"));
}

TEST(DsaFormat, UnsupportedVersionIsInvalidArgument) {
  std::string bytes = PackDsaString(testutil::Table1Database());
  PokeU32(&bytes, kOffVersion, kDsaVersion + 1);
  // Version is checked before the header hash: a future-version file is
  // reported as "unsupported version", not "corrupted header", even
  // though its v1-computed hash no longer matches.
  auto loaded = LoadFromString(bytes);
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(FailsWith(loaded, "unsupported .dsa version 2"));
}

TEST(DsaFormat, HeaderFieldFlipFailsTheHeaderHash) {
  std::string bytes = PackDsaString(testutil::Table6Database());
  PokeU32(&bytes, kOffSequences, PeekU32(bytes, kOffSequences) + 1);
  auto loaded = LoadFromString(bytes);
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
  EXPECT_TRUE(FailsWith(loaded, "header hash mismatch"));
}

TEST(DsaFormat, ReservedFieldsMustBeZero) {
  // reserved0 sits inside the hashed range; reserved1 (offset 88) is
  // after header_hash and is guarded by an explicit must-be-zero check.
  std::string in_hash = PackDsaString(testutil::Table1Database());
  PokeU32(&in_hash, kOffReserved0, 1);
  FixupHeaderHash(&in_hash);
  EXPECT_TRUE(FailsWith(LoadFromString(in_hash), "reserved header fields"));

  std::string after_hash = PackDsaString(testutil::Table1Database());
  PokeU32(&after_hash, kOffReserved1, 0xdeadbeef);
  EXPECT_TRUE(
      FailsWith(LoadFromString(after_hash), "reserved header fields"));
}

TEST(DsaFormat, HostileShardMetadataIsRejected) {
  // Each mutation gets a recomputed (valid) header hash, so the shard
  // sanity checks themselves are what rejects the file.
  const std::string good = PackDsaString(testutil::Table6Database());
  const auto expect_bad = [&](std::size_t offset, std::uint32_t value) {
    std::string bytes = good;
    PokeU32(&bytes, offset, value);
    FixupHeaderHash(&bytes);
    auto loaded = LoadFromString(bytes);
    EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss)
        << "offset=" << offset << " value=" << value;
    EXPECT_TRUE(FailsWith(loaded, "invalid shard metadata"));
  };
  expect_bad(kOffLambdaLo, 0);    // λ ranges are 1-based
  expect_bad(kOffLambdaHi, 0);    // lambda_hi < lambda_lo
  expect_bad(kOffShardIndex, 7);  // shard_index >= shard_count (of 1)
  expect_bad(kOffShardCount, 0);  // shard_count < 1
}

TEST(DsaFormat, FileSizeMismatchIsACleanError) {
  const std::string bytes = PackDsaString(testutil::Table6Database());
  auto short_file = LoadFromString(bytes.substr(0, bytes.size() - 4));
  EXPECT_EQ(short_file.status().code(), StatusCode::kDataLoss);
  EXPECT_TRUE(FailsWith(short_file, "file size mismatch"));

  auto long_file = LoadFromString(bytes + std::string(4, '\0'));
  EXPECT_EQ(long_file.status().code(), StatusCode::kDataLoss);
  EXPECT_TRUE(FailsWith(long_file, "file size mismatch"));
}

TEST(DsaFormat, CorruptSequenceOffsetsAreACleanError) {
  const SequenceDatabase db = testutil::Table6Database();
  const std::string good = PackDsaString(db);

  // Raising seq_offsets[1] above seq_offsets[2] makes the array decrease.
  std::string decreasing = good;
  PokeU32(&decreasing, kDsaHeaderBytes + 4,
          PeekU32(good, kDsaHeaderBytes + 8) + 1);
  EXPECT_TRUE(FailsWith(LoadFromString(decreasing),
                        "sequence offsets decreasing at index"));

  std::string bad_start = good;
  PokeU32(&bad_start, kDsaHeaderBytes, 1);
  EXPECT_TRUE(FailsWith(LoadFromString(bad_start),
                        "sequence offsets must start at 0"));

  // Shrinking the last offset keeps the array monotone but no longer
  // covers every transaction.
  std::string bad_end = good;
  const std::size_t last = kDsaHeaderBytes + 4 * db.size();
  PokeU32(&bad_end, last, PeekU32(good, last) - 1);
  EXPECT_TRUE(FailsWith(LoadFromString(bad_end), "sequence offsets end at"));
}

TEST(DsaFormat, CorruptTransactionOffsetsAreACleanError) {
  const SequenceDatabase db = testutil::Table6Database();
  const std::string good = PackDsaString(db);
  const std::size_t txn_base = kDsaHeaderBytes + 4 * (db.size() + 1);

  // Equal neighbors — an empty transaction, which the format forbids.
  std::string stalled = good;
  PokeU32(&stalled, txn_base + 4, 0);
  EXPECT_TRUE(FailsWith(LoadFromString(stalled),
                        "transaction offsets not strictly increasing"));

  std::string bad_start = good;
  PokeU32(&bad_start, txn_base, 2);
  EXPECT_TRUE(
      FailsWith(LoadFromString(bad_start), "transaction offsets"));

  std::string bad_end = good;
  const std::size_t last = txn_base + 4 * db.TotalTransactions();
  PokeU32(&bad_end, last, PeekU32(good, last) - 1);
  EXPECT_TRUE(
      FailsWith(LoadFromString(bad_end), "transaction offsets end at"));
}

TEST(DsaFormat, CorruptItemsAreACleanError) {
  // (a,b,c)(d) + (b,e)  =>  items [1,2,3,4,2,5], max_item 5.
  const SequenceDatabase db = MakeDatabase({"(a,b,c)(d)", "(b,e)"});
  ASSERT_EQ(db.TotalItems(), 6u);
  ASSERT_EQ(db.max_item(), 5u);
  const std::string good = PackDsaString(db);
  const std::size_t item_base =
      kDsaHeaderBytes + 4 * (db.size() + 1 + db.TotalTransactions() + 1);

  std::string sentinel = good;
  PokeU32(&sentinel, item_base, 0);
  EXPECT_TRUE(FailsWith(LoadFromString(sentinel),
                        "item 0 (the reserved sentinel)"));

  // (a,b,c) -> (a,a,c): duplicates break the strictly-ascending itemset
  // invariant every miner scan relies on.
  std::string unsorted = good;
  PokeU32(&unsorted, item_base + 4, 1);
  EXPECT_TRUE(FailsWith(LoadFromString(unsorted),
                        "items not strictly ascending"));

  // (b,e) -> (d,e) keeps every structural invariant intact (ascending,
  // max unchanged); only the content hash notices.
  std::string reworded = good;
  PokeU32(&reworded, item_base + 4 * 4, 4);
  EXPECT_TRUE(
      FailsWith(LoadFromString(reworded), "content hash mismatch"));

  // (b,e) -> (b,f) raises the observed max item above the header's.
  std::string too_big = good;
  PokeU32(&too_big, item_base + 4 * 5, 6);
  EXPECT_TRUE(FailsWith(LoadFromString(too_big),
                        "max item 6 does not match header 5"));
}

TEST(DsaFormat, MaxItemHeaderMismatchIsACleanError) {
  std::string bytes = PackDsaString(testutil::Table1Database());
  PokeU32(&bytes, kOffMaxItem, PeekU32(bytes, kOffMaxItem) + 1);
  FixupHeaderHash(&bytes);
  EXPECT_TRUE(FailsWith(LoadFromString(bytes), "does not match header"));
}

TEST(DsaFormat, MisalignedBufferIsRejectedNotRead) {
  const std::string bytes = PackDsaString(testutil::Table1Database());
  auto buf =
      std::make_shared<std::vector<std::uint64_t>>(bytes.size() / 8 + 2);
  unsigned char* base = reinterpret_cast<unsigned char*>(buf->data());
  std::memcpy(base + 1, bytes.data(), bytes.size());
  auto loaded =
      TryFromDsaBytes(std::shared_ptr<const void>(buf, base + 1), base + 1,
                      bytes.size(), "test");
  EXPECT_EQ(loaded.status().code(), StatusCode::kInternal);
  EXPECT_TRUE(FailsWith(loaded, "not 4-byte aligned"));
}

TEST(DsaFormat, ErrorsArePrefixedWithContext) {
  auto loaded = TryFromDsaBytes(nullptr, nullptr, 0, "corpus.dsa");
  EXPECT_TRUE(FailsWith(loaded, "corpus.dsa: "));
}

TEST(DsaFormat, SaveAndLoadThroughTheFilesystem) {
  const SequenceDatabase db = testutil::MakeQuestDb();
  const std::string path = ::testing::TempDir() + "/storage_format_rt.dsa";
  ASSERT_TRUE(SaveDsa(db, path).ok());

  auto header_only = ReadDsaInfo(path);
  ASSERT_TRUE(header_only.ok()) << header_only.status().ToString();
  DsaInfo full;
  auto loaded = TryLoadDsa(path, &full);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded->mapped());
  EXPECT_EQ(ToSpmfString(*loaded), ToSpmfString(db));
  // ReadDsaInfo decodes the same header the full load verifies.
  EXPECT_EQ(header_only->sequences, full.sequences);
  EXPECT_EQ(header_only->items, full.items);
  EXPECT_EQ(header_only->content_hash, full.content_hash);
}

TEST(DsaFormat, MissingFileIsIoError) {
  EXPECT_EQ(TryLoadDsa("/nonexistent/nope.dsa").status().code(),
            StatusCode::kIoError);
  EXPECT_EQ(ReadDsaInfo("/nonexistent/nope.dsa").status().code(),
            StatusCode::kIoError);
}

#if GTEST_HAS_DEATH_TEST
TEST(DsaFormatDeathTest, MappedDatabaseRefusesMutation) {
  const SequenceDatabase db = testutil::Table1Database();
  auto loaded = LoadFromString(PackDsaString(db));
  ASSERT_TRUE(loaded.ok());
  EXPECT_DEATH(loaded->Add(testutil::Seq("(a)")), "read-only");
}
#endif

// ---------------------------------------------------------------------------
// Fuzzing. The contract for ANY byte mutation of a valid file: either a
// clean Status error, or a successful load whose contents are identical
// to the original — the assertion states the real invariant (no silent
// divergence), not the incidental one (every flip is fatal).

void ExpectCleanOrIdentical(const std::string& mutated,
                            const std::string& original_spmf,
                            const std::string& what) {
  auto loaded = LoadFromString(mutated);
  if (!loaded.ok()) {
    EXPECT_FALSE(loaded.status().message().empty()) << what;
    return;
  }
  EXPECT_EQ(ToSpmfString(*loaded), original_spmf)
      << what << ": corrupted file loaded with different contents";
}

TEST(DsaFormatFuzz, EverySingleByteCorruptionIsCleanOrIdentical) {
  const SequenceDatabase db = testutil::MakeRandomDb(
      {.num_seqs = 25, .alphabet = 10, .max_txns = 4, .seed = 99});
  const std::string good = PackDsaString(db);
  const std::string want = ToSpmfString(db);
  ASSERT_TRUE(LoadFromString(good).ok());

  for (std::size_t i = 0; i < good.size(); ++i) {
    for (const unsigned char mask : {0x01, 0x80, 0xff}) {
      std::string mutated = good;
      mutated[i] =
          static_cast<char>(static_cast<unsigned char>(mutated[i]) ^ mask);
      ExpectCleanOrIdentical(
          mutated, want,
          "byte " + std::to_string(i) + " ^ " + std::to_string(mask));
    }
  }
}

TEST(DsaFormatFuzz, RandomMultiByteCorruptionIsCleanOrIdentical) {
  const SequenceDatabase db = testutil::MakeRandomDb(
      {.num_seqs = 40, .alphabet = 12, .max_txns = 5, .seed = 1234});
  const std::string good = PackDsaString(db);
  const std::string want = ToSpmfString(db);

  Rng rng(0xfeedu);
  for (int round = 0; round < 300; ++round) {
    std::string mutated = good;
    const int flips = 1 + static_cast<int>(rng.NextBounded(8));
    for (int f = 0; f < flips; ++f) {
      const std::size_t pos =
          static_cast<std::size_t>(rng.NextBounded(mutated.size()));
      mutated[pos] = static_cast<char>(rng.NextBounded(256));
    }
    ExpectCleanOrIdentical(mutated, want, "round " + std::to_string(round));
  }
}

TEST(DsaFormatFuzz, RandomTruncationsAndExtensionsAreClean) {
  const SequenceDatabase db = testutil::MakeRandomDb({.seed = 31});
  const std::string good = PackDsaString(db);
  Rng rng(0xabcu);
  for (int round = 0; round < 100; ++round) {
    const std::size_t keep =
        static_cast<std::size_t>(rng.NextBounded(good.size()));
    auto truncated = LoadFromString(good.substr(0, keep));
    EXPECT_FALSE(truncated.ok()) << "keep=" << keep;
  }
  for (const std::size_t extra : {1ul, 3ul, 4ul, 96ul}) {
    auto extended = LoadFromString(good + std::string(extra, 'x'));
    EXPECT_FALSE(extended.ok()) << "extra=" << extra;
  }
}

TEST(DsaFormatFuzz, RandomGarbageBuffersAreClean) {
  Rng rng(0x5150u);
  for (int round = 0; round < 200; ++round) {
    const std::size_t len = static_cast<std::size_t>(rng.NextBounded(4096));
    std::string garbage(len, '\0');
    for (std::size_t i = 0; i < len; ++i) {
      garbage[i] = static_cast<char>(rng.NextBounded(256));
    }
    auto loaded = LoadFromString(garbage);
    EXPECT_FALSE(loaded.ok()) << "round " << round << " len=" << len;
  }
}

}  // namespace
}  // namespace disc
