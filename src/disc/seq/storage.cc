#include "disc/seq/storage.h"

#include <bit>
#include <cstddef>
#include <cstring>
#include <fstream>
#include <utility>
#include <vector>

#include "disc/common/failpoint.h"
#include "disc/common/file_util.h"

#if !defined(_WIN32)
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace disc {
namespace {

// The format is defined little-endian; this build writes and reads native
// integers straight from the mapped pages, so it only targets LE hosts.
static_assert(std::endian::native == std::endian::little,
              ".dsa support requires a little-endian host");

// PNG-style magic: high bit to catch 7-bit transports, CRLF + LF to catch
// newline translation, 0x1a to stop accidental `type` on Windows.
constexpr unsigned char kDsaMagic[8] = {0x89, 'D', 'S', 'A',
                                        '\r', '\n', 0x1a, '\n'};

// Exact wire layout of the 96-byte header. Every field is naturally
// aligned, so the struct is the layout and memcpy is the codec.
struct DsaHeaderRaw {
  unsigned char magic[8];        // offset 0
  std::uint32_t version;         // offset 8
  std::uint32_t header_bytes;    // offset 12
  std::uint64_t sequences;       // offset 16
  std::uint64_t transactions;    // offset 24
  std::uint64_t items;           // offset 32
  std::uint32_t max_item;        // offset 40
  std::uint32_t lambda_lo;       // offset 44
  std::uint32_t lambda_hi;       // offset 48
  std::uint32_t shard_index;     // offset 52
  std::uint32_t shard_count;     // offset 56
  std::uint32_t reserved0;       // offset 60; must be 0
  std::uint64_t total_customers; // offset 64
  std::uint64_t content_hash;    // offset 72
  std::uint64_t header_hash;     // offset 80; FNV-1a over bytes [0, 80)
  std::uint64_t reserved1;       // offset 88; must be 0 (not hash-covered)
};
static_assert(sizeof(DsaHeaderRaw) == kDsaHeaderBytes,
              ".dsa header must be exactly 96 bytes");
static_assert(offsetof(DsaHeaderRaw, header_hash) == 80);

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

// Byte-wise FNV-1a (header_hash).
std::uint64_t HashBytes(const void* data, std::size_t len) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = kFnvOffset;
  for (std::size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

Status DataLossAt(const std::string& context, std::string msg) {
  return Status::DataLoss(context + ": " + std::move(msg));
}

// Decodes and verifies the header alone: magic, version, declared size,
// header hash, reserved fields, shard-metadata sanity. Shared by the full
// loader and ReadDsaInfo.
Status DecodeHeader(const void* data, std::size_t len,
                    const std::string& context, DsaHeaderRaw* hdr) {
  if (len == 0) {
    return DataLossAt(context, "empty file (0 bytes) is not a .dsa arena");
  }
  if (len < kDsaHeaderBytes) {
    return DataLossAt(context, "truncated header: " + std::to_string(len) +
                                   " bytes, need " +
                                   std::to_string(kDsaHeaderBytes));
  }
  std::memcpy(hdr, data, sizeof(DsaHeaderRaw));
  if (std::memcmp(hdr->magic, kDsaMagic, sizeof(kDsaMagic)) != 0) {
    return DataLossAt(context, "bad magic (not a .dsa arena file)");
  }
  if (hdr->version != kDsaVersion) {
    return Status::InvalidArgument(
        context + ": unsupported .dsa version " +
        std::to_string(hdr->version) + " (this build reads version " +
        std::to_string(kDsaVersion) + ")");
  }
  if (hdr->header_bytes != kDsaHeaderBytes) {
    return DataLossAt(context, "header size field is " +
                                   std::to_string(hdr->header_bytes) +
                                   ", expected " +
                                   std::to_string(kDsaHeaderBytes));
  }
  const std::uint64_t want =
      HashBytes(data, offsetof(DsaHeaderRaw, header_hash));
  if (hdr->header_hash != want) {
    return DataLossAt(context, "header hash mismatch (corrupted header)");
  }
  if (hdr->reserved0 != 0 || hdr->reserved1 != 0) {
    return DataLossAt(context, "reserved header fields must be zero");
  }
  if (hdr->lambda_lo < 1 || hdr->lambda_hi < hdr->lambda_lo ||
      hdr->shard_count < 1 || hdr->shard_index >= hdr->shard_count ||
      hdr->total_customers < hdr->sequences) {
    return DataLossAt(context, "invalid shard metadata in header");
  }
  return Status::Ok();
}

DsaInfo InfoFromHeader(const DsaHeaderRaw& hdr) {
  DsaInfo info;
  info.sequences = hdr.sequences;
  info.transactions = hdr.transactions;
  info.items = hdr.items;
  info.max_item = hdr.max_item;
  info.shard.lambda_lo = hdr.lambda_lo;
  info.shard.lambda_hi = hdr.lambda_hi;
  info.shard.shard_index = hdr.shard_index;
  info.shard.shard_count = hdr.shard_count;
  info.shard.total_customers = hdr.total_customers;
  info.content_hash = hdr.content_hash;
  return info;
}

}  // namespace

std::uint64_t ContentHash(const SequenceDatabase& db) {
  // The .dsa loader verified this exact hash against the file and cached
  // it on the database, so mapped databases never rescan.
  if (db.has_cached_content_hash()) return db.cached_content_hash();
  // Value-wise FNV-1a over the CSR sections. The loader's validation pass
  // (TryFromDsaBytes) folds in the same values in the same order; changing
  // either walk breaks every existing .dsa file's content hash.
  const SequenceArena& arena = db.arena();
  const std::uint32_t* seq_offsets = arena.RawSeqOffsets();
  const std::uint32_t* txn_offsets = arena.RawTxnOffsets();
  const Item* items = arena.RawItems();
  std::uint64_t h = kFnvOffset;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= kFnvPrime;
  };
  for (std::size_t s = 0; s < arena.size(); ++s) {
    mix(seq_offsets[s + 1] - seq_offsets[s]);
    for (std::uint32_t t = seq_offsets[s]; t < seq_offsets[s + 1]; ++t) {
      mix(txn_offsets[t + 1] - txn_offsets[t]);
      for (std::uint32_t p = txn_offsets[t]; p < txn_offsets[t + 1]; ++p) {
        mix(items[p]);
      }
    }
  }
  return h;
}

bool IsDsaPath(const std::string& path) {
  constexpr const char kExt[] = ".dsa";
  constexpr std::size_t kExtLen = sizeof(kExt) - 1;
  return path.size() > kExtLen &&
         path.compare(path.size() - kExtLen, kExtLen, kExt) == 0;
}

std::string PackDsaString(const SequenceDatabase& db,
                          const DsaShardMeta& meta) {
  const SequenceArena& arena = db.arena();
  const std::uint64_t sequences = arena.size();
  const std::uint64_t transactions = arena.TotalTransactions();
  const std::uint64_t items = arena.TotalItems();

  DsaHeaderRaw hdr;
  std::memset(&hdr, 0, sizeof(hdr));
  std::memcpy(hdr.magic, kDsaMagic, sizeof(kDsaMagic));
  hdr.version = kDsaVersion;
  hdr.header_bytes = kDsaHeaderBytes;
  hdr.sequences = sequences;
  hdr.transactions = transactions;
  hdr.items = items;
  hdr.max_item = db.max_item();
  hdr.lambda_lo = meta.lambda_lo;
  // lambda_hi of 0 (the default) means "the whole alphabet": an unsharded
  // pack covers [1, max(1, max_item)].
  hdr.lambda_hi = meta.lambda_hi != 0
                      ? meta.lambda_hi
                      : (db.max_item() > 0 ? db.max_item() : 1);
  hdr.shard_index = meta.shard_index;
  hdr.shard_count = meta.shard_count;
  hdr.total_customers =
      meta.total_customers > 0 ? meta.total_customers : sequences;
  hdr.content_hash = ContentHash(db);
  hdr.header_hash = HashBytes(&hdr, offsetof(DsaHeaderRaw, header_hash));

  std::string out;
  out.reserve(kDsaHeaderBytes +
              sizeof(std::uint32_t) *
                  (sequences + 1 + transactions + 1 + items));
  out.append(reinterpret_cast<const char*>(&hdr), sizeof(hdr));
  out.append(reinterpret_cast<const char*>(arena.RawSeqOffsets()),
             sizeof(std::uint32_t) * (sequences + 1));
  out.append(reinterpret_cast<const char*>(arena.RawTxnOffsets()),
             sizeof(std::uint32_t) * (transactions + 1));
  out.append(reinterpret_cast<const char*>(arena.RawItems()),
             sizeof(Item) * items);
  return out;
}

Status SaveDsa(const SequenceDatabase& db, const std::string& path,
               const DsaShardMeta& meta) {
  return WriteFileAtomic(path, PackDsaString(db, meta));
}

StatusOr<SequenceDatabase> TryFromDsaBytes(
    std::shared_ptr<const void> keepalive, const void* data, std::size_t len,
    const std::string& context, DsaInfo* info) {
  if (reinterpret_cast<std::uintptr_t>(data) % alignof(std::uint32_t) != 0) {
    return Status::Internal(context + ": .dsa buffer is not 4-byte aligned");
  }
  DsaHeaderRaw hdr;
  DISC_RETURN_IF_ERROR(DecodeHeader(data, len, context, &hdr));

  // Exact file size from the trusted (hash-verified) counts. Guarding the
  // +1s against uint32 overflow keeps the size arithmetic exact and every
  // offset representable.
  constexpr std::uint64_t kMaxU32 = 0xffffffffull;
  if (hdr.sequences >= kMaxU32 || hdr.transactions >= kMaxU32 ||
      hdr.items > kMaxU32) {
    return DataLossAt(context, "section counts exceed the uint32 format cap");
  }
  const std::uint64_t expected =
      kDsaHeaderBytes +
      sizeof(std::uint32_t) *
          (hdr.sequences + 1 + hdr.transactions + 1 + hdr.items);
  if (len != expected) {
    return DataLossAt(context, "file size mismatch: " + std::to_string(len) +
                                   " bytes, header implies " +
                                   std::to_string(expected));
  }

  const std::uint32_t* seq_offsets = reinterpret_cast<const std::uint32_t*>(
      static_cast<const unsigned char*>(data) + kDsaHeaderBytes);
  const std::uint32_t* txn_offsets = seq_offsets + (hdr.sequences + 1);
  const Item* items = txn_offsets + (hdr.transactions + 1);

  // Sequence offsets: start at 0, non-decreasing (equal neighbors are an
  // empty sequence, which the arena represents), land exactly on the
  // transaction count.
  if (seq_offsets[0] != 0) {
    return DataLossAt(context, "sequence offsets must start at 0");
  }
  for (std::uint64_t s = 0; s < hdr.sequences; ++s) {
    if (seq_offsets[s + 1] < seq_offsets[s]) {
      return DataLossAt(context, "sequence offsets decreasing at index " +
                                     std::to_string(s + 1));
    }
  }
  if (seq_offsets[hdr.sequences] != hdr.transactions) {
    return DataLossAt(
        context, "sequence offsets end at " +
                     std::to_string(seq_offsets[hdr.sequences]) +
                     ", expected the transaction count " +
                     std::to_string(hdr.transactions));
  }

  // Transaction offsets: start at 0, strictly increase (no empty
  // transactions), land exactly on the item count.
  if (txn_offsets[0] != 0) {
    return DataLossAt(context, "transaction offsets must start at 0");
  }
  for (std::uint64_t t = 0; t < hdr.transactions; ++t) {
    if (txn_offsets[t + 1] <= txn_offsets[t]) {
      return DataLossAt(
          context, "transaction offsets not strictly increasing at index " +
                       std::to_string(t + 1));
    }
  }
  if (txn_offsets[hdr.transactions] != hdr.items) {
    return DataLossAt(context,
                      "transaction offsets end at " +
                          std::to_string(txn_offsets[hdr.transactions]) +
                          ", expected the item count " +
                          std::to_string(hdr.items));
  }

  // Items: non-sentinel and strictly ascending within each transaction
  // (the Sequence invariant every miner scan relies on); the running max
  // must land on the header's, and the content walk doubles as the hash:
  // bit-for-bit ContentHash's walk, fused here so a load reads the
  // sections once.
  std::uint64_t h = kFnvOffset;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= kFnvPrime;
  };
  Item max_seen = 0;
  for (std::uint64_t s = 0; s < hdr.sequences; ++s) {
    mix(seq_offsets[s + 1] - seq_offsets[s]);
    for (std::uint32_t t = seq_offsets[s]; t < seq_offsets[s + 1]; ++t) {
      mix(txn_offsets[t + 1] - txn_offsets[t]);
      Item prev = kNoItem;
      for (std::uint32_t p = txn_offsets[t]; p < txn_offsets[t + 1]; ++p) {
        const Item x = items[p];
        if (x == kNoItem) {
          return DataLossAt(context, "item 0 (the reserved sentinel) at "
                                     "position " +
                                         std::to_string(p));
        }
        if (x <= prev) {
          return DataLossAt(
              context,
              "items not strictly ascending within a transaction at "
              "position " +
                  std::to_string(p));
        }
        prev = x;
        if (x > max_seen) max_seen = x;
        mix(x);
      }
    }
  }
  if (max_seen != hdr.max_item) {
    return DataLossAt(context, "max item " + std::to_string(max_seen) +
                                   " does not match header " +
                                   std::to_string(hdr.max_item));
  }
  if (h != hdr.content_hash) {
    return DataLossAt(context, "content hash mismatch (corrupted sections)");
  }

  SequenceDatabase db;
  db.AdoptExternal(std::move(keepalive), items,
                   static_cast<std::size_t>(hdr.items), txn_offsets,
                   static_cast<std::size_t>(hdr.transactions + 1), seq_offsets,
                   static_cast<std::size_t>(hdr.sequences + 1), hdr.max_item);
  db.SetCachedContentHash(hdr.content_hash);
  if (info != nullptr) *info = InfoFromHeader(hdr);
  return db;
}

#if !defined(_WIN32)

namespace {

// Owns one read-only mapping; the aliased shared_ptr handed to
// AdoptExternal keeps it alive for as long as any database copy reads
// from the pages.
struct MappedFile {
  void* addr = nullptr;
  std::size_t len = 0;
  ~MappedFile() {
    if (addr != nullptr) ::munmap(addr, len);
  }
};

}  // namespace

StatusOr<SequenceDatabase> TryLoadDsa(const std::string& path,
                                      DsaInfo* info) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::IoError(path + ": cannot open");
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Status::IoError(path + ": cannot stat");
  }
  const std::size_t len = static_cast<std::size_t>(st.st_size);
  if (len == 0) {
    // mmap rejects zero-length mappings; the validator owns the message.
    ::close(fd);
    return TryFromDsaBytes(nullptr, nullptr, 0, path, info);
  }
  if (DISC_FAILPOINT("io.mmap") == failpoint::Action::kError) {
    ::close(fd);
    return Status::IoError(path +
                           ": injected mmap failure (io.mmap fail point)");
  }
  void* addr = ::mmap(nullptr, len, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // the mapping outlives the descriptor
  if (addr == MAP_FAILED) {
    return Status::IoError(path + ": mmap failed");
  }
  auto mapping = std::make_shared<MappedFile>();
  mapping->addr = addr;
  mapping->len = len;
  std::shared_ptr<const void> keepalive(mapping, mapping->addr);
  return TryFromDsaBytes(std::move(keepalive), addr, len, path, info);
}

#else  // _WIN32

StatusOr<SequenceDatabase> TryLoadDsa(const std::string& path,
                                      DsaInfo* info) {
  // Portable fallback: read the whole file into an 8-byte-aligned buffer.
  // Same validation and keepalive contract, without the O(1) load cost.
  if (DISC_FAILPOINT("io.mmap") == failpoint::Action::kError) {
    return Status::IoError(path +
                           ": injected mmap failure (io.mmap fail point)");
  }
  std::string bytes;
  Status read = ReadFileToString(path, &bytes);
  if (!read.ok()) return read;
  auto buf =
      std::make_shared<std::vector<std::uint64_t>>((bytes.size() + 7) / 8);
  if (!bytes.empty()) std::memcpy(buf->data(), bytes.data(), bytes.size());
  std::shared_ptr<const void> keepalive(buf, buf->data());
  const void* data = buf->data();
  return TryFromDsaBytes(std::move(keepalive), data, bytes.size(), path,
                         info);
}

#endif  // _WIN32

StatusOr<DsaInfo> ReadDsaInfo(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::IoError(path + ": cannot open");
  }
  char buf[kDsaHeaderBytes];
  in.read(buf, sizeof(buf));
  const std::size_t got = static_cast<std::size_t>(in.gcount());
  DsaHeaderRaw hdr;
  DISC_RETURN_IF_ERROR(DecodeHeader(buf, got, path, &hdr));
  return InfoFromHeader(hdr);
}

}  // namespace disc
