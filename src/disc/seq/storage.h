// On-disk arena format (.dsa): the SequenceArena CSR sections, verbatim.
//
// A .dsa file is a 96-byte header followed by the three flat sections a
// SequenceArena already holds in memory — sequence offsets, transaction
// offsets, items — all little-endian uint32. Loading is therefore a
// single mmap plus one validation pass: the mapped pages are handed to
// SequenceDatabase::AdoptExternal unchanged, so load cost is independent
// of database size and nothing is parsed or copied (docs/STORAGE.md).
//
//   [ magic | version | counts | shard metadata | hashes ]   96 bytes
//   [ seq_offsets  : uint32 x (sequences + 1)    ]   indices into txn_offsets
//   [ txn_offsets  : uint32 x (transactions + 1) ]   global item positions
//   [ items        : uint32 x items              ]
//
// Integrity is two FNV-1a hashes: `header_hash` covers the header bytes
// before it (any metadata flip is caught before the counts are trusted),
// and `content_hash` covers the logical contents (ContentHash below), so
// the loader's verification pass doubles as the engine QueryCache
// fingerprint (the hash is cached on the returned database and never
// recomputed). Every load validates
// exhaustively: exact file size from the counts, monotone offsets, sorted
// non-zero items. A file that passes cannot make the miners read out of
// bounds; a file that fails comes back as a clean Status, never UB
// (tests/storage_format_test.cc is the hostile-input battery).
//
// Shard metadata (lambda_lo / lambda_hi / shard_index / shard_count /
// total_customers) records which λ-range slice of which corpus this file
// holds — see core/shard.h. An unsharded pack is shard 0 of 1 covering
// [1, max_item].
#ifndef DISC_SEQ_STORAGE_H_
#define DISC_SEQ_STORAGE_H_

#include <cstdint>
#include <memory>
#include <string>

#include "disc/common/status.h"
#include "disc/seq/database.h"

namespace disc {

/// Current .dsa format version. Bumped on any layout change; the loader
/// rejects other versions with kInvalidArgument.
inline constexpr std::uint32_t kDsaVersion = 1;

/// Header size in bytes (fixed for version 1).
inline constexpr std::uint32_t kDsaHeaderBytes = 96;

/// Shard placement metadata carried in the header. Defaults describe an
/// unsharded pack; core/shard.cc fills real ranges.
struct DsaShardMeta {
  std::uint32_t lambda_lo = 1;  ///< first λ this shard answers (>= 1)
  /// Last λ this shard answers (>= lambda_lo on disk). 0 here is a
  /// pack-time sentinel: PackDsaString substitutes the database's full
  /// alphabet, max(1, max_item).
  std::uint32_t lambda_hi = 0;
  std::uint32_t shard_index = 0; ///< position in the shard set
  std::uint32_t shard_count = 1; ///< shards in the set (>= 1)
  std::uint64_t total_customers = 0;  ///< |D| of the *unsharded* corpus
};

/// Decoded header of a .dsa file (ReadDsaInfo; also returned alongside a
/// loaded database for banners and shard planning).
struct DsaInfo {
  std::uint64_t sequences = 0;
  std::uint64_t transactions = 0;
  std::uint64_t items = 0;
  std::uint32_t max_item = 0;
  DsaShardMeta shard;
  std::uint64_t content_hash = 0;
};

/// FNV-1a over the database's logical contents: per sequence its
/// transaction count, then per transaction its size followed by its items.
/// The sizes fold in itemset boundaries, so <(1 2)> and <(1)(2)> hash
/// differently even though their flattened items agree; the transaction
/// count folds in sequence boundaries, so a corrupted sequence-offsets
/// section is caught by this hash alone (docs/STORAGE.md). It is the .dsa
/// header's `content_hash` and the engine's database fingerprint
/// (core/first_level.h). One O(n) pass, or O(1) on a database that caches
/// its hash: one loaded from a .dsa file, or resident in an engine with
/// its cache on.
std::uint64_t ContentHash(const SequenceDatabase& db);

/// True when `path` names a .dsa arena file (case-sensitive ".dsa"
/// suffix) — the dispatch rule Engine::LoadPath and the CLIs use.
bool IsDsaPath(const std::string& path);

/// Serializes the database into .dsa bytes. `meta.total_customers` of 0 is
/// replaced by db.size() (the unsharded convention).
std::string PackDsaString(const SequenceDatabase& db,
                          const DsaShardMeta& meta = {});

/// Packs the database and writes it via WriteFileAtomic: a crash or an
/// injected "io.write" fault never leaves a partial .dsa behind.
Status SaveDsa(const SequenceDatabase& db, const std::string& path,
               const DsaShardMeta& meta = {});

/// Validates `len` bytes of .dsa at `data` (4-byte aligned) and returns a
/// read-only database whose arena points straight into those bytes, with
/// `keepalive` pinning them. Every structural error is a kDataLoss (or
/// kInvalidArgument for a version mismatch) prefixed with `context`.
/// On success the verified content hash is cached on the database and
/// `info`, when non-null, receives the decoded header.
StatusOr<SequenceDatabase> TryFromDsaBytes(
    std::shared_ptr<const void> keepalive, const void* data, std::size_t len,
    const std::string& context, DsaInfo* info = nullptr);

/// Maps `path` and validates it as TryFromDsaBytes (context = path). The
/// mapping is released when the last copy of the database is destroyed.
/// kIoError when the file cannot be opened or mapped.
/// Fail point: "io.mmap" (error makes the mapping step fail with kIoError).
StatusOr<SequenceDatabase> TryLoadDsa(const std::string& path,
                                      DsaInfo* info = nullptr);

/// Reads and validates only the 96-byte header of `path` (shard planning,
/// banners — no section I/O). Section-level corruption is *not* detected
/// here; TryLoadDsa is the full check.
StatusOr<DsaInfo> ReadDsaInfo(const std::string& path);

}  // namespace disc

#endif  // DISC_SEQ_STORAGE_H_
