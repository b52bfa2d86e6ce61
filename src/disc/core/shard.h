// λ-range sharding: out-of-core mining over .dsa arena shards.
//
// DISC keys every pattern by its first item — the ⟨λ⟩-partition owns
// exactly the patterns starting with λ (paper §3.1) — so the one split
// that keeps shards independent is by λ-range: shard k answers the
// contiguous range [lambda_lo, lambda_hi] and holds the *full* sequence
// of every customer containing at least one in-range item. Members of the
// ⟨λ⟩-partition for any in-range λ are then exactly the same sequences as
// in the unsharded database (a pattern starting with λ may well continue
// with items outside the range, which is why sequences are stored whole
// and replicated across shards rather than projected).
//
// Mining a shard reuses the stock miners untouched: build the shard's
// FirstLevelState, zero out every out-of-range λ (support 0 means the
// partition scheduler never visits it), and inject the masked state
// through the FirstLevelConsumer seam. In-range partitions see exactly
// the members they would in the unsharded database, so per-shard results
// are exact — and because shards own disjoint first-item ranges and
// PatternSet orders by the comparative order (position 0 first), merging
// per-shard sets in ascending λ order reproduces the unsharded result
// byte-identically (tests/shard_merge_test.cc). A run that stops early
// (cancel / deadline / I/O error on a later shard) returns the merged
// prefix with the stop status — the same comparative-order-prefix
// contract the parallel miners give (docs/ROBUSTNESS.md).
//
// MineShardFiles is the out-of-core path: shards packed by PackShards are
// mapped one at a time (seq/storage.h), so peak memory is one shard plus
// its mining state, never the corpus.
#ifndef DISC_CORE_SHARD_H_
#define DISC_CORE_SHARD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "disc/algo/miner.h"
#include "disc/common/status.h"
#include "disc/seq/database.h"
#include "disc/seq/storage.h"
#include "disc/seq/types.h"

namespace disc {

/// One shard's λ-range assignment (inclusive bounds).
struct ShardSpec {
  std::uint32_t index = 0;
  Item lambda_lo = 1;
  Item lambda_hi = 1;
};

/// A full shard assignment: contiguous ranges covering [1, max(1,
/// max_item)] in index order.
struct ShardPlan {
  std::vector<ShardSpec> shards;
  std::uint64_t total_customers = 0;  ///< |D| of the unsharded corpus
  Item max_item = 0;
};

/// Splits the alphabet into at most `shard_count` contiguous λ-ranges,
/// balanced by first-level partition size (sum of item supports), which
/// tracks per-shard mining work far better than equal-width ranges. The
/// plan never has more shards than alphabet values: the returned count is
/// min(shard_count, max(1, max_item)). `shard_count` must be >= 1.
ShardPlan PlanShards(const SequenceDatabase& db, std::uint32_t shard_count);

/// Materializes one shard: every sequence of `db` containing at least one
/// item in [spec.lambda_lo, spec.lambda_hi], whole, in CID order.
SequenceDatabase ExtractShard(const SequenceDatabase& db,
                              const ShardSpec& spec);

/// Path of shard `index` of `count` for output base `base`:
/// "<base minus .dsa>.shard<index>of<count>.dsa".
std::string ShardPath(const std::string& base, std::uint32_t index,
                      std::uint32_t count);

/// Plans, extracts, and writes every shard of `db` next to `base` (each
/// via SaveDsa, so faults never leave partial files). On success `paths`
/// (optional) receives the shard file paths in index order.
Status PackShards(const SequenceDatabase& db, const std::string& base,
                  std::uint32_t shard_count,
                  std::vector<std::string>* paths = nullptr);

/// Mines one already-loaded shard for its λ-range only, by masking the
/// shard's FirstLevelState outside [lambda_lo, lambda_hi] and injecting
/// it through the miner's FirstLevelConsumer seam. kInvalidArgument when
/// the miner does not consume first-level state (the seam is how the
/// restriction happens). Exact for in-range patterns.
MineResult MineShardRange(Miner& miner, const SequenceDatabase& shard_db,
                          const MineOptions& options, Item lambda_lo,
                          Item lambda_hi);

/// Out-of-core sharded mine: maps the given shard files one at a time (in
/// the given order, which must be index order — validated against each
/// header's shard metadata, including contiguous λ coverage), mines each
/// for its recorded λ-range with `miner_name`, and moves each shard's
/// patterns into the merged set. Peak memory is one shard. Byte-identical
/// to mining the packed database unsharded with the same miner and
/// options; on an early stop the merged set is the comparative-order
/// prefix up to the stopped shard.
MineResult MineShardFiles(const std::vector<std::string>& paths,
                          const std::string& miner_name,
                          const MineOptions& options);

}  // namespace disc

#endif  // DISC_CORE_SHARD_H_
