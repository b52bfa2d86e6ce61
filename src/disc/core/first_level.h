// Threshold-independent first-level mining state, shared across queries.
//
// DISC's front matter — the per-item support counts and the first-level
// ⟨λ⟩-partition memberships — does not depend on the support threshold delta at all: the ⟨λ⟩-partition is
// *exactly* the customer sequences containing λ (disc_all.h step 2), and a
// query only decides which λ are frequent enough to mine. A resident
// engine serving a minsup sweep therefore computes this state once per
// loaded database and hands it to every subsequent run (engine/engine.h),
// which skips straight to partition mining.
//
// Contract: a FirstLevelState is a pure function of the database it was
// built from, and reusing it never changes which patterns are emitted: the
// mined PatternSet is byte-identical with or without a provided state
// (enforced by tests/engine_test.cc at threads 1 and 4).
#ifndef DISC_CORE_FIRST_LEVEL_H_
#define DISC_CORE_FIRST_LEVEL_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "disc/seq/database.h"
#include "disc/seq/storage.h"
#include "disc/seq/types.h"

namespace disc {

/// Precomputed step-1/step-2 artifacts of one database. Immutable after
/// BuildFirstLevelState; safe to share read-only across pool workers and
/// concurrent engine sessions.
struct FirstLevelState {
  /// Fingerprint of the source database (Matches below): cheap shape
  /// aggregates plus a content hash (ContentHash, seq/storage.h). The hash
  /// matters since the engine's QueryCache became a multi-database LRU that
  /// loads do NOT invalidate — two databases with identical shape
  /// aggregates must not serve each other's state.
  std::size_t db_sequences = 0;
  std::uint64_t db_total_items = 0;
  Item max_item = 0;
  std::uint64_t db_content_hash = 0;

  /// Per-item support: item_support[x] = number of distinct customer
  /// sequences containing x, for every x in [0, max_item] (no threshold
  /// applied — that is the point).
  std::vector<std::uint32_t> item_support;

  /// First-level partition memberships: members_of[x] = the CIDs of the
  /// sequences containing x, ascending. members_of[x].size() ==
  /// item_support[x].
  std::vector<std::vector<Cid>> members_of;

  /// True when this state was built from a database with the same
  /// fingerprint (shape aggregates + content hash). Callers probing several
  /// cached states against one database (engine/query_cache.cc) should
  /// compute ContentHash once and use the two-argument overload.
  bool Matches(const SequenceDatabase& db) const {
    return Matches(db, ContentHash(db));
  }
  /// Matches with the content hash precomputed (`hash = ContentHash(db)`).
  bool Matches(const SequenceDatabase& db, std::uint64_t hash) const {
    return db_sequences == db.size() && db_total_items == db.TotalItems() &&
           max_item == db.max_item() && db_content_hash == hash;
  }

  /// Approximate resident size (elements + vector headers), reported as the
  /// "disc.cache.bytes" gauge by the engine's QueryCache.
  std::size_t SizeBytes() const;
};

/// Calls fn(cid, x) once per distinct item x of each sequence of `db`, in
/// ascending cid order: a per-item stamp of the last cid that reported it
/// skips repeats. The one scan behind every per-item support below.
template <typename Fn>
void ForEachDistinctItem(const SequenceDatabase& db, Fn&& fn) {
  std::vector<Cid> seen(db.max_item() + 1, 0);
  for (Cid cid = 0; cid < db.size(); ++cid) {
    for (const Item x : db[cid].items()) {
      if (seen[x] != cid + 1) {
        seen[x] = cid + 1;
        fn(cid, x);
      }
    }
  }
}

/// Distinct-per-customer support of every item: support[x] = the number of
/// sequences of `db` containing x, for x in [0, db.max_item()]. One scan.
std::vector<std::uint32_t> CountItemSupport(const SequenceDatabase& db);

/// The first-level ⟨x⟩-partitions: members_of[x] = the CIDs of the sequences
/// containing x, ascending, for every x with support[x] >= min_support
/// (`support` from CountItemSupport; the other lists stay empty). One scan.
std::vector<std::vector<Cid>> CollectPartitionMembers(
    const SequenceDatabase& db, const std::vector<std::uint32_t>& support,
    std::uint32_t min_support);

/// Builds the state in two database scans plus one partition-major alphabet
/// sweep (cost: sum over items x of the total length of the ⟨x⟩-partition's
/// sequences — the same order as one reduce pass of a full mine). Bumps the
/// "disc.first_level.builds" counter.
std::shared_ptr<const FirstLevelState> BuildFirstLevelState(
    const SequenceDatabase& db);

/// Seam grown by the miners that can start from precomputed first-level
/// state (DiscAll, DynamicDiscAll). The engine probes for it with a
/// dynamic_cast and injects the cached state before TryMine; a miner
/// without the seam simply recomputes. Providing a state built from a
/// *different* database is a programming error (DISC_CHECK at mine time).
class FirstLevelConsumer {
 public:
  virtual ~FirstLevelConsumer() = default;

  /// Hands the miner a prebuilt state for the database of its next
  /// DoMine() call. Pass nullptr to clear. The state is retained until
  /// replaced.
  virtual void ProvideFirstLevel(
      std::shared_ptr<const FirstLevelState> state) = 0;
};

}  // namespace disc

#endif  // DISC_CORE_FIRST_LEVEL_H_
