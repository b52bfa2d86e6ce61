// Threshold-independent first-level mining state, shared across queries.
//
// DISC's front matter — the per-item support counts and the first-level
// ⟨λ⟩-partition memberships — does not depend on the support threshold
// delta at all: the ⟨λ⟩-partition is *exactly* the customer sequences
// containing λ (disc_all.h step 2), and a query only decides which λ are
// frequent enough to mine. Nor does each member's leftmost transaction
// holding λ, its level-1 projection point (PrefixSpan's (sequence, pos)
// pair), where every level-1 scan starts. A resident engine serving a
// minsup sweep therefore computes this state once per loaded database and
// hands it to every subsequent run (engine/engine.h), which skips straight
// to partition mining.
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

/// A member of the ⟨(λ)⟩-partition: a customer sequence containing λ, and
/// the leftmost of its transactions that holds λ. The counting scan, the
/// reduction and PrefixSpan's level-1 projection all start there.
struct FirstLevelMember {
  Cid cid = 0;
  std::uint32_t txn = 0;
  friend bool operator==(const FirstLevelMember&,
                         const FirstLevelMember&) = default;
};

/// Precomputed step-1/step-2 artifacts of one database. Immutable once
/// shared; safe to share read-only across pool workers and concurrent
/// engine sessions.
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

  /// First-level partition memberships: members_of[x] = the sequences
  /// containing x, ascending by CID, each with its first transaction
  /// holding x. members_of[x].size() == item_support[x].
  std::vector<std::vector<FirstLevelMember>> members_of;

  /// True when this state was built from a database with the same
  /// fingerprint (shape aggregates + content hash). ContentHash is O(1) on
  /// a database that caches its hash (an engine-resident or .dsa-loaded
  /// one) and one O(n) walk otherwise; callers probing several cached
  /// states against one database (engine/query_cache.cc) compute it once
  /// and use the two-argument overload.
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

/// Calls fn(cid, txn, x) once per distinct item x of each sequence of `db`,
/// in ascending cid order, with txn the sequence's first transaction
/// holding x: a per-item stamp of the last cid that reported it skips
/// repeats. The one scan behind every per-item support below.
template <typename Fn>
void ForEachDistinctItem(const SequenceDatabase& db, Fn&& fn) {
  std::vector<Cid> seen(db.max_item() + 1, 0);
  for (Cid cid = 0; cid < db.size(); ++cid) {
    const SequenceView s = db[cid];
    for (std::uint32_t t = 0; t < s.NumTransactions(); ++t) {
      for (const Item* p = s.TxnBegin(t); p != s.TxnEnd(t); ++p) {
        if (seen[*p] != cid + 1) {
          seen[*p] = cid + 1;
          fn(cid, t, *p);
        }
      }
    }
  }
}

/// Distinct-per-customer support of every item: support[x] = the number of
/// sequences of `db` containing x, for x in [0, db.max_item()]. One scan.
std::vector<std::uint32_t> CountItemSupport(const SequenceDatabase& db);

/// The first-level ⟨x⟩-partitions: members_of[x] = the sequences
/// containing x, ascending by CID, each with its first transaction holding
/// x, for every x with support[x] >= min_support (`support` from
/// CountItemSupport; the other lists stay empty). One scan.
std::vector<std::vector<FirstLevelMember>> CollectPartitionMembers(
    const SequenceDatabase& db, const std::vector<std::uint32_t>& support,
    std::uint32_t min_support);

/// Builds the state: the content hash (O(1) when `db` caches it), then two
/// database scans, one for the item supports and one for every item's
/// members and their first transactions. Bumps the
/// "disc.first_level.builds" counter. The caller may adjust the state
/// before sharing it (core/shard.cc masks λ-ranges this way).
std::shared_ptr<FirstLevelState> BuildFirstLevelState(
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
