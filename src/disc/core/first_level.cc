#include "disc/core/first_level.h"

#include "disc/obs/metrics.h"

namespace disc {
namespace {

DISC_OBS_COUNTER(g_first_level_builds, "disc.first_level.builds");

}  // namespace

std::vector<std::uint32_t> CountItemSupport(const SequenceDatabase& db) {
  std::vector<std::uint32_t> support(db.max_item() + 1, 0);
  ForEachDistinctItem(db, [&support](Cid, Item x) { ++support[x]; });
  return support;
}

std::vector<std::vector<Cid>> CollectPartitionMembers(
    const SequenceDatabase& db, const std::vector<std::uint32_t>& support,
    std::uint32_t min_support) {
  std::vector<std::vector<Cid>> members_of(db.max_item() + 1);
  for (Item x = 1; x <= db.max_item(); ++x) {
    if (support[x] >= min_support) members_of[x].reserve(support[x]);
  }
  ForEachDistinctItem(db, [&](Cid cid, Item x) {
    if (support[x] >= min_support) members_of[x].push_back(cid);
  });
  return members_of;
}

std::uint64_t FirstLevelState::ContentHash(const SequenceDatabase& db) {
  // The .dsa loader verified this exact hash against the file and cached
  // it on the database (seq/storage.cc), so mapped databases never rescan.
  if (db.has_cached_content_hash()) return db.cached_content_hash();
  // FNV-1a over every sequence's transaction count, itemset sizes, and
  // items. The sizes fold in itemset boundaries, so <(1 2)> and <(1)(2)>
  // hash differently even though their flattened items agree; the
  // transaction count folds in sequence boundaries, so moving a customer
  // boundary between identical transaction streams changes the hash —
  // which is what lets the on-disk format detect a corrupted
  // sequence-offsets section by recomputing this hash alone
  // (docs/STORAGE.md). Must stay bit-for-bit identical to the walk in
  // seq/storage.cc.
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  for (Cid cid = 0; cid < db.size(); ++cid) {
    const SequenceView seq = db[cid];
    mix(seq.NumTransactions());
    for (std::uint32_t t = 0; t < seq.NumTransactions(); ++t) {
      mix(seq.TxnSize(t));
      for (const Item* it = seq.TxnBegin(t); it != seq.TxnEnd(t); ++it) {
        mix(*it);
      }
    }
  }
  return h;
}

std::size_t FirstLevelState::SizeBytes() const {
  std::size_t bytes = sizeof(FirstLevelState);
  bytes += item_support.capacity() * sizeof(std::uint32_t);
  bytes += members_of.capacity() * sizeof(std::vector<Cid>);
  for (const std::vector<Cid>& m : members_of) {
    bytes += m.capacity() * sizeof(Cid);
  }
  return bytes;
}

std::shared_ptr<const FirstLevelState> BuildFirstLevelState(
    const SequenceDatabase& db) {
  DISC_OBS_INC(g_first_level_builds);
  auto state = std::make_shared<FirstLevelState>();
  state->db_sequences = db.size();
  state->db_total_items = db.TotalItems();
  state->max_item = db.max_item();
  state->db_content_hash = FirstLevelState::ContentHash(db);
  state->item_support = CountItemSupport(db);
  state->members_of = CollectPartitionMembers(db, state->item_support, 0);
  return state;
}

}  // namespace disc
