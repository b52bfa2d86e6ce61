#include "disc/core/first_level.h"

#include "disc/obs/metrics.h"

namespace disc {
namespace {

DISC_OBS_COUNTER(g_first_level_builds, "disc.first_level.builds");

}  // namespace

std::vector<std::uint32_t> CountItemSupport(const SequenceDatabase& db) {
  std::vector<std::uint32_t> support(db.max_item() + 1, 0);
  ForEachDistinctItem(db,
                      [&support](Cid, std::uint32_t, Item x) { ++support[x]; });
  return support;
}

std::vector<std::vector<FirstLevelMember>> CollectPartitionMembers(
    const SequenceDatabase& db, const std::vector<std::uint32_t>& support,
    std::uint32_t min_support) {
  std::vector<std::vector<FirstLevelMember>> members_of(db.max_item() + 1);
  for (Item x = 1; x <= db.max_item(); ++x) {
    if (support[x] >= min_support) members_of[x].reserve(support[x]);
  }
  ForEachDistinctItem(db, [&](Cid cid, std::uint32_t txn, Item x) {
    if (support[x] >= min_support) members_of[x].push_back({cid, txn});
  });
  return members_of;
}

std::size_t FirstLevelState::SizeBytes() const {
  std::size_t bytes = sizeof(FirstLevelState);
  bytes += item_support.capacity() * sizeof(std::uint32_t);
  bytes += members_of.capacity() * sizeof(std::vector<FirstLevelMember>);
  for (const std::vector<FirstLevelMember>& m : members_of) {
    bytes += m.capacity() * sizeof(FirstLevelMember);
  }
  return bytes;
}

std::shared_ptr<FirstLevelState> BuildFirstLevelState(
    const SequenceDatabase& db) {
  DISC_OBS_INC(g_first_level_builds);
  auto state = std::make_shared<FirstLevelState>();
  state->db_sequences = db.size();
  state->db_total_items = db.TotalItems();
  state->max_item = db.max_item();
  state->db_content_hash = ContentHash(db);
  state->item_support = CountItemSupport(db);
  state->members_of = CollectPartitionMembers(db, state->item_support, 0);
  return state;
}

}  // namespace disc
