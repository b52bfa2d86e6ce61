#include "disc/core/kms.h"

#include <algorithm>
#include <utility>

#include "disc/common/check.h"
#include "disc/obs/metrics.h"
#include "disc/seq/extension.h"

namespace disc {
namespace {

// Tests whether the walk's sequence contains list entry idx, an entry of
// the group `parent`, and if so lands there: the state gathers the entry's
// extension cursors. The test is one index probe from the parent's ends.
// Every entry the walk lands on gets its cursors, past the bound too: the
// next advance of a past-bound answer queries the same entry at the bound,
// and the gather is all a cache miss there would redo.
bool Land(const KmsWalk& w, std::uint32_t idx, const SupportedGroup& parent,
          KmsScanState* st, KmsTally* tally) {
  const Sequence& entry = (*w.list)[idx];
  ++tally->embed_itemsets;
  const EmbeddingEnds ends = ExtendEnds(parent.parent_ends(), entry, *w.index);
  if (!ends.contained) return false;
  st->index = idx;
  st->full_end = ends.full_end;
  st->prefix_end = ends.prefix_end;
  st->floor = ExtensionFloor{};
  st->s_row = 0;
  st->i_pos = 0;
  st->i_items.clear();
  ForEachItemsetExtensionWithEnds(
      w.s, entry, ends, [st](Item x) { st->i_items.push_back(x); }, w.index);
  std::sort(st->i_items.begin(), st->i_items.end());
  st->i_items.erase(std::unique(st->i_items.begin(), st->i_items.end()),
                    st->i_items.end());
  return true;
}

// The minimum extension of the landed entry under `floor`, advancing the
// cursors to it. Floors only rise per landing, so the cursors only move
// forward.
MinExtension Answer(const SequenceIndex& index, const ExtensionFloor& floor,
                    KmsScanState* st) {
  DISC_DCHECK(floor.s_min >= st->floor.s_min);
  DISC_DCHECK(floor.i_min >= st->floor.i_min);
  st->floor = floor;
  const std::uint32_t s_from = st->full_end == kNoTxn ? 0 : st->full_end + 1;
  st->s_row = index.NextRowFrom(st->s_row, floor.s_min, s_from);
  while (st->i_pos < st->i_items.size() &&
         st->i_items[st->i_pos] < floor.i_min) {
    ++st->i_pos;
  }
  const Item best_s =
      st->s_row < index.NumRows() ? index.RowItem(st->s_row) : kNoItem;
  const Item best_i =
      st->i_pos < st->i_items.size() ? st->i_items[st->i_pos] : kNoItem;
  return MinOfExtensions(best_i, best_s);
}

// The shared walk of Figures 5 and 6: from the bound's prefix entry (or
// entry 0 without a bound) upward, over the member's groups only, the
// first entry the sequence contains that has an extension — floored at
// the bound's prefix entry — gives the answer.
KmsResult Walk(const KmsWalk& w, const CkmsBound* bound, KmsScanState* st,
               KmsTally* tally) {
  const std::uint32_t start = bound != nullptr ? bound->key.prefix : 0;
  ExtensionFloor at_start;
  if (bound != nullptr) {
    // Only extensions of the bound's own prefix are floor-constrained;
    // prefix-compatibility puts every extension of a larger prefix above
    // the bound already.
    const std::pair<Item, ExtType> floor{bound->key.item, bound->key.type};
    at_start = FloorMinItems(&floor, bound->strict);
  }
  const auto answer = [&](std::uint32_t idx) {
    const MinExtension ext = Answer(
        *w.index, idx == start ? at_start : ExtensionFloor{}, st);
    return ext.found ? KmsResult{true, RankKey{idx, ext.item, ext.type}}
                     : KmsResult{};
  };

  std::uint32_t from = start;
  if (bound != nullptr && st->index == start) {
    ++tally->scan_reuses;
    const KmsResult r = answer(start);
    if (r.found) return r;
    from = start + 1;
  }
  const std::span<const SupportedGroup> groups = w.groups->Of(w.member);
  for (; st->group_pos < groups.size(); ++st->group_pos) {
    const SupportedGroup& g = groups[st->group_pos];
    const std::uint32_t end = w.groups->begin[g.group + 1];
    for (std::uint32_t idx = std::max(from, w.groups->begin[g.group]);
         idx < end; ++idx) {
      if (!Land(w, idx, g, st, tally)) continue;
      const KmsResult r = answer(idx);
      if (r.found) return r;
    }
  }
  return KmsResult{};
}

}  // namespace

SupporterGroups SupporterGroups::OneGroup(
    std::uint32_t list_size, const std::vector<EmbeddingEnds>& parent_ends) {
  SupporterGroups g;
  g.begin = {0, list_size};
  g.offsets.reserve(parent_ends.size() + 1);
  g.supported.reserve(parent_ends.size());
  g.offsets.push_back(0);
  for (const EmbeddingEnds& e : parent_ends) {
    DISC_DCHECK(e.contained);
    g.supported.push_back(SupportedGroup{0, e.full_end, e.prefix_end});
    g.offsets.push_back(static_cast<std::uint32_t>(g.supported.size()));
  }
  return g;
}

void SupporterGroups::SetSupporters(
    std::size_t members,
    const std::vector<std::pair<std::uint32_t, SupportedGroup>>& supports) {
  offsets.assign(members + 1, 0);
  for (const auto& [m, g] : supports) ++offsets[m + 1];
  for (std::size_t m = 0; m < members; ++m) offsets[m + 1] += offsets[m];
  // Fill through offsets[m] as member m's write cursor, which leaves it at
  // member m+1's start; shifting restores the starts.
  supported.resize(supports.size());
  for (const auto& [m, g] : supports) supported[offsets[m]++] = g;
  for (std::size_t m = members; m > 0; --m) offsets[m] = offsets[m - 1];
  offsets[0] = 0;
}

void KmsTally::Flush() {
  DISC_OBS_COUNTER(g_initial_scans, "kms.initial_scans");
  DISC_OBS_COUNTER(g_ckms_advances, "kms.ckms_advances");
  DISC_OBS_COUNTER(g_scan_reuses, "kms.scan_reuses");
  DISC_OBS_COUNTER(g_embed_itemsets, "kms.embed_itemsets");
  DISC_OBS_ADD(g_initial_scans, initial_scans);
  DISC_OBS_ADD(g_ckms_advances, ckms_advances);
  DISC_OBS_ADD(g_scan_reuses, scan_reuses);
  DISC_OBS_ADD(g_embed_itemsets, embed_itemsets);
  *this = KmsTally{};
}

KmsResult AprioriKms(const KmsWalk& walk, KmsScanState* state,
                     KmsTally* tally) {
  DISC_DCHECK(state->index == KmsScanState::kNoIndex);
  ++tally->initial_scans;
  return Walk(walk, nullptr, state, tally);
}

KmsResult AprioriCkms(const KmsWalk& walk, const CkmsBound& bound,
                      KmsScanState* state, KmsTally* tally) {
  DISC_DCHECK(bound.key.prefix < walk.list->size());
  ++tally->ckms_advances;
  return Walk(walk, &bound, state, tally);
}

}  // namespace disc
