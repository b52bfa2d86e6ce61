#include "disc/core/kms.h"

#include "disc/common/check.h"
#include "disc/obs/metrics.h"
#include "disc/seq/extension.h"

namespace disc {
namespace {

DISC_OBS_COUNTER(g_initial_scans, "kms.initial_scans");
DISC_OBS_COUNTER(g_ckms_advances, "kms.ckms_advances");
DISC_OBS_COUNTER(g_scan_reuses, "kms.scan_reuses");

// Extension sets of sorted_list[idx] in s through the scan-state cache: a
// hit answers min-extension queries by binary search, skipping both the
// embedding walk and the extension scan. Misses gather into the state's
// vectors, reusing their capacity.
const ExtensionSets& SetsFor(SequenceView s, const Sequence& prefix,
                             std::uint32_t idx, const SequenceIndex* index,
                             KmsScanState* state) {
  if (state->sets_index == idx) {
    DISC_OBS_INC(g_scan_reuses);
    return state->sets;
  }
  ScanExtensionsWithEnds(s, prefix, LeftmostEnds(s, prefix, index), index,
                         &state->sets);
  state->sets_index = idx;
  return state->sets;
}

// One scanned entry of a (C)KMS walk: the minimum extension of
// sorted_list[idx] within s, floored when the entry sits at the bound's
// prefix. Only the floored query consults the scan-state cache — it is the
// one that repeats (successive advances against the same at-bound entry
// with a tightening floor); entries past the bound are each scanned at most
// once per pass, so for them the gather would cost more than the
// allocation-free scan it replaces.
MinExtension ScanEntry(SequenceView s, const Sequence& prefix,
                       std::uint32_t idx,
                       const std::pair<Item, ExtType>* floor, bool strict,
                       const SequenceIndex* index, KmsScanState* state) {
  if (state != nullptr && floor != nullptr) {
    return MinExtensionFromSets(SetsFor(s, prefix, idx, index, state), floor,
                                strict);
  }
  const EmbeddingEnds ends = LeftmostEnds(s, prefix, index);
  if (!ends.contained) return MinExtension{};
  return MinExtensionWithEnds(s, prefix, ends, floor, strict, index);
}

}  // namespace

KmsResult AprioriKms(SequenceView s,
                     const std::vector<Sequence>& sorted_list,
                     const SequenceIndex* index, KmsScanState* state) {
  DISC_OBS_INC(g_initial_scans);
  for (std::uint32_t idx = 0; idx < sorted_list.size(); ++idx) {
    const MinExtension ext =
        ScanEntry(s, sorted_list[idx], idx, nullptr, false, index, state);
    if (ext.found) return KmsResult{true, RankKey{idx, ext.item, ext.type}};
  }
  return KmsResult{};
}

KmsResult AprioriCkms(SequenceView s,
                      const std::vector<Sequence>& sorted_list,
                      const CkmsBound& bound, const SequenceIndex* index,
                      KmsScanState* state) {
  DISC_OBS_INC(g_ckms_advances);
  DISC_DCHECK(bound.key.prefix < sorted_list.size());
  // Only extensions of the bound's own prefix are floor-constrained;
  // prefix-compatibility puts every extension of a larger prefix above the
  // bound already.
  const std::pair<Item, ExtType> floor{bound.key.item, bound.key.type};
  for (std::uint32_t idx = bound.key.prefix; idx < sorted_list.size();
       ++idx) {
    const bool at_bound = idx == bound.key.prefix;
    const MinExtension ext =
        ScanEntry(s, sorted_list[idx], idx, at_bound ? &floor : nullptr,
                  at_bound && bound.strict, index, state);
    if (ext.found) return KmsResult{true, RankKey{idx, ext.item, ext.type}};
  }
  return KmsResult{};
}

}  // namespace disc
