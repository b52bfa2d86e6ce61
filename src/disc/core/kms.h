// Apriori-KMS and Apriori-CKMS (paper Figures 5 and 6): generation of the
// (conditional) k-minimum subsequence of a customer sequence, restricted to
// k-sequences whose (k-1)-prefix is frequent.
//
// Both walk the sorted list of frequent (k-1)-sequences ("the (k-1)-sorted
// list") from the smallest qualifying entry; for the first entry F that is
// contained in the customer sequence and admits a valid extension, the
// minimum extension of F is the answer — prefix-compatibility of the
// comparative order guarantees no later entry can beat it.
//
// The minimum extension of F is computed from the complete extension sets
// (ScanExtensions), not from "the minimum item right of the leftmost
// matching point" as printed in the paper; the printed rule misses itemset
// extensions reachable only through non-leftmost embeddings (DESIGN.md
// deviation 2). Both functions are verified against brute-force enumeration
// in tests/kms_test.cc.
#ifndef DISC_CORE_KMS_H_
#define DISC_CORE_KMS_H_

#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "disc/core/rank_key.h"
#include "disc/order/compare.h"
#include "disc/seq/extension.h"
#include "disc/seq/index.h"
#include "disc/seq/sequence.h"
#include "disc/seq/view.h"

namespace disc {

/// Result of a k-minimum generation.
struct KmsResult {
  /// False when the sequence admits no qualifying k-subsequence (the
  /// customer sequence leaves the k-sorted database).
  bool found = false;
  /// The (conditional) k-minimum subsequence, as a key over the sorted
  /// list; key.prefix is the paper's "apriori pointer".
  RankKey key;
};

/// Reusable per-customer-sequence advance state: the complete extension
/// sets of the last sorted-list prefix scanned for this sequence. The sets
/// depend only on the immutable (sequence, prefix) pair, so when
/// consecutive (C)KMS generations land on the same prefix index — the
/// common case, since a bucket advance usually only changes the bound's
/// tail — the floored minimum is answered by binary search into the cached
/// sets ("kms.scan_reuses") instead of re-walking the customer
/// sequence. Only the single last-scanned entry is worth caching: the
/// apriori pointer is monotone, so every entry past it is scanned at most
/// once per pass (a full per-entry memo was tried and never hit). The state
/// is tied to one sorted list; the k-sorted database owns one per entry and
/// discards it with the pass.
struct KmsScanState {
  static constexpr std::uint32_t kNoIndex =
      std::numeric_limits<std::uint32_t>::max();
  std::uint32_t sets_index = kNoIndex;  ///< sorted-list index of the cache
  ExtensionSets sets;  ///< ScanExtensions(s, list[sets_index])
};

/// The k-minimum subsequence of s whose (k-1)-prefix appears in
/// `sorted_list` (frequent (k-1)-sequences, ascending). Figure 5.
/// `index`, when provided, must be built from s. `state`, when provided,
/// caches the winning prefix's embedding for the next AprioriCkms call.
KmsResult AprioriKms(SequenceView s,
                     const std::vector<Sequence>& sorted_list,
                     const SequenceIndex* index = nullptr,
                     KmsScanState* state = nullptr);

/// A condition k-sequence (paper Definition 2.5) and its Ω.
struct CkmsBound {
  RankKey key;          ///< the condition k-sequence, over the sorted list
  bool strict = false;  ///< Ω: '>' when true, '>=' else
};

/// The conditional k-minimum subsequence of s (Definition 2.5): minimum
/// qualifying k-subsequence that compares > bound (strict) or >= bound.
/// Figure 6. Steps 4-7 walk the apriori pointer up to the first list entry
/// at or above the bound's prefix; with rank keys that entry is
/// bound.key.prefix itself, so the scan starts there. (Every entry the DISC
/// loop advances holds a key at most the bound, so its own pointer never
/// lies past it.) `state` caches the at-bound entry's extension sets across
/// calls (see KmsScanState).
KmsResult AprioriCkms(SequenceView s,
                      const std::vector<Sequence>& sorted_list,
                      const CkmsBound& bound,
                      const SequenceIndex* index = nullptr,
                      KmsScanState* state = nullptr);

}  // namespace disc

#endif  // DISC_CORE_KMS_H_
