#include "disc/core/discovery.h"

#include <algorithm>
#include <deque>

#include "disc/common/check.h"
#include "disc/core/counting_array.h"
#include "disc/core/ksorted.h"
#include "disc/core/rank_key.h"
#include "disc/obs/metrics.h"
#include "disc/order/compare.h"
#include "disc/seq/extension.h"

namespace disc {
namespace {

DISC_OBS_COUNTER(g_iterations, "disc.iterations");
DISC_OBS_COUNTER(g_frequent_buckets, "disc.frequent_buckets");
DISC_OBS_COUNTER(g_infrequent_skips, "disc.infrequent_skips");
DISC_OBS_COUNTER(g_virtual_partitions, "disc.virtual_partitions");
DISC_OBS_COUNTER(g_bound_presizes, "disc.bound.presizes");
DISC_OBS_HISTOGRAM(g_bucket_size, "disc.bucket_size");

// Attributes the increments of a just-finished counting-array pass to the
// length of the patterns being counted. "k4plus" is the invariant the DISC
// strategy is about: pure DISC never support-counts patterns of length >= 4
// (the bi-level technique's k+1 harvests do, which is why the invariant test
// pins disc-all-nobilevel).
void AttributeSupportIncrements(const CountingArray& counts,
                                std::uint32_t pattern_len) {
#if DISC_OBS_ENABLED
  if (pattern_len >= 4) {
    DISC_OBS_COUNTER(g_k4plus, "support.increments.k4plus");
    DISC_OBS_ADD(g_k4plus, counts.increments_since_reset());
  }
#else
  (void)counts;
  (void)pattern_len;
#endif
}

// Sizing bound for the bi-level counting array: the harvest only counts
// extension items drawn from the member sequences, so their largest item
// suffices (the pass-construction cost is the zero-init of 2·(bound+1)
// entries, and the database-wide max_item can be far larger).
Item BilevelCountsBound(const PartitionMembers& members, Item max_item) {
  Item local = 0;
  for (const PartitionMember& m : members) {
    for (const Item x : m.seq.items()) local = std::max(local, x);
  }
  if (local >= max_item) return max_item;
  DISC_OBS_INC(g_bound_presizes);
  return local;
}

// The re-sort ablation: a flat (key, entry) vector, fully std::sort-ed
// after every advance batch, in place of the locative AVL tree. Same
// semantics, O(n log n) per DISC iteration instead of O(batch · log n).
DiscoveryResult DiscoverFrequentKResort(
    const PartitionMembers& members, const std::vector<Sequence>& sorted_list,
    const DiscoveryOptions& options) {
  DiscoveryResult result;
  struct Slot {
    RankKey key;
    SequenceView seq;
    const SequenceIndex* index;
    Cid cid;
    KmsScanState state;
  };
  std::deque<SequenceIndex> owned;
  std::vector<Slot> slots;
  for (const PartitionMember& m : members) {
    const SequenceIndex* index = m.index;
    if (index == nullptr) {
      owned.emplace_back(m.seq);
      index = &owned.back();
    }
    KmsScanState state;
    const KmsResult r = AprioriKms(m.seq, sorted_list, index, &state);
    if (!r.found) continue;
    slots.push_back({r.key, m.seq, index, m.cid, std::move(state)});
  }
  auto resort = [&slots] {
    std::sort(slots.begin(), slots.end(), [](const Slot& a, const Slot& b) {
      return CompareRankKeys(a.key, b.key) < 0;
    });
  };
  resort();
  CountingArray counts(
      options.bilevel ? BilevelCountsBound(members, options.max_item) : 0);
  while (slots.size() >= options.delta) {
    ++result.iterations;
    DISC_OBS_INC(g_iterations);
    const RankKey alpha1 = slots.front().key;
    const RankKey alpha_delta = slots[options.delta - 1].key;
    const bool frequent = alpha1 == alpha_delta;
    // The affected prefix of the sorted vector: the equal-key run
    // (frequent) or everything below alpha_delta (non-frequent).
    std::size_t cut = 0;
    while (cut < slots.size() &&
           CompareRankKeys(slots[cut].key, alpha_delta) < (frequent ? 1 : 0)) {
      ++cut;
    }
    if (frequent) {
      DISC_OBS_INC(g_frequent_buckets);
      DISC_OBS_RECORD(g_bucket_size, cut);
      Sequence pattern = KeySequence(sorted_list, alpha1);
      if (options.bilevel) {
        DISC_OBS_INC(g_virtual_partitions);
        counts.Reset();
        for (std::size_t i = 0; i < cut; ++i) {
          ForEachExtension(
              slots[i].seq, pattern,
              [&counts, &slots, i](Item x, ExtType type) {
                counts.Add(x, type, slots[i].cid);
              },
              slots[i].index);
        }
        for (const auto& [x, type] :
             counts.FrequentExtensions(options.delta)) {
          result.frequent_k1.emplace_back(Extend(pattern, x, type),
                                          counts.Count(x, type));
        }
        AttributeSupportIncrements(counts, options.k + 1);
      }
      result.frequent_k.emplace_back(std::move(pattern),
                                     static_cast<std::uint32_t>(cut));
    } else {
      DISC_OBS_INC(g_infrequent_skips);
    }
    const CkmsBound bound{alpha_delta, frequent};
    std::size_t keep = 0;
    for (std::size_t i = 0; i < cut; ++i) {
      Slot& s = slots[i];
      const KmsResult r =
          AprioriCkms(s.seq, sorted_list, bound, s.index, &s.state);
      if (!r.found) continue;
      s.key = r.key;
      if (keep != i) std::swap(slots[keep], slots[i]);
      ++keep;
    }
    slots.erase(slots.begin() + keep, slots.begin() + cut);
    resort();
  }
  return result;
}

}  // namespace

DiscoveryResult DiscoverFrequentK(const PartitionMembers& members,
                                  const std::vector<Sequence>& sorted_list,
                                  const DiscoveryOptions& options) {
  DISC_CHECK(options.k >= 1);
  DISC_CHECK(options.delta >= 1);
  DiscoveryResult result;
  if (sorted_list.empty()) return result;
  if (!options.use_avl) {
    return DiscoverFrequentKResort(members, sorted_list, options);
  }

  KSortedDatabase sd(members, &sorted_list, options.k);
  CountingArray counts(
      options.bilevel ? BilevelCountsBound(members, options.max_item) : 0);
  std::vector<std::uint32_t> handles;

  while (sd.size() >= options.delta) {
    ++result.iterations;
    DISC_OBS_INC(g_iterations);
    const RankKey alpha1 = sd.MinKey();
    const RankKey alpha_delta = sd.SelectKey(options.delta);
    const bool frequent = alpha1 == alpha_delta;
    handles.clear();
    if (frequent) {
      // Lemma 2.1: the whole minimum bucket supports α₁ and nothing else
      // does, so the bucket size is the exact support.
      sd.PopMinBucket(&handles);
      DISC_CHECK(handles.size() >= options.delta);
      DISC_OBS_INC(g_frequent_buckets);
      DISC_OBS_RECORD(g_bucket_size, handles.size());
      Sequence pattern = sd.KeySequence(alpha1);
      if (options.bilevel) {
        // The bucket is the paper's "virtual partition": count every valid
        // one-item extension of α₁ per supporter to find the frequent
        // (k+1)-sequences with k-prefix α₁ in the same pass. The counting
        // array is idempotent per customer, so the raw (duplicated)
        // extension stream suffices.
        DISC_OBS_INC(g_virtual_partitions);
        counts.Reset();
        for (const std::uint32_t h : handles) {
          const KSortedEntry& e = sd.entry(h);
          ForEachExtension(
              e.seq, pattern,
              [&counts, &e](Item x, ExtType type) {
                counts.Add(x, type, e.cid);
              },
              &sd.index(h));
        }
        for (const auto& [x, type] :
             counts.FrequentExtensions(options.delta)) {
          result.frequent_k1.emplace_back(Extend(pattern, x, type),
                                          counts.Count(x, type));
        }
        AttributeSupportIncrements(counts, options.k + 1);
      }
      result.frequent_k.emplace_back(
          std::move(pattern), static_cast<std::uint32_t>(handles.size()));
    } else {
      // Lemma 2.2: every k-sequence in [α₁, α_δ) is non-frequent; skip them
      // all by advancing the sub-δ entries to >= α_δ.
      DISC_OBS_INC(g_infrequent_skips);
      sd.PopAllLess(alpha_delta, &handles);
      DISC_CHECK(!handles.empty());
    }
    // Supporters of a frequent α₁ move strictly past α_δ (== α₁); skipped
    // entries move to >= α_δ.
    const CkmsBound bound{alpha_delta, /*strict=*/frequent};
    for (const std::uint32_t h : handles) {
      sd.AdvanceAndReinsert(h, bound);
    }
  }
  return result;
}

}  // namespace disc
