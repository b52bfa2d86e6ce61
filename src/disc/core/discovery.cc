#include "disc/core/discovery.h"

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

}  // namespace

DiscoveryResult DiscoverFrequentK(const PartitionMembers& members,
                                  const std::vector<Sequence>& sorted_list,
                                  const DiscoveryOptions& options,
                                  CountingArray* counts) {
  DISC_CHECK(options.k >= 1);
  DISC_CHECK(options.delta >= 1);
  DISC_CHECK(!options.bilevel || counts != nullptr);
  DiscoveryResult result;
  if (sorted_list.empty()) return result;

  KSortedDatabase sd(members, &sorted_list, options.k, options.locative);
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
        counts->Reset();
        for (const std::uint32_t h : handles) {
          const KSortedEntry& e = sd.entry(h);
          ForEachExtension(
              e.seq, pattern,
              [counts, &e](Item x, ExtType type) {
                counts->Add(x, type, e.cid);
              },
              &sd.index(h));
        }
        for (const auto& [x, type] :
             counts->FrequentExtensions(options.delta)) {
          result.frequent_k1.emplace_back(Extend(pattern, x, type),
                                          counts->Count(x, type));
        }
        AttributeSupportIncrements(*counts, options.k + 1);
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
    sd.Advance(handles, CkmsBound{alpha_delta, /*strict=*/frequent});
  }
  return result;
}

}  // namespace disc
