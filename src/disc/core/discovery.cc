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
                                  CountingArray* counts,
                                  const SupporterGroups& groups) {
  DISC_CHECK(options.k >= 2);
  DISC_CHECK(options.delta >= 1);
  DISC_CHECK(!options.bilevel || counts != nullptr);
  DiscoveryResult result;
  SupporterGroups& next = result.next_groups;
  next.begin.push_back(0);
  // (member position, group) per supporter of each next-pass group.
  std::vector<std::pair<std::uint32_t, SupportedGroup>> supports;
  if (sorted_list.empty()) {
    next.SetSupporters(members.size(), supports);
    return result;
  }

  KSortedDatabase sd(members, &sorted_list, options.k, options.locative,
                     &groups);
  std::vector<std::uint32_t> handles;
  std::vector<std::pair<Item, ExtType>> frequent_exts;
  // Loop tally, published once when the pass ends.
  std::uint64_t frequent_buckets = 0;

  while (sd.size() >= options.delta) {
    ++result.iterations;
    const RankKey alpha1 = sd.MinKey();
    const RankKey alpha_delta = sd.SelectKey(options.delta);
    const bool frequent = alpha1 == alpha_delta;
    handles.clear();
    if (frequent) {
      // Lemma 2.1: the whole minimum bucket supports α₁ and nothing else
      // does, so the bucket size is the exact support.
      sd.PopMinBucket(&handles);
      DISC_CHECK(handles.size() >= options.delta);
      ++frequent_buckets;
      DISC_OBS_RECORD(g_bucket_size, handles.size());
      Sequence pattern = sd.KeySequence(alpha1);
      // The next pass's group this bucket's supporters get, if any.
      const std::uint32_t group =
          static_cast<std::uint32_t>(next.begin.size() - 1);
      if (options.bilevel) {
        // The bucket is the paper's "virtual partition": count every valid
        // one-item extension of α₁ per supporter to find the frequent
        // (k+1)-sequences with k-prefix α₁ in the same pass. The counting
        // array is idempotent per customer, so the raw (duplicated)
        // extension stream suffices. Each supporter's embedding of α₁ is
        // one probe from the embedding of α₁'s prefix its walk landed on,
        // and gives the parent ends of the group α₁'s frequent extensions
        // form in the next pass.
        counts->Reset();
        const std::size_t first_support = supports.size();
        for (const std::uint32_t h : handles) {
          const KSortedEntry& e = sd.entry(h);
          const EmbeddingEnds ends =
              ExtendEnds(sd.LandedEnds(h, alpha1), pattern, sd.index(h));
          DISC_DCHECK(ends.contained);
          ForEachExtensionWithEnds(
              e.seq, pattern, ends,
              [counts, &e](Item x, ExtType type) {
                counts->Add(x, type, e.cid);
              },
              &sd.index(h));
          supports.emplace_back(
              e.member, SupportedGroup{group, ends.full_end, ends.prefix_end});
        }
        counts->FrequentExtensions(options.delta, &frequent_exts);
        if (frequent_exts.empty()) {
          supports.resize(first_support);  // no group to support
        } else {
          for (const auto& [x, type] : frequent_exts) {
            result.frequent_k1.emplace_back(Extend(pattern, x, type),
                                            counts->Count(x, type));
          }
          next.begin.push_back(
              static_cast<std::uint32_t>(result.frequent_k1.size()));
        }
        AttributeSupportIncrements(*counts, options.k + 1);
      } else {
        // α₁ alone is the next pass's group; its parent is α₁'s prefix,
        // which each supporter's walk landed on.
        for (const std::uint32_t h : handles) {
          const EmbeddingEnds ends = sd.LandedEnds(h, alpha1);
          supports.emplace_back(
              sd.entry(h).member,
              SupportedGroup{group, ends.full_end, ends.prefix_end});
        }
        next.begin.push_back(
            static_cast<std::uint32_t>(result.frequent_k.size() + 1));
      }
      result.frequent_k.emplace_back(
          std::move(pattern), static_cast<std::uint32_t>(handles.size()));
    } else {
      // Lemma 2.2: every k-sequence in [α₁, α_δ) is non-frequent; skip them
      // all by advancing the sub-δ entries to >= α_δ.
      sd.PopAllLess(alpha_delta, &handles);
      DISC_CHECK(!handles.empty());
    }
    // Supporters of a frequent α₁ move strictly past α_δ (== α₁); skipped
    // entries move to >= α_δ.
    sd.Advance(handles, CkmsBound{alpha_delta, /*strict=*/frequent});
  }
  next.SetSupporters(members.size(), supports);
  DISC_OBS_ADD(g_iterations, result.iterations);
  DISC_OBS_ADD(g_frequent_buckets, frequent_buckets);
  DISC_OBS_ADD(g_infrequent_skips, result.iterations - frequent_buckets);
  DISC_OBS_ADD(g_virtual_partitions, options.bilevel ? frequent_buckets : 0);
  return result;
}

}  // namespace disc
