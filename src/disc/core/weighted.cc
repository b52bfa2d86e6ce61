#include "disc/core/weighted.h"

#include <deque>
#include <utility>

#include "disc/common/check.h"
#include "disc/core/first_level.h"
#include "disc/core/kms.h"
#include "disc/seq/containment.h"
#include "disc/seq/index.h"

namespace disc {
namespace {

// One weighted DISC pass: all weighted-frequent k-sequences over `members`
// whose (k-1)-prefix is in `list`, walking `groups`, the list's supporter
// groups. A member's cid indexes `weights`. `next` receives the next
// pass's groups: each frequent k-sequence alone, supported by its bucket,
// as in a DISC pass without bi-level (core/discovery.h). Every member
// containing α₁ holds a key at most α₁, the minimum, so the bucket is
// exactly α₁'s supporters whatever the weights.
std::vector<std::pair<Sequence, double>> DiscoverWeightedK(
    const PartitionMembers& members, const std::vector<double>& weights,
    const std::vector<Sequence>& list, const SupporterGroups& groups,
    std::uint32_t k, double min_weight, SupporterGroups* next) {
  std::vector<std::pair<Sequence, double>> out;
  next->begin.assign(1, 0);
  // (member position, group) per supporter of each next-pass group.
  std::vector<std::pair<std::uint32_t, SupportedGroup>> supports;
  KSortedDatabase sd(members, &list, k, /*locative=*/true, &groups);
  std::vector<std::uint32_t> handles;
  for (;;) {
    const std::optional<RankKey> alpha_delta =
        WeightedSelectKey(sd, weights, min_weight);
    if (!alpha_delta) break;
    const RankKey alpha1 = sd.MinKey();
    handles.clear();
    const bool frequent = alpha1 == *alpha_delta;
    if (frequent) {
      sd.PopMinBucket(&handles);
      const std::uint32_t group = static_cast<std::uint32_t>(out.size());
      double weight = 0.0;
      for (const std::uint32_t h : handles) {
        const KSortedEntry& e = sd.entry(h);
        weight += weights[e.cid];
        const EmbeddingEnds ends = sd.LandedEnds(h, alpha1);
        supports.emplace_back(
            e.member, SupportedGroup{group, ends.full_end, ends.prefix_end});
      }
      DISC_DCHECK(weight >= min_weight - 1e-6 * (1.0 + min_weight));
      out.emplace_back(sd.KeySequence(alpha1), weight);
      next->begin.push_back(group + 1);
    } else {
      sd.PopAllLess(*alpha_delta, &handles);
      DISC_CHECK(!handles.empty());
    }
    sd.Advance(handles, CkmsBound{*alpha_delta, /*strict=*/frequent});
  }
  next->SetSupporters(members.size(), supports);
  return out;
}

}  // namespace

std::optional<RankKey> WeightedSelectKey(const KSortedDatabase& sd,
                                         const std::vector<double>& weights,
                                         double min_weight) {
  double mass = 0.0;
  for (const KSortedDatabase::Slot& slot : sd.live()) {
    mass += weights[sd.entry(slot.handle).cid];
    if (mass >= min_weight) return slot.key;
  }
  return std::nullopt;
}

double WeightedSupport(const SequenceDatabase& db,
                       const std::vector<double>& weights,
                       const Sequence& pattern) {
  DISC_CHECK(weights.size() == db.size());
  double total = 0.0;
  for (Cid cid = 0; cid < db.size(); ++cid) {
    if (Contains(db[cid], pattern)) total += weights[cid];
  }
  return total;
}

WeightedPatternSet MineWeighted(const SequenceDatabase& db,
                                const WeightedOptions& options) {
  DISC_CHECK(options.min_weight > 0.0);
  DISC_CHECK_MSG(options.weights.size() == db.size(),
                 "one weight per customer sequence required");
  for (const double w : options.weights) DISC_CHECK(w >= 0.0);

  WeightedPatternSet out;
  if (db.empty()) return out;

  // Weighted-frequent 1-sequences: one scan accumulating distinct items'
  // weights.
  std::vector<double> item_weight(db.max_item() + 1, 0.0);
  ForEachDistinctItem(db, [&](Cid cid, std::uint32_t, Item x) {
    item_weight[x] += options.weights[cid];
  });
  std::vector<Sequence> list;
  for (Item x = 1; x <= db.max_item(); ++x) {
    if (item_weight[x] >= options.min_weight) {
      Sequence p;
      p.AppendNewItemset(x);
      out.emplace(p, item_weight[x]);
      list.push_back(std::move(p));
    }
  }

  // Zero-weight customers cannot contribute and are skipped outright. A
  // member's cid is its position, which indexes `weights`.
  std::deque<SequenceIndex> indexes;
  PartitionMembers members;
  std::vector<double> weights;
  for (Cid cid = 0; cid < db.size(); ++cid) {
    if (options.weights[cid] <= 0.0 || db[cid].Empty()) continue;
    indexes.emplace_back(db[cid]);
    members.push_back({db[cid], &indexes.back(),
                       static_cast<Cid>(members.size())});
    weights.push_back(options.weights[cid]);
  }

  // Weighted DISC for k = 2, 3, ... until the weighted-frequent set dries
  // up. The 1-sequences extend the empty prefix, contained everywhere: the
  // first pass's list is one group under it.
  SupporterGroups groups = SupporterGroups::OneGroup(
      static_cast<std::uint32_t>(list.size()),
      std::vector<EmbeddingEnds>(members.size(), EmbeddingEnds{true}));
  for (std::uint32_t k = 2; !list.empty(); ++k) {
    if (options.max_length != 0 && k > options.max_length) break;
    SupporterGroups next;
    const auto frequent_k = DiscoverWeightedK(
        members, weights, list, groups, k, options.min_weight, &next);
    groups = std::move(next);
    list.clear();
    for (const auto& [p, w] : frequent_k) {
      out.emplace(p, w);
      list.push_back(p);
    }
  }
  return out;
}

}  // namespace disc
