#include "disc/core/weighted.h"

#include <deque>

#include "disc/common/check.h"
#include "disc/core/first_level.h"
#include "disc/core/kms.h"
#include "disc/core/locative_avl.h"
#include "disc/seq/containment.h"
#include "disc/seq/extension.h"
#include "disc/seq/index.h"

namespace disc {
namespace {

struct Entry {
  SequenceView seq;
  const SequenceIndex* index;
  double weight;
};

// One weighted DISC pass: all weighted-frequent k-sequences over `entries`
// whose (k-1)-prefix is in `sorted_list`.
std::vector<std::pair<Sequence, double>> DiscoverWeightedK(
    const std::vector<Entry>& members, const std::vector<Sequence>& list,
    double min_weight) {
  std::vector<std::pair<Sequence, double>> out;
  if (list.empty()) return out;

  std::vector<Entry> entries;
  std::vector<KmsScanState> states;  // parallel to entries
  entries.reserve(members.size());
  states.reserve(members.size());
  LocativeAvlTree tree;
  for (const Entry& m : members) {
    KmsScanState state;
    const KmsResult r = AprioriKms(m.seq, list, m.index, &state);
    if (!r.found) continue;
    entries.push_back(m);
    states.push_back(std::move(state));
    tree.Insert(r.key, static_cast<std::uint32_t>(entries.size() - 1),
                m.weight);
  }

  std::vector<std::uint32_t> handles;
  while (tree.TotalWeight() >= min_weight) {
    const RankKey alpha1 = tree.MinKey();
    const RankKey alpha_delta = tree.SelectKeyByWeight(min_weight);
    handles.clear();
    const bool frequent = alpha1 == alpha_delta;
    if (frequent) {
      tree.PopMinBucket(&handles);
      double weight = 0.0;
      for (const std::uint32_t h : handles) weight += entries[h].weight;
      DISC_DCHECK(weight >= min_weight - 1e-6 * (1.0 + min_weight));
      out.emplace_back(KeySequence(list, alpha1), weight);
    } else {
      tree.PopAllLess(alpha_delta, &handles);
      DISC_CHECK(!handles.empty());
    }
    const CkmsBound bound{alpha_delta, /*strict=*/frequent};
    for (const std::uint32_t h : handles) {
      const Entry& e = entries[h];
      const KmsResult r =
          AprioriCkms(e.seq, list, bound, e.index, &states[h]);
      if (r.found) tree.Insert(r.key, h, e.weight);
    }
  }
  return out;
}

}  // namespace

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
  ForEachDistinctItem(db, [&](Cid cid, Item x) {
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

  // Zero-weight customers cannot contribute and are skipped outright.
  std::deque<SequenceIndex> indexes;
  std::vector<Entry> members;
  for (Cid cid = 0; cid < db.size(); ++cid) {
    if (options.weights[cid] <= 0.0 || db[cid].Empty()) continue;
    indexes.emplace_back(db[cid]);
    members.push_back(
        Entry{db[cid], &indexes.back(), options.weights[cid]});
  }

  // Weighted DISC for k = 2, 3, ... until the weighted-frequent set dries
  // up.
  for (std::uint32_t k = 2; !list.empty(); ++k) {
    if (options.max_length != 0 && k > options.max_length) break;
    const auto frequent_k =
        DiscoverWeightedK(members, list, options.min_weight);
    list.clear();
    for (const auto& [p, w] : frequent_k) {
      out.emplace(p, w);
      list.push_back(p);
    }
  }
  return out;
}

}  // namespace disc
