// Weighted sequence mining — the paper's §5 future-work application.
//
// Real workloads often weight customers unevenly (page weights in web
// traversal mining, gene importance in DNA analysis): a pattern matters
// when the total *weight* of its supporters reaches a threshold Δ, not
// their count. Counting-based miners need to re-aggregate weights per
// candidate; the DISC strategy transfers directly because both lemmas only
// need "the prefix mass of the k-sorted database up to α_δ": replace the
// δ-th *position* with the smallest key whose cumulative supporter weight
// reaches Δ (WeightedSelectKey, a walk up the k-sorted database's locative
// run) and everything else — k-minimum keys, Apriori-KMS/CKMS over
// supporter groups, the batch advances — is unchanged:
//
//   α₁ == α_Δ  ->  α₁'s bucket alone carries weight >= Δ: weighted-frequent
//                  with exact weight = the bucket's weight sum;
//   α₁ != α_Δ  ->  every k-sequence in [α₁, α_Δ) has supporter weight < Δ.
//
// Weights must be non-negative. With all weights 1 and Δ = δ this is
// exactly the unweighted DISC (property-tested).
#ifndef DISC_CORE_WEIGHTED_H_
#define DISC_CORE_WEIGHTED_H_

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "disc/core/ksorted.h"
#include "disc/core/rank_key.h"
#include "disc/order/compare.h"
#include "disc/seq/database.h"

namespace disc {

/// Options for weighted mining.
struct WeightedOptions {
  /// Per-customer weights; weights[cid] pairs with db[cid]. Must have one
  /// non-negative entry per sequence.
  std::vector<double> weights;
  /// A pattern is frequent iff its supporters' total weight >= min_weight.
  /// Must be > 0.
  double min_weight = 1.0;
  /// If non-zero, patterns longer than this are not explored.
  std::uint32_t max_length = 0;
};

/// Weighted pattern -> total supporter weight, in comparative order.
using WeightedPatternSet = std::map<Sequence, double, SequenceLess>;

/// Mines all weighted-frequent sequences with the DISC strategy.
WeightedPatternSet MineWeighted(const SequenceDatabase& db,
                                const WeightedOptions& options);

/// α_Δ of a weighted pass: the first live key of `sd` whose running
/// supporter weight from the head reaches `min_weight`, where an entry
/// weighs weights[entry.cid]. Every key below it has less weight than
/// that, so it is the smallest key whose prefix weight reaches Δ. Empty
/// when the whole live run weighs less: the pass ends.
std::optional<RankKey> WeightedSelectKey(const KSortedDatabase& sd,
                                         const std::vector<double>& weights,
                                         double min_weight);

/// Brute-force oracle: the total weight of the pattern's supporters.
double WeightedSupport(const SequenceDatabase& db,
                       const std::vector<double>& weights,
                       const Sequence& pattern);

}  // namespace disc

#endif  // DISC_CORE_WEIGHTED_H_
