// The Dynamic DISC-all algorithm (paper Appendix): recursive multi-level
// partitioning that switches to the DISC strategy per partition, as soon as
// the partition's non-reduction rate (NRR, Equation 2) reaches the γ
// threshold.
//
// For a <λ>-partition X (|λ| = k) the algorithm finds the frequent
// (k+1)-sequences with prefix λ (one counting-array scan), computes
//   NRR_X = (1/N) * Σ_children support(child) / |X|
// ("the simplest way" of §4.2: a child partition's size is its pattern's
// support), and either descends into the child partitions (NRR < γ) or runs
// the DISC loop for all remaining lengths (NRR >= γ). The original database
// is the <>-partition with k = 0, so frequent 1-sequences fall out of the
// same code path.
//
// A root child ⟨(x)⟩-partition is exactly the customer sequences containing
// the frequent item x, so the first-level children are statically determined
// and independently minable: at every thread count the partition scheduler
// (core/scheduler.h) mines them — in ascending order on the calling thread,
// or largest-first on a thread pool when MineOptions::threads > 1 (see
// docs/PARALLELISM.md) — and the per-child results merge in comparative
// order, producing a PatternSet identical to the serial recursion.
//
// The recursion is DISC-all's (core/partition_recursion.h) with the NRR
// split rule: every root child is reduced as in DISC-all's level 1, which
// the appendix does not do and which changes no output (DESIGN.md
// deviation 6).
#ifndef DISC_CORE_DYNAMIC_DISC_ALL_H_
#define DISC_CORE_DYNAMIC_DISC_ALL_H_

#include <memory>
#include <utility>

#include "disc/algo/miner.h"
#include "disc/core/first_level.h"

namespace disc {

/// Dynamic DISC-all miner. See file comment.
class DynamicDiscAll : public Miner, public FirstLevelConsumer {
 public:
  struct Config {
    /// Maximum-NRR threshold γ: partitions with NRR below it are split
    /// further; others switch to DISC. γ <= 0 degenerates to pure DISC
    /// after level 0 (the root does not split); γ > 1 partitions all the
    /// way down (pure pattern-growth).
    double gamma = 0.5;
    /// Bi-level DISC passes, as in the paper's experiments.
    bool bilevel = true;
    /// When >= 0, ignore gamma and partition to exactly this many levels
    /// before switching to DISC ("the number of levels should be adaptive"
    /// — §3.1; this knob makes the static depth an ablation axis: 0 = pure
    /// DISC from length 2, 2 = DISC-all's two-level scheme, large = pure
    /// pattern growth).
    std::int32_t fixed_levels = -1;
  };

  DynamicDiscAll() : DynamicDiscAll(Config{}) {}
  explicit DynamicDiscAll(const Config& config) : config_(config) {}

  std::string name() const override { return "dynamic-disc-all"; }

  /// Accepts precomputed first-level state (core/first_level.h): the root
  /// level of the next DoMine() reuses the cached item supports (the
  /// frequent 1-sequences and the root NRR arithmetic need nothing else)
  /// and takes the static root children straight from the cached partition
  /// memberships. Deeper levels are prefix-dependent and always scan. The
  /// state must match the mined database (DISC_CHECK). Output is
  /// byte-identical either way; counted by "disc.first_level.reuses".
  void ProvideFirstLevel(
      std::shared_ptr<const FirstLevelState> state) override {
    first_level_ = std::move(state);
  }

 protected:
  // Work accounting lands in last_stats() via the obs registry: counters
  // "dynamic.partitions_split" (partitions that descended),
  // "dynamic.partitions_to_disc" (partitions that switched to DISC),
  // "disc.iterations", the partition counters DISC-all publishes
  // (docs/OBSERVABILITY.md), and the gauge "mine.threads" (resolved worker
  // count).
  PatternSet DoMine(const SequenceDatabase& db,
                    const MineOptions& options) override;

 private:
  Config config_;
  std::shared_ptr<const FirstLevelState> first_level_;
};

}  // namespace disc

#endif  // DISC_CORE_DYNAMIC_DISC_ALL_H_
