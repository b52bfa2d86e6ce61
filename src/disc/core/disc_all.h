// The DISC-all algorithm (paper §3, Figure 2): two-level partitioning plus
// the DISC strategy.
//
//   1. One database scan finds the frequent 1-sequences and the
//      first-level partitions: the <(λ)>-partition of a frequent λ holds
//      every customer that contains λ (docs/PARALLELISM.md).
//   2. Per <(λ)>-partition with λ frequent: a counting array finds the
//      frequent 2-sequences with prefix λ in one scan; customer sequences
//      are reduced (non-frequent 1-/2-sequences removed) and split into
//      second-level partitions; per second-level partition another
//      counting-array scan finds the frequent 3-sequences, and the DISC
//      strategy (bi-level by default, as in the paper's experiments) finds
//      everything longer. The paper assigns a customer to the partition of
//      its 2-minimum sequence and reassigns it forward after each one; one
//      scan enrolls it in every partition that walk visits (ChildSlots,
//      core/partition.h).
//
// The first-level ⟨λ⟩-partition is exactly the customer sequences
// containing λ, so the partitions are statically determined and
// independently minable: the partition scheduler (core/scheduler.h) mines
// them in ascending order on the calling thread, or largest-first on a
// thread pool when MineOptions::threads > 1 (per-worker scratch state, see
// docs/PARALLELISM.md), and the per-partition results merge in ascending-λ
// order, producing a PatternSet identical to the serial run.
//
// DISC-all is the partition recursion of core/partition_recursion.h with a
// fixed split depth of two levels; Dynamic DISC-all at fixed_levels = 2 does
// the same work.
#ifndef DISC_CORE_DISC_ALL_H_
#define DISC_CORE_DISC_ALL_H_

#include <memory>
#include <utility>

#include "disc/algo/miner.h"
#include "disc/core/first_level.h"

namespace disc {

/// DISC-all frequent-sequence miner. See file comment.
class DiscAll : public Miner, public FirstLevelConsumer {
 public:
  struct Config {
    /// Use the bi-level technique (§3.2): harvest frequent k- and
    /// (k+1)-sequences in one discovery pass. The paper's experiments use
    /// the bi-level version.
    bool bilevel = true;
    /// Keep the k-sorted databases in order with the locative run's
    /// forward merge; false falls back to full re-sorting per DISC
    /// iteration (Ablation C).
    bool locative = true;
  };

  DiscAll() : DiscAll(Config{}) {}
  explicit DiscAll(const Config& config) : config_(config) {}

  std::string name() const override {
    return config_.bilevel ? "disc-all" : "disc-all-nobilevel";
  }

  /// Accepts precomputed first-level state (core/first_level.h): steps 1
  /// and 2 of the next DoMine() reuse the cached supports and partition
  /// memberships instead of rescanning. The state must match the mined
  /// database (DISC_CHECK). Output is byte-identical either way; counted
  /// by "disc.first_level.reuses".
  void ProvideFirstLevel(
      std::shared_ptr<const FirstLevelState> state) override {
    first_level_ = std::move(state);
  }

 protected:
  // Work accounting lands in last_stats() via the obs registry: counters
  // "disc.iterations", "disc.partitions.first_level" /
  // ".second_level", "disc.scratch.reuses", and gauges "mine.threads" and
  // "disc.physical_nrr.level0" / ".level1" (Equation 2 over actual
  // partition sizes, Table 12's "Original" column; a second-level size
  // counts every member the partition is mined with, reassigned ones
  // included, averaged over the non-empty partitions; unset when no
  // partition was processed at that level).
  PatternSet DoMine(const SequenceDatabase& db,
                    const MineOptions& options) override;

 private:
  Config config_;
  std::shared_ptr<const FirstLevelState> first_level_;
};

}  // namespace disc

#endif  // DISC_CORE_DISC_ALL_H_
