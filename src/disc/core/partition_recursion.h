// The partition recursion behind both DISC miners (paper §3.1, Figure 2 and
// the Appendix). The original database is the ⟨⟩-partition at prefix
// length k = 0. A partition at prefix length k counts its frequent
// (k+1)-sequences, then either splits into one child per frequent
// extension or hands every longer length to the DISC loop. The split rule
// is the only thing the miners disagree on:
//
//   * DISC-all splits at a fixed depth of two levels (k = 0 and k = 1),
//     then runs DISC from k = 4 in each ⟨λ₁λ₂⟩-partition;
//   * Dynamic DISC-all splits while the partition's non-reduction rate
//     (NRR, Equation 2) is below γ, or to a fixed depth when configured.
//
// What each level does:
//
//   * Root (k = 0). The frequent 1-sequences come from the item supports
//     (or a provided FirstLevelState). Split, the root's children are the
//     static ⟨(λ)⟩-partitions, mined by the partition scheduler
//     (core/scheduler.h) with one scratch per worker. Unsplit, one DISC run
//     from k = 2 covers the whole database; only this case indexes every
//     customer sequence.
//   * Root child (k = 1), DISC-all's level 1 for both miners. Direct scans
//     of the original sequences count the frequent 2-sequences, and the
//     split is decided on the unreduced member count. Each member is then
//     reduced (Figure 2, step 2.1.2) into the worker's scratch arena, with
//     one occurrence index per survivor. Split, the reduced members enroll
//     in their children (ChildSlots, core/partition.h); unsplit, DISC runs
//     from k = 3 over every survivor.
//   * Deeper (k >= 2). One counting scan over the reduced members finds
//     the frequent (k+1)-sequences and keeps each member's prefix ends.
//     Unsplit, those ends seed DISC from k + 2; split, the members enroll
//     in their children, which recurse.
//
// Reduction keeps every occurrence through which a frequent pattern with
// first item λ can embed, and a member reduced below three items contains
// no frequent pattern of length >= 3, so every support reported below the
// root children is the one the unreduced sequences give (DESIGN.md
// deviation 6).
#ifndef DISC_CORE_PARTITION_RECURSION_H_
#define DISC_CORE_PARTITION_RECURSION_H_

#include <cstdint>

#include "disc/algo/miner.h"
#include "disc/algo/pattern_set.h"
#include "disc/common/cancel.h"
#include "disc/core/first_level.h"
#include "disc/obs/progress.h"
#include "disc/seq/database.h"

namespace disc {

/// How the recursion splits and how its DISC passes run.
struct PartitionPlan {
  /// When >= 0, a partition splits iff its prefix is shorter than this
  /// (DISC-all is 2). Otherwise it splits while its NRR is below `gamma`.
  std::int32_t fixed_levels = 2;
  double gamma = 0.5;
  bool bilevel = true;   ///< DiscoveryOptions::bilevel
  bool locative = true;  ///< DiscoveryOptions::locative
  /// Publish Dynamic DISC-all's split accounting: "dynamic.partitions_split",
  /// "dynamic.partitions_to_disc" and the "dynamic.partition_nrr_x1000"
  /// histogram of every split decision.
  bool dynamic_counters = false;
};

/// Mines every frequent sequence of `db` with the recursion (see file
/// comment). Stops at partition boundaries under `ctl` and merges only the
/// leading run of completed root children, so a stopped run returns an
/// exact byte-prefix of the full result (docs/ROBUSTNESS.md). `tel` may be
/// null. `fl` may be null (the root scans); non-null, it must describe
/// `db` (DISC_CHECK).
PatternSet MinePartitionRecursion(const SequenceDatabase& db,
                                  const MineOptions& options,
                                  const PartitionPlan& plan, RunControl& ctl,
                                  obs::RunTelemetry* tel,
                                  const FirstLevelState* fl);

}  // namespace disc

#endif  // DISC_CORE_PARTITION_RECURSION_H_
