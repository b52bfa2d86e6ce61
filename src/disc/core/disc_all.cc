#include "disc/core/disc_all.h"

#include "disc/core/partition_recursion.h"

namespace disc {

PatternSet DiscAll::DoMine(const SequenceDatabase& db,
                           const MineOptions& options) {
  PartitionPlan plan;
  plan.fixed_levels = 2;
  plan.bilevel = config_.bilevel;
  plan.locative = config_.locative;
  return MinePartitionRecursion(db, options, plan, *run_control(),
                                telemetry(), first_level_.get());
}

}  // namespace disc
