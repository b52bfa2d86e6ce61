#include "disc/core/dynamic_disc_all.h"

#include "disc/core/partition_recursion.h"

namespace disc {

PatternSet DynamicDiscAll::DoMine(const SequenceDatabase& db,
                                  const MineOptions& options) {
  PartitionPlan plan;
  plan.fixed_levels = config_.fixed_levels;
  plan.gamma = config_.gamma;
  plan.bilevel = config_.bilevel;
  plan.dynamic_counters = true;
  return MinePartitionRecursion(db, options, plan, *run_control(),
                                telemetry(), first_level_.get());
}

}  // namespace disc
