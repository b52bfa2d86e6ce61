// The partition scheduler shared by DISC-all and Dynamic DISC-all.
//
// Both miners split their work into independent first-level partitions
// (DISC-all's ⟨λ⟩-partitions, Dynamic DISC-all's root children) whose
// results merge disjointly in ascending partition order. Everything about
// running those partitions lives here, once:
//
//   * Order. One worker mines the partitions in ascending order on the
//     calling thread (no pool, so the serial run's trace lanes and fail
//     points stay those of a plain loop); more workers mine them
//     largest-first on a ThreadPool, so no huge partition lands last and
//     stretches the tail.
//   * Stop and telemetry. Each partition polls the RunControl stop
//     checkpoint at entry and ticks the RunTelemetry (BeginPartitions once,
//     then PartitionStarted and PartitionDone or PartitionAborted).
//   * Failures. An exception thrown while mining a partition (or by the
//     pool's "pool.task" fail point) is contained: the run's status becomes
//     one kInternal "partition mining failed: <what>", and no further
//     partition starts.
//   * Result. The return value is the length of the leading run of
//     completed partitions. Callers merge exactly those (PatternSet::Absorb)
//     and trim the rest (PatternSet::EraseFromFirstItem), which makes every
//     stopped or failed run an exact byte-prefix of the full result
//     (docs/ROBUSTNESS.md).
//
// Callers own the per-partition miner and the per-worker scratch; the
// scheduler only hands each call the index of the worker running it.
#ifndef DISC_CORE_SCHEDULER_H_
#define DISC_CORE_SCHEDULER_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "disc/common/cancel.h"
#include "disc/obs/progress.h"
#include "disc/seq/types.h"

namespace disc {

/// Worker count for `partitions` independent partitions under a
/// MineOptions::threads request (0 = hardware concurrency): the resolved
/// count capped at the partition count, and at least 1. Callers size their
/// per-worker scratch with it.
std::size_t PartitionWorkers(std::uint32_t threads, std::size_t partitions);

/// Mines partition i on worker `worker` (0 .. workers-1) and returns the
/// number of patterns it found (telemetry only).
using PartitionFn =
    std::function<std::uint64_t(std::size_t i, std::size_t worker)>;

/// Mines partitions 0 .. ids.size()-1 with `workers` workers (see file
/// comment). `ids[i]` labels partition i in the telemetry event log (its
/// first item); `weights[i]` is its cost surrogate (member count), which
/// orders the parallel fan-out largest-first and weights progress. `tel`
/// may be null.
/// Returns how many leading partitions completed: ids.size() unless `ctl`
/// stopped the run or a partition threw.
std::size_t MinePartitions(const std::vector<Item>& ids,
                           const std::vector<std::uint64_t>& weights,
                           std::size_t workers, RunControl& ctl,
                           obs::RunTelemetry* tel, const PartitionFn& mine);

}  // namespace disc

#endif  // DISC_CORE_SCHEDULER_H_
