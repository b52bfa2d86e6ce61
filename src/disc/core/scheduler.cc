#include "disc/core/scheduler.h"

#include <algorithm>
#include <exception>
#include <numeric>
#include <string>

#include "disc/common/check.h"
#include "disc/common/thread_pool.h"
#include "disc/obs/metrics.h"
#include "disc/obs/trace.h"

namespace disc {
namespace {

DISC_OBS_GAUGE(g_mine_threads, "mine.threads");

// Records a partition's exception as the run's one failure status (which
// also stops the run).
void ReportFailure(RunControl& ctl, const std::exception_ptr& err) {
  std::string what = "unknown exception";
  try {
    std::rethrow_exception(err);
  } catch (const std::exception& e) {
    what = e.what();
  } catch (...) {
  }
  ctl.ReportError(Status::Internal("partition mining failed: " + what));
}

}  // namespace

std::size_t PartitionWorkers(std::uint32_t threads, std::size_t partitions) {
  return std::max<std::size_t>(
      1, std::min(ResolveThreadCount(threads), partitions));
}

std::size_t MinePartitions(const std::vector<Item>& ids,
                           const std::vector<std::uint64_t>& weights,
                           std::size_t workers, RunControl& ctl,
                           obs::RunTelemetry* tel, const PartitionFn& mine) {
  DISC_CHECK(weights.size() == ids.size());
  const std::size_t n = ids.size();
  DISC_OBS_SET(g_mine_threads, static_cast<double>(workers));
  if (tel != nullptr) {
    tel->BeginPartitions(
        n, std::accumulate(weights.begin(), weights.end(), std::uint64_t{0}));
  }
  DISC_OBS_SPAN("scheduler/partitions");

  // One flag per partition, written only by the task that mines it and
  // read after the fan-out is over.
  std::vector<char> completed(n, 0);
  // Partitions are all-or-nothing: a stop observed at entry leaves the
  // partition incomplete, so every merged support stays exact.
  const auto run_one = [&](std::size_t i, std::size_t worker) {
    if (ctl.ShouldStop()) return;
    DISC_OBS_SPAN("scheduler/partition");
    if (tel != nullptr) tel->PartitionStarted(ids[i]);
    std::uint64_t patterns = 0;
    try {
      patterns = mine(i, worker);
    } catch (...) {
      if (tel != nullptr) tel->PartitionAborted(ids[i]);
      throw;
    }
    completed[i] = 1;
    if (tel != nullptr) tel->PartitionDone(ids[i], weights[i], patterns);
  };

  if (workers <= 1) {
    for (std::size_t i = 0; i < n && !ctl.stopped(); ++i) {
      try {
        run_one(i, 0);
      } catch (...) {
        ReportFailure(ctl, std::current_exception());
      }
    }
  } else {
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&weights](std::size_t a, std::size_t b) {
                       return weights[a] > weights[b];
                     });
    ThreadPool pool(workers);
    for (const std::size_t i : order) {
      pool.Submit([&run_one, i](std::size_t worker) { run_one(i, worker); });
    }
    pool.Wait();
    // The pool drained the queue after the first throw, so the failed
    // partition and everything still queued are incomplete.
    if (std::exception_ptr err = pool.TakeFirstError()) {
      ReportFailure(ctl, err);
    }
  }
  return static_cast<std::size_t>(
      std::find(completed.begin(), completed.end(), 0) - completed.begin());
}

}  // namespace disc
