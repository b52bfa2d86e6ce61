// Common interface implemented by every sequential-pattern miner in the
// library (DISC-all, Dynamic DISC-all, PrefixSpan, Pseudo, GSP, SPADE,
// SPAM), plus a by-name factory for the benchmark drivers.
#ifndef DISC_ALGO_MINER_H_
#define DISC_ALGO_MINER_H_

#include <memory>
#include <string>
#include <vector>

#include "disc/algo/pattern_set.h"
#include "disc/common/cancel.h"
#include "disc/common/status.h"
#include "disc/obs/mine_stats.h"
#include "disc/obs/progress.h"
#include "disc/seq/database.h"

namespace disc {

using obs::MineStats;

/// Mining parameters shared by all algorithms.
struct MineOptions {
  /// A pattern is frequent iff its support count is >= min_support_count.
  /// (The paper's Lemma 2.1 treats delta as an inclusive threshold.)
  /// Must be >= 1.
  std::uint32_t min_support_count = 1;

  /// If non-zero, patterns longer than this are not reported (or explored).
  std::uint32_t max_length = 0;

  /// Worker threads for the partition-scheduled miners ("disc-all",
  /// "disc-all-nobilevel", "dynamic-disc-all"): the independent
  /// first-level ⟨λ⟩-partitions are fanned out largest-first to a thread
  /// pool and the per-partition results merged deterministically, so the
  /// mined PatternSet is identical for every value. 1 (the default) mines
  /// serially on the calling thread; 0 resolves to the hardware
  /// concurrency. The other algorithms ignore the knob.
  std::uint32_t threads = 1;

  /// Optional cooperative cancellation token. Not owned; must outlive the
  /// Mine() call. Polled at partition boundaries — see
  /// docs/ROBUSTNESS.md for the partial-result guarantee.
  CancelToken* cancel = nullptr;

  /// If non-zero, the run stops cooperatively once this many milliseconds
  /// of wall clock have elapsed, returning the partial result with
  /// kDeadlineExceeded.
  std::uint64_t deadline_ms = 0;

  /// Computes the support-count threshold delta for a relative minimum
  /// support (fraction of |db|), as used throughout the paper's evaluation.
  ///
  /// Convention (paper Lemma 2.1): delta is an *inclusive* threshold — a
  /// pattern is frequent iff support >= delta — so this returns
  /// ceil(fraction * db_size), i.e. the smallest count whose relative
  /// support reaches `fraction`. Products that land exactly on an integer
  /// stay there (an epsilon guard absorbs floating-point noise, so e.g.
  /// 0.005 * 200 yields 1, not 2), fraction 1.0 yields db_size, and the
  /// result is clamped to >= 1. `fraction` must be in (0, 1]; 0 aborts.
  static std::uint32_t CountForFraction(std::size_t db_size, double fraction);
};

/// What TryMine returns: the mined patterns plus the run's Status. On a
/// stop (kCancelled / kDeadlineExceeded) or a contained worker failure
/// (kInternal), `patterns` holds the well-defined partial result — every
/// pattern in it has its exact support. For the partition-scheduled
/// miners the partial set is a comparative-order prefix of the full
/// result (docs/ROBUSTNESS.md).
struct MineResult {
  PatternSet patterns;
  Status status;
};

/// Abstract sequential-pattern miner.
///
/// Mine()/TryMine() are template methods: they wrap the algorithm-specific
/// DoMine() with the observability harness (a "mine/<name>" trace span,
/// wall-clock timing, a metrics-registry snapshot diff, and a peak-RSS
/// probe) and the run-control harness (cancellation, deadline, contained
/// failures), so every miner exposes a uniform MineStats and Status
/// without bespoke bookkeeping.
class Miner {
 public:
  virtual ~Miner() = default;

  /// Mines all frequent sequences of `db` under `options`, collecting
  /// last_stats() as a side effect. Recoverable failures come back as a
  /// non-OK Status; invalid options as kInvalidArgument (never an abort).
  MineResult TryMine(const SequenceDatabase& db, const MineOptions& options);

  /// Legacy surface: as TryMine, but returns the patterns alone (partial
  /// on a stop — check last_status()) and aborts on invalid options.
  PatternSet Mine(const SequenceDatabase& db, const MineOptions& options);

  /// Work and resource report of the most recent Mine()/TryMine() call
  /// (empty before the first call). Counter names are catalogued in
  /// docs/OBSERVABILITY.md.
  const MineStats& last_stats() const { return stats_; }

  /// Status of the most recent Mine()/TryMine() call (OK before the
  /// first call).
  const Status& last_status() const { return status_; }

  /// Stable short name ("disc-all", "prefixspan", ...).
  virtual std::string name() const = 0;

 protected:
  /// The algorithm itself, implemented by each miner. Implementations
  /// poll run_control() cooperatively at partition boundaries.
  virtual PatternSet DoMine(const SequenceDatabase& db,
                            const MineOptions& options) = 0;

  /// The active run's stop state; valid only while DoMine() executes
  /// (null outside a run).
  RunControl* run_control() const { return ctl_; }

  /// The active run's live-telemetry handle (obs/progress.h); null outside
  /// a run and when DISC_ENABLE_OBS is off. The partition-scheduled
  /// miners tick it at their cancellation checkpoints.
  obs::RunTelemetry* telemetry() const { return telemetry_.get(); }

 private:
  MineStats stats_;
  Status status_;
  RunControl* ctl_ = nullptr;
  std::shared_ptr<obs::RunTelemetry> telemetry_;
};

/// Creates a miner by name; aborts on an unknown name. Known names:
/// "prefixspan", "pseudo", "gsp", "spade", "spam", "disc-all",
/// "disc-all-nobilevel", "dynamic-disc-all".
std::unique_ptr<Miner> CreateMiner(const std::string& name);

/// Creates a miner by name; kInvalidArgument on an unknown name.
StatusOr<std::unique_ptr<Miner>> TryCreateMiner(const std::string& name);

/// All registered miner names (for --algos=all sweeps).
std::vector<std::string> AllMinerNames();

}  // namespace disc

#endif  // DISC_ALGO_MINER_H_
