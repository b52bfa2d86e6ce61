// Shared workload definitions for the benchmark suite: the exact Quest
// parameterizations of the paper's evaluation section (§4), plus timing
// helpers.
#ifndef DISC_BENCHLIB_WORKLOAD_H_
#define DISC_BENCHLIB_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "disc/algo/miner.h"
#include "disc/common/flags.h"
#include "disc/gen/quest.h"
#include "disc/seq/database.h"

namespace disc {

/// Figure 8 / Table 11 setting: slen 10, tlen 2.5, nitems 1K,
/// seq.patlen 4; ncust is the swept variable (paper: 50K-500K).
QuestParams Fig8Params(std::uint32_t ncust);

/// Figure 9 / Tables 12-13 setting (from [8]): slen = tlen = seq.patlen = 8,
/// nitems 1K; paper ncust 10K.
QuestParams Fig9Params(std::uint32_t ncust);

/// Figure 10 / Table 14 setting: nitems 1K, tlen 2.5, seq.patlen 4; the
/// average transactions per customer θ is swept (paper: ncust 50K,
/// θ 10-40, minsup 0.005).
QuestParams ThetaParams(std::uint32_t ncust, double theta);

/// Runs one timed Mine() and reports seconds, the result size, and the
/// full MineStats harvested from the run (for --stats / --json-out).
struct MineTiming {
  double seconds = 0.0;
  std::size_t num_patterns = 0;
  std::uint32_t max_length = 0;
  obs::MineStats stats;
};
MineTiming TimeMine(Miner* miner, const SequenceDatabase& db,
                    const MineOptions& options);

/// Times each miner named in `miners` on `db` for `repeat` rounds. Round r
/// starts at miner r mod |miners| and goes on in list order, so no miner
/// always runs first; one round is the list order. Returns runs[m][r],
/// miner m's timing in round r.
std::vector<std::vector<MineTiming>> TimeMinersRepeated(
    const std::vector<std::string>& miners, const SequenceDatabase& db,
    const MineOptions& options, std::uint32_t repeat);

/// Median seconds of `runs`, the mean of the middle two when their number
/// is even.
double MedianSeconds(const std::vector<MineTiming>& runs);

/// Median over rounds r of num[r].seconds / den[r].seconds: the ratio of
/// two miners timed in the same rounds, a zero denominator read as 1e-9 s.
double MedianRatio(const std::vector<MineTiming>& num,
                   const std::vector<MineTiming>& den);

/// Reads the --repeat=N knob of the paper drivers (default 1): how many
/// rounds TimeMinersRepeated runs per row. Aborts on values below 1.
std::uint32_t RepeatFromFlags(const Flags& flags);

/// Reads the --threads=N knob shared by the drivers into a
/// MineOptions::threads value (default 1 = serial; 0 = hardware
/// concurrency). Aborts on negative values.
std::uint32_t ThreadsFromFlags(const Flags& flags);

}  // namespace disc

#endif  // DISC_BENCHLIB_WORKLOAD_H_
