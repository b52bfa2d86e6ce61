#include "disc/benchlib/workload.h"

#include <algorithm>
#include <utility>

#include "disc/common/check.h"
#include "disc/common/timer.h"

namespace disc {

QuestParams Fig8Params(std::uint32_t ncust) {
  QuestParams p;
  p.ncust = ncust;
  p.slen = 10.0;
  p.tlen = 2.5;
  p.nitems = 1000;
  p.seq_patlen = 4.0;
  return p;
}

QuestParams Fig9Params(std::uint32_t ncust) {
  QuestParams p;
  p.ncust = ncust;
  p.slen = 8.0;
  p.tlen = 8.0;
  p.nitems = 1000;
  p.seq_patlen = 8.0;
  return p;
}

QuestParams ThetaParams(std::uint32_t ncust, double theta) {
  QuestParams p;
  p.ncust = ncust;
  p.slen = theta;
  p.tlen = 2.5;
  p.nitems = 1000;
  p.seq_patlen = 4.0;
  return p;
}

std::uint32_t ThreadsFromFlags(const Flags& flags) {
  const std::int64_t threads = flags.GetInt("threads", 1);
  DISC_CHECK(threads >= 0);
  return static_cast<std::uint32_t>(threads);
}

std::uint32_t RepeatFromFlags(const Flags& flags) {
  const std::int64_t repeat = flags.GetInt("repeat", 1);
  DISC_CHECK(repeat >= 1);
  return static_cast<std::uint32_t>(repeat);
}

MineTiming TimeMine(Miner* miner, const SequenceDatabase& db,
                    const MineOptions& options) {
  Timer timer;
  const PatternSet result = miner->Mine(db, options);
  MineTiming t;
  t.seconds = timer.Seconds();
  t.num_patterns = result.size();
  t.max_length = result.MaxLength();
  t.stats = miner->last_stats();
  return t;
}

std::vector<std::vector<MineTiming>> TimeMinersRepeated(
    const std::vector<std::string>& miners, const SequenceDatabase& db,
    const MineOptions& options, std::uint32_t repeat) {
  std::vector<std::vector<MineTiming>> runs(miners.size(),
                                            std::vector<MineTiming>(repeat));
  for (std::uint32_t r = 0; r < repeat; ++r) {
    for (std::size_t j = 0; j < miners.size(); ++j) {
      const std::size_t m = (r + j) % miners.size();
      runs[m][r] = TimeMine(CreateMiner(miners[m]).get(), db, options);
    }
  }
  return runs;
}

namespace {

double Median(std::vector<double> v) {
  DISC_CHECK(!v.empty());
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2;
}

}  // namespace

double MedianSeconds(const std::vector<MineTiming>& runs) {
  std::vector<double> seconds;
  for (const MineTiming& t : runs) seconds.push_back(t.seconds);
  return Median(std::move(seconds));
}

double MedianRatio(const std::vector<MineTiming>& num,
                   const std::vector<MineTiming>& den) {
  DISC_CHECK(num.size() == den.size());
  std::vector<double> ratios;
  for (std::size_t r = 0; r < num.size(); ++r) {
    ratios.push_back(num[r].seconds /
                     (den[r].seconds > 0 ? den[r].seconds : 1e-9));
  }
  return Median(std::move(ratios));
}

}  // namespace disc
