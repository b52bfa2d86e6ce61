#include "disc/algo/postprocess.h"

#include <map>
#include <vector>

#include "disc/seq/containment.h"

namespace disc {
namespace {

// Buckets patterns by length, ascending, for superset probing.
std::map<std::uint32_t, std::vector<const Sequence*>> ByLength(
    const PatternSet& patterns,
    std::map<const Sequence*, std::uint32_t>* supports) {
  std::map<std::uint32_t, std::vector<const Sequence*>> buckets;
  for (const auto& [p, sup] : patterns) {
    buckets[p.Length()].push_back(&p);
    if (supports != nullptr) supports->emplace(&p, sup);
  }
  return buckets;
}

}  // namespace

PatternSet MaximalPatterns(const PatternSet& patterns) {
  PatternSet out;
  const auto buckets = ByLength(patterns, nullptr);
  for (const auto& [len, group] : buckets) {
    for (const Sequence* p : group) {
      bool dominated = false;
      // Only strictly longer patterns can strictly contain p.
      for (auto it = buckets.upper_bound(len);
           it != buckets.end() && !dominated; ++it) {
        for (const Sequence* super : it->second) {
          if (Contains(*super, *p)) {
            dominated = true;
            break;
          }
        }
      }
      if (!dominated) out.Add(*p, patterns.SupportOf(*p));
    }
  }
  return out;
}

PatternSet ClosedPatterns(const PatternSet& patterns) {
  PatternSet out;
  std::map<const Sequence*, std::uint32_t> supports;
  const auto buckets = ByLength(patterns, &supports);
  for (const auto& [len, group] : buckets) {
    for (const Sequence* p : group) {
      const std::uint32_t sup = supports[p];
      bool absorbed = false;
      for (auto it = buckets.upper_bound(len);
           it != buckets.end() && !absorbed; ++it) {
        for (const Sequence* super : it->second) {
          if (supports[super] == sup && Contains(*super, *p)) {
            absorbed = true;
            break;
          }
        }
      }
      if (!absorbed) out.Add(*p, sup);
    }
  }
  return out;
}

PatternSummary Summarize(const PatternSet& patterns,
                         bool count_maximal_closed) {
  PatternSummary s;
  s.total = patterns.size();
  if (count_maximal_closed) {
    s.maximal = MaximalPatterns(patterns).size();
    s.closed = ClosedPatterns(patterns).size();
  }
  s.max_length = patterns.MaxLength();
  for (const auto& [p, sup] : patterns) {
    (void)p;
    if (sup > s.max_support) s.max_support = sup;
  }
  return s;
}

}  // namespace disc
