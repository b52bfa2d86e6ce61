// Post-processing of mined pattern sets: maximal and closed pattern
// filtering, and pattern-set summaries. The paper reports "the length of
// the maximal frequent sequences is at least 14" for its densest run
// (§4.1); these helpers compute such summaries from any miner's output.
#ifndef DISC_ALGO_POSTPROCESS_H_
#define DISC_ALGO_POSTPROCESS_H_

#include "disc/algo/pattern_set.h"

namespace disc {

/// The maximal patterns: frequent sequences contained in no other frequent
/// sequence. O(pairs x containment) with length bucketing — intended for
/// result-set sizes, not databases.
PatternSet MaximalPatterns(const PatternSet& patterns);

/// The closed patterns: frequent sequences with no frequent supersequence
/// of the *same support*.
PatternSet ClosedPatterns(const PatternSet& patterns);

/// Summary statistics of a result set. Counting the maximal and closed
/// patterns is quadratic in the pattern count, so it happens only when
/// `count_maximal_closed`; otherwise both stay 0.
struct PatternSummary {
  std::size_t total = 0;
  std::size_t maximal = 0;
  std::size_t closed = 0;
  std::uint32_t max_length = 0;
  std::uint32_t max_support = 0;
};
PatternSummary Summarize(const PatternSet& patterns,
                         bool count_maximal_closed = true);

}  // namespace disc

#endif  // DISC_ALGO_POSTPROCESS_H_
