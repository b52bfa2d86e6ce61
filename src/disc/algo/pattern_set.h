// PatternSet: the result of a mining run — every frequent sequence with its
// support count. All algorithms in the library produce this type, which
// makes N-way cross-checking trivial.
#ifndef DISC_ALGO_PATTERN_SET_H_
#define DISC_ALGO_PATTERN_SET_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "disc/order/compare.h"
#include "disc/seq/sequence.h"

namespace disc {

/// Frequent sequences with supports, ordered by the comparative order.
class PatternSet {
 public:
  PatternSet() = default;

  /// Records a pattern. Adding the same pattern twice with different
  /// supports aborts (it would mean a miner double-reported).
  void Add(const Sequence& pattern, std::uint32_t support);

  /// Moves every pattern of `other` into this set (no copy), leaving
  /// `other` empty; a pattern in both must carry the same support, as for
  /// Add. Each insert is hinted at the position after the previous one, so
  /// merging a set whose patterns land contiguously here — a partition's
  /// result into the run's output — costs O(1) per pattern after the first.
  void Absorb(PatternSet&& other);

  /// True if the pattern was recorded.
  bool Contains(const Sequence& pattern) const;

  /// Support of a recorded pattern; 0 if absent.
  std::uint32_t SupportOf(const Sequence& pattern) const;

  std::size_t size() const { return patterns_.size(); }
  bool empty() const { return patterns_.empty(); }

  /// Iteration in ascending comparative order.
  auto begin() const { return patterns_.begin(); }
  auto end() const { return patterns_.end(); }

  /// Length of the longest pattern (0 if empty).
  std::uint32_t MaxLength() const;

  /// Number of patterns of each length.
  std::map<std::uint32_t, std::size_t> CountByLength() const;

  /// Patterns of exactly length k, ascending.
  std::vector<Sequence> PatternsOfLength(std::uint32_t k) const;

  /// Removes every pattern whose first item is >= cutoff. Because the
  /// comparative order compares position 0 first, this erases exactly the
  /// comparative-order suffix starting at ⟨(cutoff)⟩ — what remains is a
  /// prefix of the full set. Used to trim a cancelled parallel run down to
  /// its exact partial result (docs/ROBUSTNESS.md).
  void EraseFromFirstItem(Item cutoff);

  bool operator==(const PatternSet& other) const {
    return patterns_ == other.patterns_;
  }
  bool operator!=(const PatternSet& other) const { return !(*this == other); }

  /// Human-readable difference report (for test failure messages); empty
  /// string when equal. At most `max_lines` discrepancies are listed.
  std::string Diff(const PatternSet& other, std::size_t max_lines = 20) const;

  /// Full dump, one "pattern #support" line per pattern.
  std::string ToString() const;

 private:
  std::map<Sequence, std::uint32_t, SequenceLess> patterns_;
};

}  // namespace disc

#endif  // DISC_ALGO_PATTERN_SET_H_
