#include "disc/algo/pattern_set.h"

#include <iterator>

#include "disc/common/check.h"

namespace disc {

void PatternSet::Add(const Sequence& pattern, std::uint32_t support) {
  DISC_CHECK(!pattern.Empty());
  const auto [it, inserted] = patterns_.emplace(pattern, support);
  if (!inserted) {
    DISC_CHECK_MSG(it->second == support,
                   "pattern reported twice with different supports");
  }
}

void PatternSet::Absorb(PatternSet&& other) {
  auto hint = patterns_.end();
  while (!other.patterns_.empty()) {
    auto node = other.patterns_.extract(other.patterns_.begin());
    const auto it = patterns_.insert(hint, std::move(node));
    // A failed insert (the pattern is already here) leaves `node` owning
    // its element.
    if (!node.empty()) {
      DISC_CHECK_MSG(it->second == node.mapped(),
                     "pattern reported twice with different supports");
    }
    hint = std::next(it);
  }
}

bool PatternSet::Contains(const Sequence& pattern) const {
  return patterns_.count(pattern) > 0;
}

std::uint32_t PatternSet::SupportOf(const Sequence& pattern) const {
  const auto it = patterns_.find(pattern);
  return it == patterns_.end() ? 0 : it->second;
}

std::uint32_t PatternSet::MaxLength() const {
  std::uint32_t max_len = 0;
  for (const auto& [p, sup] : patterns_) {
    (void)sup;
    if (p.Length() > max_len) max_len = p.Length();
  }
  return max_len;
}

std::map<std::uint32_t, std::size_t> PatternSet::CountByLength() const {
  std::map<std::uint32_t, std::size_t> out;
  for (const auto& [p, sup] : patterns_) {
    (void)sup;
    ++out[p.Length()];
  }
  return out;
}

std::vector<Sequence> PatternSet::PatternsOfLength(std::uint32_t k) const {
  std::vector<Sequence> out;
  for (const auto& [p, sup] : patterns_) {
    (void)sup;
    if (p.Length() == k) out.push_back(p);
  }
  return out;
}

void PatternSet::EraseFromFirstItem(Item cutoff) {
  // ⟨(cutoff)⟩ is the comparative-order minimum among all sequences whose
  // first item is >= cutoff: position 0 decides against any first item
  // < cutoff, and the bare 1-sequence precedes every extension of itself.
  Sequence bound;
  bound.AppendNewItemset(cutoff);
  patterns_.erase(patterns_.lower_bound(bound), patterns_.end());
}

std::string PatternSet::Diff(const PatternSet& other,
                             std::size_t max_lines) const {
  std::string out;
  std::size_t lines = 0;
  auto emit = [&](const std::string& line) {
    if (lines < max_lines) out += line;
    ++lines;
  };
  for (const auto& [p, sup] : patterns_) {
    const auto it = other.patterns_.find(p);
    if (it == other.patterns_.end()) {
      emit("only in left:  " + p.ToString() + " #" + std::to_string(sup) + "\n");
    } else if (it->second != sup) {
      emit("support mismatch " + p.ToString() + ": left " + std::to_string(sup) +
           " right " + std::to_string(it->second) + "\n");
    }
  }
  for (const auto& [p, sup] : other.patterns_) {
    if (patterns_.count(p) == 0) {
      emit("only in right: " + p.ToString() + " #" + std::to_string(sup) + "\n");
    }
  }
  if (lines > max_lines) {
    out += "... and " + std::to_string(lines - max_lines) + " more\n";
  }
  return out;
}

std::string PatternSet::ToString() const {
  std::string out;
  for (const auto& [p, sup] : patterns_) {
    out += p.ToString() + " #" + std::to_string(sup) + "\n";
  }
  return out;
}

}  // namespace disc
