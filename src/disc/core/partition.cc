#include "disc/core/partition.h"

#include <stdexcept>
#include <utility>

#include "disc/common/check.h"
#include "disc/common/failpoint.h"
#include "disc/core/discovery.h"
#include "disc/seq/containment.h"

namespace disc {

void ChildSlots::Build(const std::vector<std::pair<Item, ExtType>>& freq) {
  for (const std::size_t e : built_) slot_[e] = 0;
  built_.clear();
  if (freq.empty()) return;
  const std::size_t entries =
      2 * (static_cast<std::size_t>(freq.back().first) + 1);
  if (slot_.size() < entries) slot_.resize(entries, 0);
  for (std::size_t j = 0; j < freq.size(); ++j) {
    const std::size_t e = 2 * static_cast<std::size_t>(freq[j].first) +
                          static_cast<std::size_t>(freq[j].second);
    slot_[e] = static_cast<std::uint32_t>(j + 1);
    built_.push_back(e);
  }
}

bool ChildSlots::Enroll(
    SequenceView s, const Sequence& prefix, const SequenceIndex* index,
    std::uint32_t member,
    std::vector<std::vector<std::uint32_t>>* children) const {
  bool enrolled = false;
  ForEachExtension(s, prefix, [&](Item x, ExtType type) {
    const std::size_t e =
        2 * static_cast<std::size_t>(x) + static_cast<std::size_t>(type);
    if (e >= slot_.size() || slot_[e] == 0) return;
    // The scan repeats extensions; the member's own last append dedups it.
    std::vector<std::uint32_t>& child = (*children)[slot_[e] - 1];
    if (!child.empty() && child.back() == member) return;
    child.push_back(member);
    enrolled = true;
  }, index);
  return enrolled;
}

namespace {

// Minimum point of a <(λ)>-partition member: the leftmost transaction
// containing λ (a member is a customer sequence that contains λ, so it
// exists).
std::uint32_t MinTxnOf(SequenceView s, Item lambda) {
  for (std::uint32_t t = 0; t < s.NumTransactions(); ++t) {
    if (s.TxnContains(t, lambda)) return t;
  }
  return kNoTxn;
}

// The per-occurrence keep rule (Figure 2, step 2.1.2): whether occurrence x
// in transaction t survives the reduction.
inline bool KeepOccurrence(Item x, Item lambda, bool has_lambda,
                           bool at_min_txn, const CountingArray& counts2,
                           std::uint32_t delta) {
  if (x == lambda) {
    // All occurrences of λ are kept: they may anchor longer patterns.
    return true;
  }
  const bool s_freq =
      counts2.Count(x, ExtType::kSequence) >= delta;  // <(λ)(x)>
  const bool i_freq =
      counts2.Count(x, ExtType::kItemset) >= delta;  // <(λx)>
  if (!has_lambda) {
    return s_freq;  // only the sequence form can use this occurrence
  }
  if (at_min_txn) {
    return i_freq;  // only the itemset form can use this occurrence
  }
  return s_freq || i_freq;
}

}  // namespace

Sequence ReduceCustomerSequence(SequenceView s, Item lambda,
                                const CountingArray& counts2,
                                std::uint32_t delta) {
  const std::uint32_t min_txn = MinTxnOf(s, lambda);
  DISC_CHECK_MSG(min_txn != kNoTxn, "partition member lacks its λ");

  Sequence out;
  std::vector<Item> kept;
  for (std::uint32_t t = min_txn; t < s.NumTransactions(); ++t) {
    const bool has_lambda = s.TxnContains(t, lambda);
    kept.clear();
    for (const Item* p = s.TxnBegin(t); p != s.TxnEnd(t); ++p) {
      if (KeepOccurrence(*p, lambda, has_lambda, t == min_txn, counts2,
                         delta)) {
        kept.push_back(*p);
      }
    }
    if (!kept.empty()) out.AppendItemset(Itemset(kept));
  }
  return out;
}

std::uint32_t ReduceCustomerSequenceInto(SequenceView s, Item lambda,
                                         std::uint32_t min_txn,
                                         const CountingArray& counts2,
                                         std::uint32_t delta,
                                         std::uint32_t min_length,
                                         SequenceArena* out) {
  DISC_DCHECK(min_txn == MinTxnOf(s, lambda));

  // Kept items stream straight into the scratch arena; a kept subset of a
  // sorted transaction is itself sorted, so the arena's build invariant
  // holds without re-sorting.
  out->BeginSequence();
  std::uint32_t length = 0;
  for (std::uint32_t t = min_txn; t < s.NumTransactions(); ++t) {
    const bool has_lambda = s.TxnContains(t, lambda);
    bool wrote = false;
    for (const Item* p = s.TxnBegin(t); p != s.TxnEnd(t); ++p) {
      if (KeepOccurrence(*p, lambda, has_lambda, t == min_txn, counts2,
                         delta)) {
        out->AppendItem(*p);
        wrote = true;
        ++length;
      }
    }
    if (wrote) out->EndTransaction();
  }
  out->EndSequence();
  if (length < min_length) {
    out->PopBack();
    return 0;
  }
  return length;
}

void RunDiscLoop(const PartitionMembers& members,
                 std::vector<Sequence> sorted_list,
                 const std::vector<EmbeddingEnds>& prefix_ends,
                 std::uint32_t start_k, std::uint32_t delta, bool bilevel,
                 std::uint32_t max_length, CountingArray* counts,
                 PatternSet* out, bool locative) {
  DISC_CHECK(prefix_ends.size() == members.size());
  // Fault-injection hook covering the DISC k-loop, which both miners reach
  // wherever their partition recursion stops splitting.
  if (DISC_FAILPOINT("disc.loop") == failpoint::Action::kError) {
    throw std::runtime_error("failpoint disc.loop");
  }
  SupporterGroups groups = SupporterGroups::OneGroup(
      static_cast<std::uint32_t>(sorted_list.size()), prefix_ends);
  std::uint32_t k = start_k;
  while (!sorted_list.empty() && members.size() >= delta &&
         (max_length == 0 || k <= max_length)) {
    DiscoveryOptions opt;
    opt.k = k;
    opt.delta = delta;
    opt.bilevel = bilevel && (max_length == 0 || k + 1 <= max_length);
    opt.locative = locative;
    DiscoveryResult res =
        DiscoverFrequentK(members, sorted_list, opt, counts, groups);
    groups = std::move(res.next_groups);
    for (const auto& [p, sup] : res.frequent_k) out->Add(p, sup);
    for (const auto& [p, sup] : res.frequent_k1) out->Add(p, sup);
    sorted_list.clear();
    const auto& next = opt.bilevel ? res.frequent_k1 : res.frequent_k;
    sorted_list.reserve(next.size());
    for (const auto& [p, sup] : next) {
      (void)sup;
      sorted_list.push_back(p);
    }
    k += opt.bilevel ? 2 : 1;
  }
}

}  // namespace disc
