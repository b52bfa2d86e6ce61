#include "disc/core/partition.h"

#include <stdexcept>

#include "disc/common/check.h"
#include "disc/common/failpoint.h"
#include "disc/core/discovery.h"
#include "disc/obs/metrics.h"
#include "disc/seq/containment.h"

namespace disc {

void ExtFilter::Build(
    const std::vector<std::pair<Item, ExtType>>& frequent_exts,
    Item max_item) {
  i_ok_.assign(static_cast<std::size_t>(max_item) + 1, false);
  s_ok_.assign(static_cast<std::size_t>(max_item) + 1, false);
  for (const auto& [x, type] : frequent_exts) {
    DISC_DCHECK(x <= max_item);
    (type == ExtType::kItemset ? i_ok_ : s_ok_)[x] = true;
  }
}

std::optional<std::pair<Item, ExtType>> MinFrequentExt(
    const ExtensionSets& exts, const ExtFilter& filter,
    const std::pair<Item, ExtType>* floor_exclusive) {
  std::optional<std::pair<Item, ExtType>> best;
  auto consider = [&](Item x, ExtType t) {
    if (!filter.IsFrequent(x, t)) return false;
    if (floor_exclusive != nullptr &&
        CompareExtensions(x, t, floor_exclusive->first,
                          floor_exclusive->second) <= 0) {
      return false;
    }
    if (!best.has_value() ||
        CompareExtensions(x, t, best->first, best->second) < 0) {
      best = {x, t};
    }
    return true;
  };
  // Each vector is sorted, so the first qualifying entry per type wins.
  for (const Item x : exts.i_items) {
    if (consider(x, ExtType::kItemset)) break;
  }
  for (const Item x : exts.s_items) {
    if (consider(x, ExtType::kSequence)) break;
  }
  return best;
}

std::optional<std::pair<Item, ExtType>> ScanMinFrequentExt(
    SequenceView s, const Sequence& prefix, const ExtFilter& filter,
    const std::pair<Item, ExtType>* floor_exclusive,
    const SequenceIndex* index) {
  std::optional<std::pair<Item, ExtType>> best;
  ForEachExtension(s, prefix, [&](Item x, ExtType t) {
    if (!filter.IsFrequent(x, t)) return;
    if (floor_exclusive != nullptr &&
        CompareExtensions(x, t, floor_exclusive->first,
                          floor_exclusive->second) <= 0) {
      return;
    }
    if (!best.has_value() ||
        CompareExtensions(x, t, best->first, best->second) < 0) {
      best = {x, t};
    }
  }, index);
  return best;
}

DISC_OBS_COUNTER(g_reduced, "partition.reduced_sequences");

namespace {

// Minimum point of a <(λ)>-partition member: the leftmost transaction
// containing λ (λ is the member's minimum frequent item, so it exists).
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
  DISC_OBS_INC(g_reduced);
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
                                         const CountingArray& counts2,
                                         std::uint32_t delta,
                                         std::uint32_t min_length,
                                         SequenceArena* out) {
  DISC_OBS_INC(g_reduced);
  const std::uint32_t min_txn = MinTxnOf(s, lambda);
  DISC_CHECK_MSG(min_txn != kNoTxn, "partition member lacks its λ");

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
                 std::vector<Sequence> sorted_list, std::uint32_t start_k,
                 std::uint32_t delta, bool bilevel, Item max_item,
                 std::uint32_t max_length, PatternSet* out, bool use_avl) {
  // Fault-injection hook covering the DISC k-loop, which both miners reach
  // (DISC-all per second-level partition, Dynamic DISC-all wherever it
  // stops partitioning).
  if (DISC_FAILPOINT("disc.loop") == failpoint::Action::kError) {
    throw std::runtime_error("failpoint disc.loop");
  }
  std::uint32_t k = start_k;
  while (!sorted_list.empty() && members.size() >= delta &&
         (max_length == 0 || k <= max_length)) {
    DiscoveryOptions opt;
    opt.k = k;
    opt.delta = delta;
    opt.bilevel = bilevel && (max_length == 0 || k + 1 <= max_length);
    opt.max_item = max_item;
    opt.use_avl = use_avl;
    const DiscoveryResult res = DiscoverFrequentK(members, sorted_list, opt);
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
