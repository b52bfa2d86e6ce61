#include "disc/algo/gsp.h"

#include <algorithm>
#include <map>
#include <numeric>
#include <set>

#include "disc/algo/hash_tree.h"
#include "disc/common/check.h"
#include "disc/core/first_level.h"
#include "disc/obs/metrics.h"
#include "disc/order/compare.h"
#include "disc/seq/containment.h"

namespace disc {
namespace {

DISC_OBS_COUNTER(g_candidates, "gsp.candidates");
DISC_OBS_COUNTER(g_survivors, "gsp.survivors");
DISC_OBS_COUNTER(g_containment_tests, "gsp.containment_tests");
DISC_OBS_COUNTER(g_support_inc, "support.increments");
DISC_OBS_COUNTER(g_support_inc_k4, "support.increments.k4plus");

// Sequence with its first flattened item removed (dropping an emptied
// leading transaction).
Sequence DropFirstItem(const Sequence& s) {
  DISC_CHECK(!s.Empty());
  Sequence out;
  for (std::uint32_t t = 0; t < s.NumTransactions(); ++t) {
    const Item* begin = s.TxnBegin(t) + (t == 0 ? 1 : 0);
    if (begin == s.TxnEnd(t)) continue;
    out.AppendItemset(Itemset(std::vector<Item>(begin, s.TxnEnd(t))));
  }
  return out;
}

// Sequence with its last flattened item removed.
Sequence DropLast(const Sequence& s) {
  Sequence out = s;
  out.DropLastItem();
  return out;
}

// Sequence with the flattened item at `pos` removed.
Sequence DropItemAt(const Sequence& s, std::uint32_t pos) {
  Sequence out;
  std::uint32_t i = 0;
  for (std::uint32_t t = 0; t < s.NumTransactions(); ++t) {
    std::vector<Item> items;
    for (const Item* p = s.TxnBegin(t); p != s.TxnEnd(t); ++p, ++i) {
      if (i != pos) items.push_back(*p);
    }
    if (!items.empty()) out.AppendItemset(Itemset(items));
  }
  return out;
}

// True if the last flattened item of s sits in a transaction of its own
// (determines whether a join appends it as a new transaction).
bool LastItemAlone(const Sequence& s) {
  return s.TxnSize(s.NumTransactions() - 1) == 1;
}

}  // namespace

PatternSet Gsp::DoMine(const SequenceDatabase& db,
                       const MineOptions& options) {
  DISC_CHECK(options.min_support_count >= 1);
  PatternSet out;
  const std::uint32_t delta = options.min_support_count;
  if (db.empty() || delta > db.size()) return out;

  // Frequent 1-sequences.
  const std::vector<std::uint32_t> item_support = CountItemSupport(db);
  DISC_OBS_ADD(g_support_inc,
               std::accumulate(item_support.begin(), item_support.end(),
                               std::uint64_t{0}));
  std::vector<Sequence> frequent;  // F_{k-1}, ascending
  std::vector<Item> freq_items;
  for (Item x = 1; x <= db.max_item(); ++x) {
    if (item_support[x] >= delta) {
      Sequence p;
      p.AppendNewItemset(x);
      out.Add(p, item_support[x]);
      frequent.push_back(p);
      freq_items.push_back(x);
    }
  }

  for (std::uint32_t k = 2; !frequent.empty(); ++k) {
    if (options.max_length != 0 && k > options.max_length) break;
    // ---- Candidate generation.
    std::set<Sequence, SequenceLess> candidates;
    if (k == 2) {
      // F1 x F1 joins: <(x)(y)> for all pairs, <(x,y)> for x < y.
      for (const Item x : freq_items) {
        for (const Item y : freq_items) {
          Sequence c;
          c.AppendNewItemset(x);
          c.AppendNewItemset(y);
          candidates.insert(std::move(c));
          if (x < y) {
            Sequence ci;
            ci.AppendNewItemset(x);
            ci.AppendToLastItemset(y);
            candidates.insert(std::move(ci));
          }
        }
      }
    } else {
      // Join s1 with s2 when drop-first(s1) == drop-last(s2); the candidate
      // appends s2's last item to s1, as a new transaction iff it formed
      // one in s2.
      std::map<Sequence, std::vector<const Sequence*>, SequenceLess>
          by_drop_first;
      for (const Sequence& s1 : frequent) {
        by_drop_first[DropFirstItem(s1)].push_back(&s1);
      }
      for (const Sequence& s2 : frequent) {
        const auto it = by_drop_first.find(DropLast(s2));
        if (it == by_drop_first.end()) continue;
        const Item last = s2.LastItem();
        const bool alone = LastItemAlone(s2);
        for (const Sequence* s1 : it->second) {
          if (alone) {
            candidates.insert(Extend(*s1, last, ExtType::kSequence));
          } else if (last > s1->LastItem()) {
            candidates.insert(Extend(*s1, last, ExtType::kItemset));
          }
        }
      }
    }
    DISC_OBS_ADD(g_candidates, candidates.size());
    // ---- Prune: every delete-one-item subsequence must be frequent.
    std::vector<Sequence> survivors;
    for (const Sequence& c : candidates) {
      bool ok = true;
      for (std::uint32_t pos = 0; pos < c.Length() && ok; ++pos) {
        const Sequence sub = DropItemAt(c, pos);
        ok = std::binary_search(frequent.begin(), frequent.end(), sub,
                                SequenceLess());
      }
      if (ok) survivors.push_back(c);
    }
    DISC_OBS_ADD(g_survivors, survivors.size());
    // ---- Count supports with one database scan per level. The candidate
    // hash tree (EDBT'96 §3.2.1) pays off when customer sequences are short
    // enough that their items miss most hash buckets; long dense sequences
    // reach every subtree anyway, so those use an item-presence prescreen
    // in front of the exact containment test instead.
    std::vector<std::uint32_t> support(survivors.size(), 0);
    const double avg_len =
        db.AvgTransactionsPerCustomer() * db.AvgItemsPerTransaction();
    if (survivors.size() >= 32 && avg_len <= 24.0) {
      const CandidateHashTree tree(&survivors);
      for (const SequenceView s : db) {
        tree.CountSupports(s, &support);
      }
    } else {
      const std::size_t words = static_cast<std::size_t>(db.max_item()) / 64 + 1;
      std::vector<std::uint64_t> present(words);
      for (const SequenceView s : db) {
        std::fill(present.begin(), present.end(), 0);
        for (const Item x : s.items()) {
          present[x >> 6] |= 1ull << (x & 63);
        }
        for (std::size_t i = 0; i < survivors.size(); ++i) {
          bool maybe = true;
          for (const Item x : survivors[i].items()) {
            if (((present[x >> 6] >> (x & 63)) & 1u) == 0) {
              maybe = false;
              break;
            }
          }
          if (maybe) {
            DISC_OBS_INC(g_containment_tests);
            if (Contains(s, survivors[i])) ++support[i];
          }
        }
      }
    }
#if DISC_OBS_ENABLED
    {
      // Every unit of support was one counting increment this level; GSP
      // support-counts at every length, unlike the DISC strategy.
      std::uint64_t total = 0;
      for (const std::uint32_t sup : support) total += sup;
      DISC_OBS_ADD(g_support_inc, total);
      if (k >= 4) DISC_OBS_ADD(g_support_inc_k4, total);
    }
#endif
    frequent.clear();
    for (std::size_t i = 0; i < survivors.size(); ++i) {
      if (support[i] >= delta) {
        out.Add(survivors[i], support[i]);
        frequent.push_back(survivors[i]);
      }
    }
  }
  return out;
}

}  // namespace disc
