#include "disc/algo/prefixspan.h"

#include <algorithm>
#include <deque>

#include "disc/common/check.h"
#include "disc/obs/metrics.h"
#include "disc/order/compare.h"
#include "disc/seq/itemset.h"

namespace disc {
namespace {

DISC_OBS_COUNTER(g_nodes, "prefixspan.nodes");
DISC_OBS_COUNTER(g_points, "prefixspan.projection_points");
DISC_OBS_COUNTER(g_materialized, "prefixspan.materialized_sequences");
DISC_OBS_COUNTER(g_support_inc, "support.increments");
DISC_OBS_COUNTER(g_support_inc_k4, "support.increments.k4plus");
DISC_OBS_HISTOGRAM(g_projected_db, "prefixspan.projected_db_size");

// A pseudo-projection point: the postfix of *seq starting at item index
// next_i inside transaction txn (the partial transaction), followed by the
// full transactions txn+1... next_i may equal the transaction size (empty
// partial part).
struct Point {
  SequenceView seq;
  std::uint32_t txn;
  std::uint32_t next_i;
};

class Context {
 public:
  Context(const SequenceDatabase& db, const MineOptions& options,
          PrefixSpan::Projection mode)
      : db_(db), options_(options), mode_(mode) {
    const std::size_t n = static_cast<std::size_t>(db.max_item()) + 1;
    i_count_.assign(n, 0);
    s_count_.assign(n, 0);
    i_seen_.assign(n, 0);
    s_seen_.assign(n, 0);
  }

  ~Context() {
    DISC_OBS_ADD(g_support_inc, support_increments_);
    DISC_OBS_ADD(g_support_inc_k4, support_increments_k4_);
  }

  Context(const Context&) = delete;
  Context& operator=(const Context&) = delete;

  PatternSet Run() {
    if (db_.empty() || options_.min_support_count > db_.size()) {
      return std::move(out_);
    }
    // Frequent 1-sequences: count distinct items per sequence.
    for (const SequenceView s : db_) {
      ++tag_;
      for (const Item x : s.items()) {
        if (s_seen_[x] != tag_) {
          s_seen_[x] = tag_;
          if (s_count_[x]++ == 0) touched_s_.push_back(x);
          CountSupportIncrement();
        }
      }
    }
    std::vector<std::pair<Item, std::uint32_t>> freq_items;
    std::sort(touched_s_.begin(), touched_s_.end());
    for (const Item x : touched_s_) {
      if (s_count_[x] >= options_.min_support_count) {
        freq_items.emplace_back(x, s_count_[x]);
      }
      s_count_[x] = 0;
    }
    touched_s_.clear();

    for (const auto& [x, support] : freq_items) {
      Sequence prefix;
      prefix.AppendNewItemset(x);
      out_.Add(prefix, support);
      if (options_.max_length == 1) continue;
      // Project on the leftmost occurrence of x in each sequence.
      std::vector<Point> points;
      points.reserve(support);
      for (const SequenceView s : db_) {
        for (std::uint32_t t = 0; t < s.NumTransactions(); ++t) {
          if (!s.TxnContains(t, x)) continue;
          const Item* pos = std::lower_bound(s.TxnBegin(t), s.TxnEnd(t), x);
          points.push_back(
              {s, t,
               static_cast<std::uint32_t>(pos - s.TxnBegin(t)) + 1});
          break;
        }
      }
      DISC_CHECK(points.size() == support);
      Recurse(prefix, {x}, points);
    }
    return std::move(out_);
  }

 private:
  // Counts valid extensions over all points, emits the frequent ones, then
  // recurses per frequent extension in ascending (item, type) order.
  void Recurse(const Sequence& prefix, const std::vector<Item>& last_itemset,
               const std::vector<Point>& points) {
    if (points.size() < options_.min_support_count) return;
    if (options_.max_length != 0 && prefix.Length() >= options_.max_length) {
      return;
    }
    DISC_OBS_INC(g_nodes);
    DISC_OBS_ADD(g_points, points.size());
    DISC_OBS_RECORD(g_projected_db, points.size());
#if DISC_OBS_ENABLED
    // Length of the patterns the Mark* calls below are counting support for.
    counting_length_ = prefix.Length() + 1;
#endif
    const Item last_max = last_itemset.back();

    for (const Point& p : points) {
      const SequenceView s = p.seq;
      ++tag_;
      // Items after the projection point inside the partial transaction:
      // itemset extensions (all exceed last_max because transactions are
      // sorted and the point is past last_max's position).
      for (const Item* q = s.TxnBegin(p.txn) + p.next_i; q != s.TxnEnd(p.txn);
           ++q) {
        MarkI(*q);
      }
      for (std::uint32_t t = p.txn + 1; t < s.NumTransactions(); ++t) {
        // Any item in a strictly later transaction: sequence extension.
        for (const Item* q = s.TxnBegin(t); q != s.TxnEnd(t); ++q) MarkS(*q);
        // A later transaction containing the whole last itemset lets its
        // larger items extend that itemset (the non-leftmost-embedding
        // case).
        if (SortedRangeIsSubset(last_itemset.data(),
                                last_itemset.data() + last_itemset.size(),
                                s.TxnBegin(t), s.TxnEnd(t))) {
          for (const Item* q =
                   std::upper_bound(s.TxnBegin(t), s.TxnEnd(t), last_max);
               q != s.TxnEnd(t); ++q) {
            MarkI(*q);
          }
        }
      }
    }

    // Collect frequent extensions, then reset the scratch counters before
    // recursing (siblings must not see our counts).
    std::vector<std::pair<Item, ExtType>> freq_exts;
    std::sort(touched_i_.begin(), touched_i_.end());
    std::sort(touched_s_.begin(), touched_s_.end());
    {
      // Merge the two touched lists so extensions come out ascending by
      // (item, type) with kItemset first.
      std::size_t a = 0;
      std::size_t b = 0;
      while (a < touched_i_.size() || b < touched_s_.size()) {
        const bool take_i =
            b >= touched_s_.size() ||
            (a < touched_i_.size() && touched_i_[a] <= touched_s_[b]);
        if (take_i) {
          if (i_count_[touched_i_[a]] >= options_.min_support_count) {
            freq_exts.emplace_back(touched_i_[a], ExtType::kItemset);
          }
          ++a;
        } else {
          if (s_count_[touched_s_[b]] >= options_.min_support_count) {
            freq_exts.emplace_back(touched_s_[b], ExtType::kSequence);
          }
          ++b;
        }
      }
    }
    for (const Item x : touched_i_) i_count_[x] = 0;
    for (const Item x : touched_s_) s_count_[x] = 0;
    touched_i_.clear();
    touched_s_.clear();

    for (const auto& [item, type] : freq_exts) {
      const Sequence child = Extend(prefix, item, type);
      std::vector<Item> child_last;
      if (type == ExtType::kItemset) {
        child_last = last_itemset;
        child_last.push_back(item);
      } else {
        child_last = {item};
      }
      // Physical mode materializes each projected suffix; the arena lives
      // for the duration of this child's recursion only, mirroring
      // PrefixSpan's projected-database lifetime.
      std::deque<Sequence> arena;
      std::vector<Point> child_points;
      for (const Point& p : points) {
        Point np;
        if (!Advance(p, item, type, child_last, &np)) continue;
        if (mode_ == PrefixSpan::Projection::kPhysical) {
          np = Materialize(np, &arena);
        }
        child_points.push_back(np);
      }
      DISC_CHECK(child_points.size() >= options_.min_support_count);
      out_.Add(child, static_cast<std::uint32_t>(child_points.size()));
      Recurse(child, child_last, child_points);
    }
  }

  // Moves a projection point across one extension; returns false if the
  // extended pattern no longer occurs in this sequence.
  static bool Advance(const Point& p, Item item, ExtType type,
                      const std::vector<Item>& child_last, Point* out) {
    const SequenceView s = p.seq;
    if (type == ExtType::kItemset) {
      // The match may stay in the current transaction (item sorts after the
      // point, being larger than the previous last item) ...
      if (s.TxnContains(p.txn, item)) {
        const Item* pos =
            std::lower_bound(s.TxnBegin(p.txn), s.TxnEnd(p.txn), item);
        *out = {p.seq, p.txn,
                static_cast<std::uint32_t>(pos - s.TxnBegin(p.txn)) + 1};
        return true;
      }
      // ... or move to the first later transaction containing the grown
      // itemset (no transaction between the old point and it can contain
      // the old itemset, so this is still the leftmost embedding).
      for (std::uint32_t t = p.txn + 1; t < s.NumTransactions(); ++t) {
        if (SortedRangeIsSubset(child_last.data(),
                                child_last.data() + child_last.size(),
                                s.TxnBegin(t), s.TxnEnd(t))) {
          const Item* pos =
              std::lower_bound(s.TxnBegin(t), s.TxnEnd(t), item);
          *out = {p.seq, t,
                  static_cast<std::uint32_t>(pos - s.TxnBegin(t)) + 1};
          return true;
        }
      }
      return false;
    }
    // Sequence extension: first later transaction containing the item.
    for (std::uint32_t t = p.txn + 1; t < s.NumTransactions(); ++t) {
      if (s.TxnContains(t, item)) {
        const Item* pos = std::lower_bound(s.TxnBegin(t), s.TxnEnd(t), item);
        *out = {p.seq, t,
                static_cast<std::uint32_t>(pos - s.TxnBegin(t)) + 1};
        return true;
      }
    }
    return false;
  }

  // Copies the suffix of the pointed-to sequence (whole transactions from
  // the point's transaction onward) into the arena and re-targets the point.
  static Point Materialize(const Point& p, std::deque<Sequence>* arena) {
    const SequenceView s = p.seq;
    Sequence copy;
    for (std::uint32_t t = p.txn; t < s.NumTransactions(); ++t) {
      copy.AppendItemset(s.TxnItemset(t));
    }
    arena->push_back(std::move(copy));
    DISC_OBS_INC(g_materialized);
    return {arena->back(), 0, p.next_i};
  }

  void MarkI(Item x) {
    if (i_seen_[x] == tag_) return;
    i_seen_[x] = tag_;
    if (i_count_[x]++ == 0) touched_i_.push_back(x);
    CountSupportIncrement();
  }

  void MarkS(Item x) {
    if (s_seen_[x] == tag_) return;
    s_seen_[x] = tag_;
    if (s_count_[x]++ == 0) touched_s_.push_back(x);
    CountSupportIncrement();
  }

  // Support increments are tallied per run and published once, when the
  // context dies: a shared atomic bump per increment would make this
  // yardstick pay for the instrumentation.
  void CountSupportIncrement() {
#if DISC_OBS_ENABLED
    ++support_increments_;
    if (counting_length_ >= 4) ++support_increments_k4_;
#endif
  }

  const SequenceDatabase& db_;
  const MineOptions& options_;
  const PrefixSpan::Projection mode_;
  PatternSet out_;

  // Per-item scratch (indexed by item id).
  std::vector<std::uint32_t> i_count_, s_count_;
  std::vector<std::uint64_t> i_seen_, s_seen_;
  std::vector<Item> touched_i_, touched_s_;
  std::uint64_t tag_ = 0;
#if DISC_OBS_ENABLED
  std::uint32_t counting_length_ = 1;
  std::uint64_t support_increments_ = 0;
  std::uint64_t support_increments_k4_ = 0;
#endif
};

}  // namespace

PatternSet PrefixSpan::DoMine(const SequenceDatabase& db,
                              const MineOptions& options) {
  DISC_CHECK(options.min_support_count >= 1);
  Context ctx(db, options, mode_);
  return ctx.Run();
}

}  // namespace disc
