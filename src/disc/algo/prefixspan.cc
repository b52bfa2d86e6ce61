#include "disc/algo/prefixspan.h"

#include <algorithm>
#include <deque>
#include <numeric>
#include <optional>

#include "disc/common/check.h"
#include "disc/core/counting_array.h"
#include "disc/core/first_level.h"
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
      : db_(db), options_(options), mode_(mode), counts_(db.max_item()) {}

  ~Context() {
    DISC_OBS_ADD(g_nodes, nodes_);
    DISC_OBS_ADD(g_points, projection_points_);
    DISC_OBS_ADD(g_projected_db, projected_db_size_);
    DISC_OBS_ADD(g_materialized, materialized_);
    DISC_OBS_ADD(g_support_inc_k4, support_increments_k4_);
  }

  Context(const Context&) = delete;
  Context& operator=(const Context&) = delete;

  PatternSet Run() {
    if (db_.empty() || options_.min_support_count > db_.size()) {
      return std::move(out_);
    }
    // Frequent 1-sequences and their customers, as DISC's root finds them
    // (core/first_level.h): one scan counts the item supports, a second
    // lists the customers of each frequent item with the first transaction
    // holding it.
    const std::uint32_t delta = options_.min_support_count;
    const std::vector<std::uint32_t> support = CountItemSupport(db_);
    DISC_OBS_ADD(g_support_inc, std::accumulate(support.begin(), support.end(),
                                                 std::uint64_t{0}));
    std::vector<std::vector<FirstLevelMember>> members_of =
        CollectPartitionMembers(db_, support, delta);

    for (Item x = 1; x <= db_.max_item(); ++x) {
      if (support[x] < delta) continue;
      Sequence prefix;
      prefix.AppendNewItemset(x);
      out_.Add(prefix, support[x]);
      if (options_.max_length == 1) continue;
      // Project on the leftmost occurrence of x in each sequence containing
      // it, in the transaction the member list recorded; the projection
      // then replaces the list.
      std::vector<Point> points;
      points.reserve(members_of[x].size());
      for (const FirstLevelMember& m : members_of[x]) {
        const SequenceView s = db_[m.cid];
        const Item* begin = s.TxnBegin(m.txn);
        const Item* pos = std::lower_bound(begin, s.TxnEnd(m.txn), x);
        points.push_back(
            {s, m.txn, static_cast<std::uint32_t>(pos - begin) + 1});
      }
      std::vector<FirstLevelMember>().swap(members_of[x]);
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
#if DISC_OBS_ENABLED
    ++nodes_;
    projection_points_ += points.size();
    projected_db_size_.Record(points.size());
#endif
    const Item last_max = last_itemset.back();

    // The points of one node are distinct customers, so a point's index
    // serves as its CID in the counting array.
    counts_.Reset();
    for (Cid cid = 0; cid < points.size(); ++cid) {
      const Point& p = points[cid];
      const SequenceView s = p.seq;
      // Items after the projection point inside the partial transaction:
      // itemset extensions (all exceed last_max because transactions are
      // sorted and the point is past last_max's position).
      for (const Item* q = s.TxnBegin(p.txn) + p.next_i; q != s.TxnEnd(p.txn);
           ++q) {
        counts_.Add(*q, ExtType::kItemset, cid);
      }
      for (std::uint32_t t = p.txn + 1; t < s.NumTransactions(); ++t) {
        // Any item in a strictly later transaction: sequence extension.
        for (const Item* q = s.TxnBegin(t); q != s.TxnEnd(t); ++q) {
          counts_.Add(*q, ExtType::kSequence, cid);
        }
        // A later transaction containing the whole last itemset lets its
        // larger items extend that itemset (the non-leftmost-embedding
        // case).
        if (SortedRangeIsSubset(last_itemset.data(),
                                last_itemset.data() + last_itemset.size(),
                                s.TxnBegin(t), s.TxnEnd(t))) {
          for (const Item* q =
                   std::upper_bound(s.TxnBegin(t), s.TxnEnd(t), last_max);
               q != s.TxnEnd(t); ++q) {
            counts_.Add(*q, ExtType::kItemset, cid);
          }
        }
      }
    }

#if DISC_OBS_ENABLED
    // The array publishes support.increments when it dies; the share spent
    // on patterns of length >= 4 is tallied here.
    if (prefix.Length() + 1 >= 4) {
      support_increments_k4_ += counts_.increments_since_reset();
    }
#endif
    // Read off before recursing: every child resets the array.
    std::vector<std::pair<Item, ExtType>> freq_exts;
    counts_.FrequentExtensions(options_.min_support_count, &freq_exts);

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
      // PrefixSpan's projected-database lifetime. Pseudo mode builds none.
      std::optional<std::deque<Sequence>> arena;
      if (mode_ == PrefixSpan::Projection::kPhysical) arena.emplace();
      std::vector<Point> child_points;
      for (const Point& p : points) {
        Point np;
        if (!Advance(p, item, type, child_last, &np)) continue;
        if (arena) np = Materialize(np, &*arena);
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
  Point Materialize(const Point& p, std::deque<Sequence>* arena) {
    const SequenceView s = p.seq;
    Sequence copy;
    for (std::uint32_t t = p.txn; t < s.NumTransactions(); ++t) {
      copy.AppendItemset(s.TxnItemset(t));
    }
    arena->push_back(std::move(copy));
#if DISC_OBS_ENABLED
    ++materialized_;
#endif
    return {arena->back(), 0, p.next_i};
  }

  const SequenceDatabase& db_;
  const MineOptions& options_;
  const PrefixSpan::Projection mode_;
  PatternSet out_;
  CountingArray counts_;
  // Work counts are tallied per run and published once, when the context
  // dies: a shared atomic bump per event would make this yardstick pay for
  // the instrumentation.
#if DISC_OBS_ENABLED
  std::uint64_t nodes_ = 0;
  std::uint64_t projection_points_ = 0;
  obs::HistogramTally projected_db_size_;
  std::uint64_t materialized_ = 0;
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
