#include "disc/core/partition_recursion.h"

#include <algorithm>
#include <deque>
#include <stdexcept>
#include <utility>
#include <vector>

#include "disc/common/check.h"
#include "disc/common/failpoint.h"
#include "disc/core/counting_array.h"
#include "disc/core/partition.h"
#include "disc/core/scheduler.h"
#include "disc/obs/metrics.h"
#include "disc/seq/extension.h"

namespace disc {
namespace {

DISC_OBS_COUNTER(g_first_level_reuses, "disc.first_level.reuses");
DISC_OBS_COUNTER(g_first_level_partitions, "disc.partitions.first_level");
DISC_OBS_COUNTER(g_second_level_partitions, "disc.partitions.second_level");
DISC_OBS_COUNTER(g_scratch_reuses, "disc.scratch.reuses");
DISC_OBS_COUNTER(g_reduced, "partition.reduced_sequences");
DISC_OBS_GAUGE(g_arena_bytes, "disc.arena.bytes");
DISC_OBS_GAUGE(g_physical_nrr_level0, "disc.physical_nrr.level0");
DISC_OBS_GAUGE(g_physical_nrr_level1, "disc.physical_nrr.level1");
DISC_OBS_HISTOGRAM(g_first_level_size, "disc.partition_size.first_level");
DISC_OBS_HISTOGRAM(g_second_level_size, "disc.partition_size.second_level");
DISC_OBS_COUNTER(g_partitions_split, "dynamic.partitions_split");
DISC_OBS_COUNTER(g_partitions_to_disc, "dynamic.partitions_to_disc");
DISC_OBS_HISTOGRAM(g_partition_nrr, "dynamic.partition_nrr_x1000");

// A worker's state for the partition it is mining at one prefix length
// k >= 1: the members (k >= 2, or an unsplit root child), their prefix
// ends, the prefix's frequent one-item extensions, and the child each
// extension's supporters enroll in. A level's vectors stay intact while its
// children, one level down, are mined, and keep their capacity across the
// partitions the worker mines at that length.
struct Level {
  PartitionMembers members;
  std::vector<EmbeddingEnds> ends;  // parallel to `members`
  std::vector<std::pair<Item, ExtType>> freq;
  std::vector<std::vector<std::uint32_t>> children;  // positions, per freq
};

// Per-worker reusable mining state. A worker mines many root children;
// rebuilding the counting array (O(max item)), the reduced-sequence store or
// the child tables for each one is pure allocation churn, so each worker
// keeps one Scratch, cleared (not freed) between partitions. `warm`
// distinguishes the first use from a reuse for "disc.scratch.reuses".
struct Scratch {
  explicit Scratch(Item max_item) : counts(max_item) {}

  Level& level(std::uint32_t k) {
    while (levels.size() <= k) levels.emplace_back();  // keeps references
    return levels[k];
  }

  // One array for every level: a level reads its counts before it
  // descends or runs DISC, which then reuse it.
  CountingArray counts;
  ChildSlots child_slots;  // dead once a level's enrollment loop ends
  // The root child's reduced members: a flat arena whose Clear() keeps its
  // slabs, so a warm worker reduces with zero allocation. Member i of every
  // level below is arena[i] with indexes[i].
  SequenceArena arena;
  std::deque<SequenceIndex> indexes;
  std::deque<Level> levels;  // by prefix length
  bool warm = false;
};

// What one root child reports back. Folded into the run's output and
// gauges on the scheduling thread in ascending-λ (comparative) order, so
// the merged result and the gauges are bit-identical for every thread
// count.
struct PartitionResult {
  PatternSet patterns;
  double level0_ratio = 0.0;  ///< |partition| / |DB| (Equation 2, level 0)
  double level1_ratio = 0.0;  ///< avg second-level size / |partition|
  bool has_level1 = false;
  /// Scratch-arena bytes holding this partition's surviving reduced
  /// sequences. Folded as a max in ascending-λ order so the
  /// "disc.arena.bytes" gauge is thread-count invariant.
  std::size_t arena_bytes = 0;
};

// Clears the first `n` child lists (keeping their capacity) and makes sure
// there are that many.
void ResetChildren(std::size_t n,
                   std::vector<std::vector<std::uint32_t>>* children) {
  for (auto& child : *children) child.clear();
  if (children->size() < n) children->resize(n);
}

class Recursion {
 public:
  Recursion(const SequenceDatabase& db, const MineOptions& options,
            const PartitionPlan& plan, RunControl& ctl, obs::RunTelemetry* tel,
            const FirstLevelState* fl)
      : db_(db),
        options_(options),
        plan_(plan),
        ctl_(ctl),
        tel_(tel),
        fl_(fl),
        delta_(options.min_support_count) {}

  // The root level: the original database is the ⟨⟩-partition.
  PatternSet Execute() {
    PatternSet out;
    if (db_.empty() || delta_ > db_.size()) return out;

    // The frequent 1-sequences are the frequent items, with their item
    // supports: read off the provided first-level state (threshold-
    // independent, see core/first_level.h) or found in one scan.
    std::vector<std::uint32_t> support_local;
    if (fl_ == nullptr) {
      support_local = CountItemSupport(db_);
    } else {
      DISC_OBS_INC(g_first_level_reuses);
    }
    const std::vector<std::uint32_t>& support =
        fl_ != nullptr ? fl_->item_support : support_local;
    std::vector<Item> lambdas;
    std::vector<std::uint64_t> weights;  // supports = member counts
    std::uint64_t support_sum = 0;
    for (Item x = 1; x <= db_.max_item(); ++x) {
      if (support[x] < delta_) continue;
      Sequence p;
      p.AppendNewItemset(x);
      out.Add(p, support[x]);
      lambdas.push_back(x);
      weights.push_back(support[x]);
      support_sum += support[x];
    }
    if (options_.max_length == 1) return out;
    if (tel_ != nullptr) tel_->AddPatterns(out.size());  // 1-sequences

    std::size_t sequences = 0;  // the non-empty ones: the root's members
    for (Cid cid = 0; cid < db_.size(); ++cid) {
      if (!db_[cid].Empty()) ++sequences;
    }
    if (!lambdas.empty()) {
      if (!Split(0, support_sum, lambdas.size(), sequences)) {
        // On a stop, the whole partition's patterns go, which is the
        // same prefix rule as below with λ_cutoff = the first item.
        PatternSet whole;
        if (MineWhole(lambdas, sequences, &whole) == 1) {
          out.Absorb(std::move(whole));
        } else {
          out.EraseFromFirstItem(lambdas[0]);
        }
        return out;
      }
      if (plan_.dynamic_counters) DISC_OBS_INC(g_partitions_split);
    }

    // The ⟨(λ)⟩-partition is exactly the customer sequences containing λ:
    // the reassign-forward loop walks each sequence through the child of
    // every frequent item it contains, in ascending order, so membership
    // never depends on earlier children's results. The children are
    // therefore independently minable, and, being threshold-independent,
    // their member lists, with each member's first transaction holding λ,
    // are reusable verbatim from the cached state.
    std::vector<std::vector<FirstLevelMember>> members_local;
    if (fl_ == nullptr) {
      members_local = CollectPartitionMembers(db_, support, delta_);
    }
    const std::vector<std::vector<FirstLevelMember>>& members_of =
        fl_ != nullptr ? fl_->members_of : members_local;
    for (std::size_t i = 0; i < lambdas.size(); ++i) {
      DISC_CHECK(members_of[lambdas[i]].size() == weights[i]);
    }

    // Mine the children (core/scheduler.h), one scratch per worker. The
    // scratches flush their counting-array tallies when destroyed, so they
    // die with Execute(), before the run's stats are read.
    std::vector<PartitionResult> results(lambdas.size());
    const std::size_t workers =
        PartitionWorkers(options_.threads, lambdas.size());
    std::deque<Scratch> scratches;
    for (std::size_t w = 0; w < workers; ++w) {
      scratches.emplace_back(db_.max_item());
    }
    const std::size_t merged = MinePartitions(
        lambdas, weights, workers, ctl_, tel_,
        [&](std::size_t i, std::size_t worker) -> std::uint64_t {
          MineRootChild(lambdas[i], members_of[lambdas[i]],
                        &scratches[worker], &results[i]);
          return results[i].patterns.size();
        });

    // Deterministic merge. Patterns of length >= 2 with first item λ are
    // found only in the ⟨(λ)⟩-partition, so the union is disjoint; folding
    // ascending in λ keeps the gauge arithmetic (and with it MineStats)
    // independent of scheduling. Each child's patterns move into the
    // output (they sit contiguously after ⟨(λ)⟩), so no second copy of the
    // result is ever alive.
    //
    // On a stop (cancellation, deadline, contained failure) only the
    // leading run of completed children is merged, and the 1-sequences are
    // trimmed to the same λ cutoff: every pattern whose first item is >=
    // the first incomplete λ is dropped. Because the comparative order
    // decides on position 0 first, what remains is byte-for-byte the
    // prefix of the full serial result below ⟨(λ_cutoff)⟩ — exact
    // supports, no gaps (docs/ROBUSTNESS.md).
    double level0_ratio_sum = 0.0;
    double level1_ratio_sum = 0.0;
    std::uint64_t level1_partitions = 0;
    std::size_t arena_bytes_peak = 0;
    for (std::size_t i = 0; i < merged; ++i) {
      PartitionResult& r = results[i];
      out.Absorb(std::move(r.patterns));
      level0_ratio_sum += r.level0_ratio;
      if (r.has_level1) {
        level1_ratio_sum += r.level1_ratio;
        ++level1_partitions;
      }
      arena_bytes_peak = std::max(arena_bytes_peak, r.arena_bytes);
    }
    if (merged < lambdas.size()) out.EraseFromFirstItem(lambdas[merged]);
    if (merged > 0) {
      DISC_OBS_SET(g_arena_bytes, static_cast<double>(arena_bytes_peak));
      DISC_OBS_SET(g_physical_nrr_level0,
                   level0_ratio_sum / static_cast<double>(merged));
    }
    if (level1_partitions > 0) {
      DISC_OBS_SET(g_physical_nrr_level1,
                   level1_ratio_sum /
                       static_cast<double>(level1_partitions));
    }
    return out;
  }

 private:
  // Appendix step 2: whether the partition at prefix length k splits. Its
  // non-reduction rate (Equation 2) is the mean of its `children` frequent
  // extensions' supports, which sum to `support_sum`, over its `members`.
  bool Split(std::uint32_t k, std::uint64_t support_sum, std::size_t children,
             std::size_t members) const {
    const double nrr = static_cast<double>(support_sum) /
                       (static_cast<double>(children) *
                        static_cast<double>(members));
    if (plan_.dynamic_counters) {
      DISC_OBS_RECORD(g_partition_nrr,
                      static_cast<std::uint64_t>(nrr * 1000.0));
    }
    return plan_.fixed_levels >= 0
               ? k < static_cast<std::uint32_t>(plan_.fixed_levels)
               : nrr < plan_.gamma;
  }

  // Adds prefix ⊕ e to `out` with its count for every frequent extension
  // e in `freq`, adding the supports to `*support_sum`. Returns the
  // extended patterns in order: the children's prefixes, or the first DISC
  // pass's sorted list.
  static std::vector<Sequence> EmitExtensions(
      const Sequence& prefix,
      const std::vector<std::pair<Item, ExtType>>& freq,
      const CountingArray& counts, PatternSet* out,
      std::uint64_t* support_sum) {
    std::vector<Sequence> extended;
    extended.reserve(freq.size());
    for (const auto& [x, type] : freq) {
      Sequence p = Extend(prefix, x, type);
      out->Add(p, counts.Count(x, type));
      *support_sum += counts.Count(x, type);
      extended.push_back(std::move(p));
    }
    return extended;
  }

  // Appendix step 4: partitioning no longer pays, so DISC finds every
  // remaining length, from `start_k` on, in this partition. `sorted_list`
  // holds the frequent (start_k - 1)-sequences, one-item extensions of the
  // partition's prefix, whose embedding ends in the members are
  // `prefix_ends`.
  void RunDisc(const PartitionMembers& members,
               std::vector<Sequence> sorted_list,
               const std::vector<EmbeddingEnds>& prefix_ends,
               std::uint32_t start_k, Scratch* scratch,
               PatternSet* out) const {
    if (plan_.dynamic_counters) DISC_OBS_INC(g_partitions_to_disc);
    RunDiscLoop(members, std::move(sorted_list), prefix_ends, start_k, delta_,
                plan_.bilevel, options_.max_length, &scratch->counts, out,
                plan_.locative);
  }

  // The unsplit root: one DISC run from k = 2 over every non-empty customer
  // sequence, each with its own occurrence index. Mined through the
  // scheduler as one partition, on the calling thread; returns how many
  // partitions completed (0 or 1).
  std::size_t MineWhole(const std::vector<Item>& items,
                        std::uint64_t sequences, PatternSet* out) const {
    return MinePartitions(
        {items[0]}, {sequences}, 1, ctl_, tel_,
        [&](std::size_t, std::size_t) -> std::uint64_t {
          Scratch scratch(db_.max_item());
          PartitionMembers all;
          all.reserve(sequences);
          for (Cid cid = 0; cid < db_.size(); ++cid) {
            if (db_[cid].Empty()) continue;
            scratch.indexes.emplace_back(db_[cid]);
            all.push_back({db_[cid], &scratch.indexes.back(), cid});
          }
          std::vector<Sequence> sorted_list;
          sorted_list.reserve(items.size());
          for (const Item x : items) {
            sorted_list.push_back(Extend(Sequence(), x, ExtType::kSequence));
          }
          // The 1-sequences extend the empty prefix, contained everywhere.
          RunDisc(all, std::move(sorted_list),
                  std::vector<EmbeddingEnds>(all.size(), EmbeddingEnds{true}),
                  2, &scratch, out);
          return out->size();
        });
  }

  // Mines the root child ⟨(λ)⟩ whose members are the customer sequences
  // containing λ, each with its first transaction holding λ (Figure 2,
  // steps 2.1.1-2.1.3), using (and warming) `scratch`. A pure function of
  // the database, the options and the arguments: distinct root children
  // share nothing but the read-only database, which is what makes their
  // fan-out safe.
  void MineRootChild(Item lambda,
                     const std::vector<FirstLevelMember>& members,
                     Scratch* scratch, PartitionResult* result) const {
    if (scratch->warm) {
      DISC_OBS_INC(g_scratch_reuses);
    } else {
      scratch->warm = true;
    }
    DISC_OBS_INC(g_first_level_partitions);
    DISC_OBS_RECORD(g_first_level_size, members.size());
    result->level0_ratio = static_cast<double>(members.size()) /
                           static_cast<double>(db_.size());

    Sequence pat1;
    pat1.AppendNewItemset(lambda);

    // Frequent 2-sequences with prefix λ, in one counting-array scan of
    // the original sequences (§3.1), one pass per member from its recorded
    // first transaction holding λ.
    CountingArray& counts = scratch->counts;
    counts.Reset();
    for (const FirstLevelMember& m : members) {
      ForEachExtensionOfItem(db_[m.cid], lambda, m.txn,
                             [&counts, &m](Item x, ExtType type) {
                               counts.Add(x, type, m.cid);
                             });
    }
    Level& level = scratch->level(1);
    counts.FrequentExtensions(delta_, &level.freq);
    std::uint64_t support_sum = 0;
    std::vector<Sequence> extended = EmitExtensions(
        pat1, level.freq, counts, &result->patterns, &support_sum);
    if (level.freq.empty() || options_.max_length == 2) return;
    // Decided on the unreduced members, which the supports count.
    const bool split =
        Split(1, support_sum, level.freq.size(), members.size());

    // Fault-injection hook covering the scratch/reduction path (the
    // allocation-heavy part of a partition mine).
    if (DISC_FAILPOINT("disc.reduce") == failpoint::Action::kError) {
      throw std::runtime_error("failpoint disc.reduce");
    }

    // Reduce the members (step 2.1.2). Split, also enroll each reduced
    // sequence in the child of every frequent 2-sequence it contains: the
    // children the paper's reassign-forward walk (step 2.1.3) takes it
    // through, in one scan (ChildSlots); a sequence that joins no child is
    // dropped again. Each survivor gets an occurrence index, reused by
    // every later scan over it (enrollment, counting, DISC passes). A
    // reduced sequence is appended straight into the scratch arena; the
    // index and the enrollment scan read it through a transient back()
    // view that never survives into the next append (the SequenceIndex
    // copies what it needs), so slab regrowth cannot dangle anything.
    ChildSlots& child_slots = scratch->child_slots;
    if (split) {
      child_slots.Build(level.freq);
      ResetChildren(level.freq.size(), &level.children);
    }
    std::deque<SequenceIndex>& indexes = scratch->indexes;
    indexes.clear();
    SequenceArena& arena = scratch->arena;
    arena.Clear();
    for (const FirstLevelMember& m : members) {
      if (ReduceCustomerSequenceInto(db_[m.cid], lambda, m.txn, counts,
                                     delta_, 3, &arena) == 0) {
        continue;
      }
      const SequenceView red = arena.back();
      indexes.emplace_back(red);
      if (split &&
          !child_slots.Enroll(red, pat1, &indexes.back(),
                              static_cast<std::uint32_t>(indexes.size() - 1),
                              &level.children)) {
        arena.PopBack();
        indexes.pop_back();
      }
    }
    DISC_OBS_ADD(g_reduced, members.size());
    // The append phase is over, so views of the survivors stay valid.
    result->arena_bytes = arena.SizeBytes();

    if (!split) {
      // DISC from k = 3 over every survivor. The first pass is one
      // supporter group under ⟨(λ)⟩, with ends in the reduced sequences.
      level.members.clear();
      level.ends.clear();
      for (std::uint32_t i = 0; i < arena.size(); ++i) {
        level.members.push_back({arena[i], &indexes[i], i});
        level.ends.push_back(LeftmostEnds(arena[i], pat1, &indexes[i]));
      }
      RunDisc(level.members, std::move(extended), level.ends, 3, scratch,
              &result->patterns);
      return;
    }
    if (plan_.dynamic_counters) DISC_OBS_INC(g_partitions_split);

    // Physical level-1 NRR: average second-level size over this root
    // child's size (Equation 2 on actual sizes). A child's size counts
    // every member it is mined with.
    std::uint64_t child_sum = 0;
    std::uint64_t nonempty = 0;
    for (std::size_t j = 0; j < level.freq.size(); ++j) {
      if (level.children[j].empty()) continue;
      child_sum += level.children[j].size();
      ++nonempty;
    }
    if (nonempty > 0) {
      result->level1_ratio = static_cast<double>(child_sum) /
                             (static_cast<double>(nonempty) *
                              static_cast<double>(members.size()));
      result->has_level1 = true;
    }

    // Mine the second-level partitions ascending (step 2.1.3).
    Level& next = scratch->level(2);
    for (std::size_t j = 0; j < level.freq.size(); ++j) {
      const std::vector<std::uint32_t>& slots = level.children[j];
      if (slots.size() < delta_) continue;
      DISC_OBS_INC(g_second_level_partitions);
      DISC_OBS_RECORD(g_second_level_size, slots.size());
      next.members.clear();
      next.members.reserve(slots.size());
      for (const std::uint32_t slot : slots) {
        next.members.push_back({arena[slot], &indexes[slot], slot});
      }
      MineDeeper(extended[j], scratch, &result->patterns);
    }
  }

  // Mines the ⟨prefix⟩-partition for a prefix of length k >= 2, whose
  // reduced members the parent left in scratch->level(k).members.
  void MineDeeper(const Sequence& prefix, Scratch* scratch,
                  PatternSet* out) const {
    const std::uint32_t k = prefix.Length();
    Level& level = scratch->level(k);
    const PartitionMembers& members = level.members;

    // Frequent (k+1)-sequences with this prefix, in one counting-array
    // scan. Its embeddings of the prefix seed the DISC passes' supporter
    // groups if this partition runs DISC.
    CountingArray& counts = scratch->counts;
    counts.Reset();
    level.ends.clear();
    for (const PartitionMember& m : members) {
      level.ends.push_back(LeftmostEnds(m.seq, prefix, m.index));
      ForEachExtensionWithEnds(
          m.seq, prefix, level.ends.back(),
          [&counts, &m](Item x, ExtType type) { counts.Add(x, type, m.cid); },
          m.index);
    }
    counts.FrequentExtensions(delta_, &level.freq);
#if DISC_OBS_ENABLED
    // A deep split support-counts patterns of any length; attribute them
    // like the bi-level harvests do.
    if (k + 1 >= 4) {
      DISC_OBS_COUNTER(g_k4plus, "support.increments.k4plus");
      DISC_OBS_ADD(g_k4plus, counts.increments_since_reset());
    }
#endif
    std::uint64_t support_sum = 0;
    std::vector<Sequence> extended =
        EmitExtensions(prefix, level.freq, counts, out, &support_sum);
    if (level.freq.empty()) return;
    if (options_.max_length != 0 && k + 1 >= options_.max_length) return;

    if (!Split(k, support_sum, level.freq.size(), members.size())) {
      RunDisc(members, std::move(extended), level.ends, k + 2, scratch, out);
      return;
    }

    // Partition one level deeper and recurse (Appendix, step 3). One scan
    // per member enrolls it, by position, in the child of every frequent
    // extension it contains (ChildSlots).
    if (plan_.dynamic_counters) DISC_OBS_INC(g_partitions_split);
    ChildSlots& child_slots = scratch->child_slots;
    child_slots.Build(level.freq);
    ResetChildren(level.freq.size(), &level.children);
    for (std::size_t i = 0; i < members.size(); ++i) {
      child_slots.Enroll(members[i].seq, prefix, members[i].index,
                         static_cast<std::uint32_t>(i), &level.children);
    }
    Level& next = scratch->level(k + 1);
    for (std::size_t j = 0; j < level.freq.size(); ++j) {
      const std::vector<std::uint32_t>& positions = level.children[j];
      if (positions.size() < delta_) continue;
      next.members.clear();
      next.members.reserve(positions.size());
      for (const std::uint32_t i : positions) {
        next.members.push_back(members[i]);
      }
      MineDeeper(extended[j], scratch, out);
    }
  }

  const SequenceDatabase& db_;
  const MineOptions& options_;
  const PartitionPlan& plan_;
  RunControl& ctl_;
  obs::RunTelemetry* tel_;
  const FirstLevelState* fl_;
  const std::uint32_t delta_;
};

}  // namespace

PatternSet MinePartitionRecursion(const SequenceDatabase& db,
                                  const MineOptions& options,
                                  const PartitionPlan& plan, RunControl& ctl,
                                  obs::RunTelemetry* tel,
                                  const FirstLevelState* fl) {
  DISC_CHECK(options.min_support_count >= 1);
  // A stale first-level state would silently mine wrong partitions
  // (core/first_level.h). O(1) on an engine's database, which caches its
  // content hash.
  if (fl != nullptr) DISC_CHECK(fl->Matches(db));
  return Recursion(db, options, plan, ctl, tel, fl).Execute();
}

}  // namespace disc
