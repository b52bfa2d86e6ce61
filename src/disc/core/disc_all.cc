#include "disc/core/disc_all.h"

#include <algorithm>
#include <deque>
#include <stdexcept>
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
DISC_OBS_GAUGE(g_arena_bytes, "disc.arena.bytes");
DISC_OBS_GAUGE(g_physical_nrr_level0, "disc.physical_nrr.level0");
DISC_OBS_GAUGE(g_physical_nrr_level1, "disc.physical_nrr.level1");
DISC_OBS_HISTOGRAM(g_first_level_size, "disc.partition_size.first_level");
DISC_OBS_HISTOGRAM(g_second_level_size, "disc.partition_size.second_level");

// Per-worker reusable mining state. A worker processes many ⟨λ⟩-partitions;
// reconstructing the counting array, the reduced-sequence stores, and the
// second-level slot tables for each one is pure allocation churn, so each
// worker keeps one Scratch and the partition miner clears (not frees) it
// between partitions. `warm` distinguishes the first use from a reuse for
// the "disc.scratch.reuses" counter.
struct Scratch {
  explicit Scratch(Item max_item) : counts(max_item) {}

  CountingArray counts;
  // Reduced-sequence store: a flat arena whose Clear() keeps its slabs, so
  // a warm worker reduces with zero allocation. `reduced` holds views over
  // it, collected only after the reduce loop is done appending (arena
  // growth invalidates views).
  SequenceArena arena;
  std::vector<SequenceView> reduced;
  std::deque<SequenceIndex> indexes;
  // Second-level partition table; inner vectors keep their capacity across
  // partitions (cleared, never moved from).
  std::vector<std::vector<std::uint32_t>> second_level;
  ChildSlots child_slots;
  std::vector<std::pair<Item, ExtType>> freq3;
  std::vector<EmbeddingEnds> pat2_ends;  // parallel to `pairs`
  PartitionMembers pairs;
  bool warm = false;
};

// What one first-level partition task reports back. Folded into the run's
// output and gauges on the scheduling thread in ascending-λ (comparative)
// order, so the merged result and the NRR gauges are bit-identical for
// every thread count.
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

// Mines one first-level ⟨λ⟩-partition into `result`, using (and warming)
// `scratch`. Pure function of (db, options, config, lambda, members):
// distinct partitions share nothing but the read-only database, which is
// what makes the partition fan-out safe.
class PartitionMiner {
 public:
  PartitionMiner(const SequenceDatabase& db, const MineOptions& options,
                 const DiscAll::Config& config, Scratch* scratch,
                 PartitionResult* result)
      : db_(db),
        options_(options),
        config_(config),
        scratch_(*scratch),
        result_(*result) {}

  void Mine(Item lambda, const std::vector<Cid>& members) {
    if (scratch_.warm) {
      DISC_OBS_INC(g_scratch_reuses);
    } else {
      scratch_.warm = true;
    }
    DISC_OBS_INC(g_first_level_partitions);
    DISC_OBS_RECORD(g_first_level_size, members.size());
    result_.level0_ratio = static_cast<double>(members.size()) /
                           static_cast<double>(db_.size());
    ProcessFirstLevel(lambda, members, options_.min_support_count);
  }

 private:
  void ProcessFirstLevel(Item lambda, const std::vector<Cid>& members,
                         std::uint32_t delta) {
    Sequence pat1;
    pat1.AppendNewItemset(lambda);

    // Frequent 2-sequences with prefix λ via the counting array (§3.1).
    CountingArray& counts = scratch_.counts;
    counts.Reset();
    for (const Cid cid : members) {
      ForEachExtension(db_[cid], pat1, [&counts, cid](Item x, ExtType type) {
        counts.Add(x, type, cid);
      });
    }
    std::vector<std::pair<Item, ExtType>> freq2;
    counts.FrequentExtensions(delta, &freq2);
    for (const auto& [x, type] : freq2) {
      result_.patterns.Add(Extend(pat1, x, type), counts.Count(x, type));
    }
    if (freq2.empty() || options_.max_length == 2) return;

    ChildSlots& child_slots = scratch_.child_slots;
    child_slots.Build(freq2);

    // Fault-injection hook covering the scratch/reduction path (the
    // allocation-heavy part of a partition mine).
    if (DISC_FAILPOINT("disc.reduce") == failpoint::Action::kError) {
      throw std::runtime_error("failpoint disc.reduce");
    }

    // Reduce members (step 2.1.2) and enroll each reduced sequence in the
    // second-level partition of every frequent 2-sequence it contains:
    // the children the paper's reassign-forward walk (step 2.1.3) takes it
    // through, in one scan (ChildSlots). Each reduced sequence gets an
    // occurrence index, reused by every later scan over it (enrollment,
    // counting, DISC passes). The stores and the slot table come from the
    // worker scratch: clear them, keep their capacity. A reduced sequence
    // is appended straight into the flat scratch arena; the index and the
    // enrollment scan read it through a transient back() view that never
    // survives into the next append (the SequenceIndex copies what it
    // needs), so slab regrowth cannot dangle anything.
    std::deque<SequenceIndex>& indexes = scratch_.indexes;
    indexes.clear();
    SequenceArena& arena = scratch_.arena;
    arena.Clear();
    std::vector<std::vector<std::uint32_t>>& second_level =
        scratch_.second_level;
    for (auto& slots : second_level) slots.clear();
    if (second_level.size() < freq2.size()) second_level.resize(freq2.size());
    for (const Cid cid : members) {
      if (ReduceCustomerSequenceInto(db_[cid], lambda, counts, delta, 3,
                                     &arena) == 0) {
        continue;
      }
      const SequenceView red = arena.back();
      indexes.emplace_back(red);
      if (!child_slots.Enroll(
              red, pat1, &indexes.back(),
              static_cast<std::uint32_t>(indexes.size() - 1), &second_level)) {
        arena.PopBack();
        indexes.pop_back();
      }
    }

    // The append phase is over; collect stable views of the survivors
    // (slot i of the table is sequence i of the arena).
    std::vector<SequenceView>& reduced = scratch_.reduced;
    reduced.clear();
    reduced.reserve(arena.size());
    for (std::size_t i = 0; i < arena.size(); ++i) {
      reduced.push_back(arena[i]);
    }
    result_.arena_bytes = arena.SizeBytes();

    // Physical level-1 NRR: average second-level size over this
    // first-level partition's size (Equation 2 on actual sizes). A child's
    // size counts every member it is mined with.
    {
      std::uint64_t child_sum = 0;
      std::uint64_t children = 0;
      for (std::size_t j = 0; j < freq2.size(); ++j) {
        if (second_level[j].empty()) continue;
        child_sum += second_level[j].size();
        ++children;
      }
      if (children > 0) {
        result_.level1_ratio =
            static_cast<double>(child_sum) /
            (static_cast<double>(children) *
             static_cast<double>(members.size()));
        result_.has_level1 = true;
      }
    }

    // Mine the second-level partitions ascending (step 2.1.3).
    for (std::size_t j = 0; j < freq2.size(); ++j) {
      const std::vector<std::uint32_t>& slots = second_level[j];
      if (slots.size() < delta) continue;
      DISC_OBS_INC(g_second_level_partitions);
      DISC_OBS_RECORD(g_second_level_size, slots.size());
      ProcessSecondLevel(Extend(pat1, freq2[j].first, freq2[j].second),
                         reduced, indexes, slots, delta);
    }
  }

  void ProcessSecondLevel(const Sequence& pat2,
                          const std::vector<SequenceView>& reduced,
                          const std::deque<SequenceIndex>& indexes,
                          const std::vector<std::uint32_t>& slots,
                          std::uint32_t delta) {
    // Frequent 3-sequences with prefix pat2, again in one counting-array
    // scan (step 2.1.3.1). The scan's embeddings of pat2 seed the DISC
    // passes' supporter groups.
    CountingArray& counts = scratch_.counts;
    counts.Reset();
    std::vector<EmbeddingEnds>& pat2_ends = scratch_.pat2_ends;
    pat2_ends.clear();
    for (const std::uint32_t slot : slots) {
      pat2_ends.push_back(LeftmostEnds(reduced[slot], pat2, &indexes[slot]));
      ForEachExtensionWithEnds(
          reduced[slot], pat2, pat2_ends.back(),
          [&counts, slot](Item x, ExtType type) { counts.Add(x, type, slot); },
          &indexes[slot]);
    }
    std::vector<std::pair<Item, ExtType>>& freq3 = scratch_.freq3;
    counts.FrequentExtensions(delta, &freq3);
    std::vector<Sequence> sorted_list;
    sorted_list.reserve(freq3.size());
    for (const auto& [x, type] : freq3) {
      Sequence p = Extend(pat2, x, type);
      result_.patterns.Add(p, counts.Count(x, type));
      sorted_list.push_back(std::move(p));
    }
    if (options_.max_length != 0 && options_.max_length <= 3) return;

    // DISC for k >= 4 (step 2.1.3.2). The counting array is free again
    // (freq3 has been read), so the bi-level harvests reuse it.
    PartitionMembers& pairs = scratch_.pairs;
    pairs.clear();
    pairs.reserve(slots.size());
    for (const std::uint32_t slot : slots) {
      pairs.push_back({reduced[slot], &indexes[slot], slot});
    }
    RunDiscLoop(pairs, std::move(sorted_list), pat2_ends, 4, delta,
                config_.bilevel, options_.max_length, &counts,
                &result_.patterns, config_.locative);
  }

  const SequenceDatabase& db_;
  const MineOptions& options_;
  const DiscAll::Config& config_;
  Scratch& scratch_;
  PartitionResult& result_;
};

class Run {
 public:
  /// `tel` may be null (no live telemetry). `fl` may be null (steps 1-2
  /// scan the database); non-null, it must have been built from `db`
  /// (core/first_level.h).
  Run(const SequenceDatabase& db, const MineOptions& options,
      const DiscAll::Config& config, RunControl& ctl, obs::RunTelemetry* tel,
      const FirstLevelState* fl)
      : db_(db),
        options_(options),
        config_(config),
        ctl_(ctl),
        tel_(tel),
        fl_(fl) {}

  PatternSet Execute() {
    const std::uint32_t delta = options_.min_support_count;
    if (db_.empty() || delta > db_.size()) return std::move(out_);
    const Item max_item = db_.max_item();

    // ---- Step 1: per-item supports and frequent 1-sequences — reused
    // from the provided first-level state (threshold-independent, see
    // core/first_level.h) or found in one scan.
    std::vector<std::uint32_t> item_support_local;
    if (fl_ == nullptr) {
      item_support_local = CountItemSupport(db_);
    } else {
      DISC_OBS_INC(g_first_level_reuses);
    }
    const std::vector<std::uint32_t>& item_support =
        fl_ != nullptr ? fl_->item_support : item_support_local;
    for (Item x = 1; x <= max_item; ++x) {
      if (item_support[x] >= delta) {
        Sequence p;
        p.AppendNewItemset(x);
        out_.Add(p, item_support[x]);
      }
    }
    if (options_.max_length == 1) return std::move(out_);

    // ---- Step 2: static first-level partitions. The ⟨λ⟩-partition is
    // exactly the customer sequences containing λ — the serial
    // reassign-forward loop walks each sequence through the partitions of
    // all its items in ascending order, so membership never depends on
    // earlier partitions' results. Materializing the partitions up front
    // makes them independently minable — and, being threshold-independent,
    // reusable verbatim from the cached state (which holds every item's
    // partition; the lambdas loop below only walks the frequent ones).
    std::vector<std::vector<Cid>> members_local;
    if (fl_ == nullptr) {
      members_local = CollectPartitionMembers(db_, item_support, delta);
    }
    const std::vector<std::vector<Cid>>& members_of =
        fl_ != nullptr ? fl_->members_of : members_local;
    std::vector<Item> lambdas;
    std::vector<std::uint64_t> weights;  // member counts
    for (Item x = 1; x <= max_item; ++x) {
      if (item_support[x] >= delta) {
        DISC_CHECK(members_of[x].size() == item_support[x]);
        lambdas.push_back(x);
        weights.push_back(members_of[x].size());
      }
    }
    if (tel_ != nullptr) tel_->AddPatterns(out_.size());  // 1-sequences

    // ---- Step 3: mine the partitions (core/scheduler.h), one scratch per
    // worker.
    std::vector<PartitionResult> results(lambdas.size());
    const std::size_t workers =
        PartitionWorkers(options_.threads, lambdas.size());
    std::deque<Scratch> scratches;
    for (std::size_t w = 0; w < workers; ++w) scratches.emplace_back(max_item);
    const std::size_t merged = MinePartitions(
        lambdas, weights, workers, ctl_, tel_,
        [&](std::size_t i, std::size_t worker) -> std::uint64_t {
          PartitionMiner(db_, options_, config_, &scratches[worker],
                         &results[i])
              .Mine(lambdas[i], members_of[lambdas[i]]);
          return results[i].patterns.size();
        });

    // ---- Step 4: deterministic merge. Patterns of length >= 2 with
    // minimum item λ are found only in the ⟨λ⟩-partition, so the union is
    // disjoint; folding ascending in λ keeps the gauge arithmetic (and
    // with it MineStats) independent of scheduling. Each partition's
    // patterns move into the output (they sit contiguously after ⟨(λ)⟩),
    // so no second copy of the result is ever alive.
    //
    // On a stop (cancellation, deadline, contained failure) only the
    // leading run of completed partitions is merged, and the 1-sequences
    // from step 1 are trimmed to the same λ cutoff: every pattern whose
    // first item is >= the first incomplete λ is dropped. Because the
    // comparative order decides on position 0 first, what remains is
    // byte-for-byte the prefix of the full serial result below
    // ⟨(λ_cutoff)⟩ — exact supports, no gaps (docs/ROBUSTNESS.md).
    double level0_ratio_sum = 0.0;
    double level1_ratio_sum = 0.0;
    std::uint64_t level1_partitions = 0;
    std::size_t arena_bytes_peak = 0;
    for (std::size_t i = 0; i < merged; ++i) {
      PartitionResult& r = results[i];
      out_.Absorb(std::move(r.patterns));
      level0_ratio_sum += r.level0_ratio;
      if (r.has_level1) {
        level1_ratio_sum += r.level1_ratio;
        ++level1_partitions;
      }
      arena_bytes_peak = std::max(arena_bytes_peak, r.arena_bytes);
    }
    if (merged < lambdas.size()) out_.EraseFromFirstItem(lambdas[merged]);
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
    return std::move(out_);
  }

 private:
  const SequenceDatabase& db_;
  const MineOptions& options_;
  const DiscAll::Config& config_;
  RunControl& ctl_;
  obs::RunTelemetry* tel_;
  const FirstLevelState* fl_;
  PatternSet out_;
};

}  // namespace

PatternSet DiscAll::DoMine(const SequenceDatabase& db,
                           const MineOptions& options) {
  DISC_CHECK(options.min_support_count >= 1);
  // A provided first-level state must describe this database — a stale
  // state would silently mine wrong partitions (core/first_level.h).
  const FirstLevelState* fl = first_level_.get();
  if (fl != nullptr) DISC_CHECK(fl->Matches(db));
  Run run(db, options, config_, *run_control(), telemetry(), fl);
  return run.Execute();
}

}  // namespace disc
