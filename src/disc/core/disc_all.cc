#include "disc/core/disc_all.h"

#include <algorithm>
#include <deque>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "disc/common/cancel.h"
#include "disc/common/check.h"
#include "disc/common/failpoint.h"
#include "disc/common/thread_pool.h"
#include "disc/core/candidate_bound.h"
#include "disc/core/counting_array.h"
#include "disc/core/partition.h"
#include "disc/obs/metrics.h"
#include "disc/obs/progress.h"
#include "disc/obs/trace.h"
#include "disc/seq/extension.h"

namespace disc {
namespace {

DISC_OBS_COUNTER(g_first_level_reuses, "disc.first_level.reuses");
DISC_OBS_COUNTER(g_first_level_partitions, "disc.partitions.first_level");
DISC_OBS_COUNTER(g_second_level_partitions, "disc.partitions.second_level");
DISC_OBS_COUNTER(g_bound_skips, "disc.bound.skips");
DISC_OBS_COUNTER(g_bound_filtered, "disc.bound.filtered_probes");
DISC_OBS_COUNTER(g_scratch_reuses, "disc.scratch.reuses");
DISC_OBS_COUNTER(g_arena_reuses, "disc.arena.reuses");
DISC_OBS_GAUGE(g_arena_bytes, "disc.arena.bytes");
DISC_OBS_GAUGE(g_physical_nrr_level0, "disc.physical_nrr.level0");
DISC_OBS_GAUGE(g_physical_nrr_level1, "disc.physical_nrr.level1");
DISC_OBS_GAUGE(g_mine_threads, "mine.threads");
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
  // Reduced-sequence store, one of two backends: the flat scratch arena
  // (default; Clear() keeps its slabs, so a warm worker reduces with zero
  // allocation) or one owning Sequence per customer (the pre-arena
  // baseline, Config::arena_scratch == false). `reduced` holds views over
  // whichever backend filled it, collected only after the reduce loop is
  // done appending (arena growth invalidates views).
  SequenceArena arena;
  std::deque<Sequence> reduced_owned;
  std::vector<SequenceView> reduced;
  std::deque<SequenceIndex> indexes;
  // Second-level partition table; inner vectors keep their capacity across
  // partitions (cleared, never moved from).
  std::vector<std::vector<std::uint32_t>> second_level;
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
  /// sequences (0 on the owned-sequence backend). Folded as a max in
  /// ascending-λ order so the "disc.arena.bytes" gauge is thread-count
  /// invariant.
  std::size_t arena_bytes = 0;
  /// The partition was mined to completion. A task that observed a stop
  /// request at entry (or whose worker threw) leaves this false; the merge
  /// folds only the leading completed run in ascending-λ order, which is
  /// what makes the partial result an exact comparative-order prefix.
  bool completed = false;
};

// Mines one first-level ⟨λ⟩-partition into `result`, using (and warming)
// `scratch`. Pure function of (db, options, config, lambda, members):
// distinct partitions share nothing but the read-only database, which is
// what makes the partition fan-out safe.
class PartitionMiner {
 public:
  PartitionMiner(const SequenceDatabase& db, const MineOptions& options,
                 const DiscAll::Config& config, Item max_item,
                 Scratch* scratch, PartitionResult* result)
      : db_(db),
        options_(options),
        config_(config),
        max_item_(max_item),
        scratch_(*scratch),
        result_(*result) {}

  void Mine(Item lambda, const std::vector<Cid>& members) {
    DISC_OBS_SPAN("disc/partition");
    if (scratch_.warm) {
      DISC_OBS_INC(g_scratch_reuses);
      if (config_.arena_scratch) DISC_OBS_INC(g_arena_reuses);
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
    const auto freq2 = counts.FrequentExtensions(delta);
    for (const auto& [x, type] : freq2) {
      result_.patterns.Add(Extend(pat1, x, type), counts.Count(x, type));
    }
    if (freq2.empty() || options_.max_length == 2) return;

    // Candidate-bound prune: when no PAIR of frequent 2-extensions can
    // form a valid 3-sequence, this partition provably holds no frequent
    // sequence of length >= 3 (anti-monotone), so the reduce loop, the
    // second-level partitioning, and every DISC pass below are dead work.
    if (config_.bound_pruning &&
        !CandidateBound::CanYieldNextLevel(freq2)) {
      DISC_OBS_INC(g_bound_skips);
      return;
    }

    ExtFilter filter;
    filter.Build(freq2, max_item_);
    auto ext_index = [&](const std::pair<Item, ExtType>& e) {
      const auto it = std::lower_bound(
          freq2.begin(), freq2.end(), e,
          [](const auto& a, const auto& b) {
            return CompareExtensions(a.first, a.second, b.first, b.second) <
                   0;
          });
      DISC_DCHECK(it != freq2.end() && *it == e);
      return static_cast<std::size_t>(it - freq2.begin());
    };

    // Fault-injection hook covering the scratch/reduction path (the
    // allocation-heavy part of a partition mine).
    if (DISC_FAILPOINT("disc.reduce") == failpoint::Action::kError) {
      throw std::runtime_error("failpoint disc.reduce");
    }

    // Reduce members (step 2.1.2) and split into second-level partitions by
    // 2-minimum sequence. Each reduced sequence gets an occurrence index,
    // reused by every later scan over it (keys, counting, DISC passes).
    // The stores and the slot table come from the worker scratch: clear
    // them, keep their capacity. On the arena backend a reduced sequence
    // is appended straight into the flat scratch slab; the index and the
    // key scan read it through a transient back() view that never survives
    // into the next append (the SequenceIndex copies what it needs), so
    // slab regrowth cannot dangle anything.
    std::deque<SequenceIndex>& indexes = scratch_.indexes;
    indexes.clear();
    SequenceArena& arena = scratch_.arena;
    std::deque<Sequence>& reduced_owned = scratch_.reduced_owned;
    arena.Clear();
    reduced_owned.clear();
    std::vector<std::vector<std::uint32_t>>& second_level =
        scratch_.second_level;
    for (auto& slots : second_level) slots.clear();
    if (second_level.size() < freq2.size()) second_level.resize(freq2.size());
    for (const Cid cid : members) {
      SequenceView red;
      if (config_.arena_scratch) {
        if (ReduceCustomerSequenceInto(db_[cid], lambda, counts, delta, 3,
                                       &arena) == 0) {
          continue;
        }
        red = arena.back();
      } else {
        Sequence r = ReduceCustomerSequence(db_[cid], lambda, counts, delta);
        if (r.Length() < 3) continue;
        reduced_owned.push_back(std::move(r));
        red = reduced_owned.back();
      }
      indexes.emplace_back(red);
      const auto key =
          ScanMinFrequentExt(red, pat1, filter, nullptr, &indexes.back());
      if (!key.has_value()) {
        if (config_.arena_scratch) {
          arena.PopBack();
        } else {
          reduced_owned.pop_back();
        }
        indexes.pop_back();
        continue;
      }
      second_level[ext_index(*key)].push_back(
          static_cast<std::uint32_t>(indexes.size() - 1));
    }

    // The append phase is over; collect stable views of the survivors
    // (slot i of the table is sequence i of the store).
    std::vector<SequenceView>& reduced = scratch_.reduced;
    reduced.clear();
    if (config_.arena_scratch) {
      reduced.reserve(arena.size());
      for (std::size_t i = 0; i < arena.size(); ++i) {
        reduced.push_back(arena[i]);
      }
      result_.arena_bytes = arena.SizeBytes();
    } else {
      reduced.reserve(reduced_owned.size());
      for (const Sequence& r : reduced_owned) reduced.push_back(r);
    }

    // Physical level-1 NRR: average second-level size over this
    // first-level partition's size (Equation 2 on actual sizes).
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

    // Process second-level partitions ascending, reassigning forward.
    // Reassignments always move a slot to a strictly later entry (the floor
    // is exclusive), so iterating entry j by reference while appending to
    // entries > j is safe — and not moving the slot vectors out keeps
    // their capacity for the next first-level partition.
    for (std::size_t j = 0; j < freq2.size(); ++j) {
      const std::vector<std::uint32_t>& slots = second_level[j];
      if (slots.empty()) continue;
      if (slots.size() >= delta) {
        DISC_OBS_INC(g_second_level_partitions);
        DISC_OBS_RECORD(g_second_level_size, slots.size());
        ProcessSecondLevel(Extend(pat1, freq2[j].first, freq2[j].second),
                           freq2[j].second, filter, reduced, indexes, slots,
                           delta);
      }
      for (const std::uint32_t slot : slots) {
        const auto next = ScanMinFrequentExt(reduced[slot], pat1, filter,
                                             &freq2[j], &indexes[slot]);
        if (next.has_value()) second_level[ext_index(*next)].push_back(slot);
      }
    }
  }

  void ProcessSecondLevel(const Sequence& pat2, ExtType e1_type,
                          const ExtFilter& filter2,
                          const std::vector<SequenceView>& reduced,
                          const std::deque<SequenceIndex>& indexes,
                          const std::vector<std::uint32_t>& slots,
                          std::uint32_t delta) {
    // Frequent 3-sequences with prefix pat2, again in one counting-array
    // scan (step 2.1.3.1).
    //
    // Apriori pre-filter (part of the candidate-bound pruning family, so
    // gated with it): pat2 = <(λ)> ⊕ e1, and a 3-sequence pat2 ⊕ (y, t)
    // contains the 2-subsequence <(λ)> ⊕ e' obtained by dropping e1's
    // item, where e' = (y, t) when e1 is itemset-form (y stays in, or
    // after, λ's transaction) and e' = (y, kSequence) when e1 is
    // sequence-form (y lands in a transaction strictly after λ's). The
    // partition is complete for prefix λ, so freq2 holds EVERY frequent
    // 2-sequence <(λ)> ⊕ e'; when e' is not in it, the 3-sequence's
    // support is provably below delta and the probe can be skipped before
    // it touches the counting array.
    CountingArray& counts = scratch_.counts;
    counts.Reset();
    const bool apriori = config_.bound_pruning;
    const bool e1_itemset = e1_type == ExtType::kItemset;
    std::uint64_t filtered = 0;
    for (const std::uint32_t slot : slots) {
      ForEachExtension(
          reduced[slot], pat2,
          [&](Item x, ExtType type) {
            if (apriori &&
                !filter2.IsFrequent(
                    x, e1_itemset ? type : ExtType::kSequence)) {
              ++filtered;
              return;
            }
            counts.Add(x, type, slot);
          },
          &indexes[slot]);
    }
    DISC_OBS_ADD(g_bound_filtered, filtered);
    const auto freq3 = counts.FrequentExtensions(delta);
    std::vector<Sequence> sorted_list;
    sorted_list.reserve(freq3.size());
    for (const auto& [x, type] : freq3) {
      Sequence p = Extend(pat2, x, type);
      result_.patterns.Add(p, counts.Count(x, type));
      sorted_list.push_back(std::move(p));
    }
    if (options_.max_length != 0 && options_.max_length <= 3) return;

    // Same prune one level down: a zero bound over freq3 means no
    // 4-sequence candidate with prefix pat2 exists, so skip building the
    // k-sorted database (whose Apriori-KMS initial scans dominate small
    // second-level partitions) and the DISC loop.
    if (config_.bound_pruning &&
        !CandidateBound::CanYieldNextLevel(freq3)) {
      DISC_OBS_INC(g_bound_skips);
      return;
    }

    // DISC for k >= 4 (step 2.1.3.2).
    PartitionMembers& pairs = scratch_.pairs;
    pairs.clear();
    pairs.reserve(slots.size());
    for (const std::uint32_t slot : slots) {
      pairs.push_back({reduced[slot], &indexes[slot], slot});
    }
    RunDiscLoop(pairs, std::move(sorted_list), 4, delta, config_.bilevel,
                max_item_, options_.max_length, &result_.patterns, nullptr,
                config_.use_avl);
  }

  const SequenceDatabase& db_;
  const MineOptions& options_;
  const DiscAll::Config& config_;
  const Item max_item_;
  Scratch& scratch_;
  PartitionResult& result_;
};

class Run {
 public:
  /// `ctl` and `tel` may be null (no cancellation/deadline/error plumbing,
  /// no live telemetry). `fl` may be null (steps 1-2 scan the database);
  /// non-null, it must have been built from `db` (core/first_level.h).
  Run(const SequenceDatabase& db, const MineOptions& options,
      const DiscAll::Config& config, RunControl* ctl, obs::RunTelemetry* tel,
      const FirstLevelState* fl)
      : db_(db),
        options_(options),
        config_(config),
        ctl_(ctl),
        tel_(tel),
        fl_(fl) {}

  bool ShouldStop() { return ctl_ != nullptr && ctl_->ShouldStop(); }

  PatternSet Execute() {
    const std::uint32_t delta = options_.min_support_count;
    if (db_.empty() || delta > db_.size()) return std::move(out_);
    const Item max_item = db_.max_item();

    // ---- Step 1: per-item supports and frequent 1-sequences — reused
    // from the provided first-level state (threshold-independent, see
    // core/first_level.h) or found in one scan.
    std::vector<std::uint32_t> item_support_local;
    std::vector<std::uint64_t> seen;
    if (fl_ == nullptr) {
      item_support_local.assign(max_item + 1, 0);
      seen.assign(max_item + 1, 0);
      for (Cid cid = 0; cid < db_.size(); ++cid) {
        for (const Item x : db_[cid].items()) {
          if (seen[x] != cid + 1u) {
            seen[x] = cid + 1u;
            ++item_support_local[x];
          }
        }
      }
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
    // (second scan, stamps offset past the first scan's) makes them
    // independently minable — and, being threshold-independent, reusable
    // verbatim from the cached state (which holds every item's partition;
    // the lambdas loop below only walks the frequent ones).
    std::vector<std::vector<Cid>> members_local;
    if (fl_ == nullptr) {
      members_local.resize(max_item + 1);
      for (Item x = 1; x <= max_item; ++x) {
        if (item_support[x] >= delta) {
          members_local[x].reserve(item_support[x]);
        }
      }
      const std::uint64_t stamp_base = db_.size();
      for (Cid cid = 0; cid < db_.size(); ++cid) {
        for (const Item x : db_[cid].items()) {
          if (item_support[x] < delta) continue;
          if (seen[x] != stamp_base + cid + 1u) {
            seen[x] = stamp_base + cid + 1u;
            members_local[x].push_back(cid);
          }
        }
      }
    }
    const std::vector<std::vector<Cid>>& members_of =
        fl_ != nullptr ? fl_->members_of : members_local;
    std::vector<Item> lambdas;
    for (Item x = 1; x <= max_item; ++x) {
      if (item_support[x] >= delta) {
        DISC_CHECK(members_of[x].size() == item_support[x]);
        lambdas.push_back(x);
      }
    }
    if (tel_ != nullptr) {
      // Progress plan: one unit per ⟨λ⟩-partition, weighted by member
      // count (the ETA's cost surrogate — see obs/progress.h).
      std::uint64_t total_weight = 0;
      for (const Item x : lambdas) total_weight += members_of[x].size();
      tel_->BeginPartitions(lambdas.size(), total_weight);
      tel_->AddPatterns(out_.size());  // the frequent 1-sequences
    }

    // ---- Step 3: fan the partitions out (largest first, so no huge
    // partition lands last and stretches the tail), then fold the results
    // in ascending-λ order.
    std::vector<PartitionResult> results(lambdas.size());
    std::size_t nthreads = ResolveThreadCount(options_.threads);
    if (nthreads > lambdas.size()) {
      nthreads = lambdas.size() == 0 ? 1 : lambdas.size();
    }
    DISC_OBS_SET(g_mine_threads, static_cast<double>(nthreads));
    {
      DISC_OBS_SPAN("disc/partitions");
      if (nthreads <= 1) {
        Scratch scratch(max_item);
        for (std::size_t i = 0; i < lambdas.size(); ++i) {
          // Cancellation checkpoint: partitions are all-or-nothing, so a
          // stop between partitions keeps every emitted support exact.
          // The same boundary ticks the run telemetry.
          if (ShouldStop()) break;
          if (tel_ != nullptr) tel_->PartitionStarted(lambdas[i]);
          try {
            PartitionMiner(db_, options_, config_, PartitionBound(lambdas[i]),
                           &scratch, &results[i])
                .Mine(lambdas[i], members_of[lambdas[i]]);
          } catch (const std::exception& e) {
            if (tel_ != nullptr) tel_->PartitionAborted(lambdas[i]);
            if (ctl_ == nullptr) throw;
            ctl_->ReportError(Status::Internal(
                std::string("partition mining failed: ") + e.what()));
            break;
          }
          results[i].completed = true;
          if (tel_ != nullptr) {
            tel_->PartitionDone(lambdas[i], members_of[lambdas[i]].size(),
                                results[i].patterns.size());
          }
        }
      } else {
        std::vector<std::size_t> order(lambdas.size());
        std::iota(order.begin(), order.end(), std::size_t{0});
        std::stable_sort(order.begin(), order.end(),
                         [&](std::size_t a, std::size_t b) {
                           return members_of[lambdas[a]].size() >
                                  members_of[lambdas[b]].size();
                         });
        std::deque<Scratch> scratches;
        for (std::size_t w = 0; w < nthreads; ++w) {
          scratches.emplace_back(max_item);
        }
        ThreadPool pool(nthreads);
        for (const std::size_t i : order) {
          pool.Submit([this, i, &lambdas, &members_of, &scratches,
                       &results](std::size_t worker) {
            // Cancellation checkpoint: a stopped task leaves its result
            // incomplete, and the merge below discards it. The same
            // boundary ticks the run telemetry.
            if (ShouldStop()) return;
            if (tel_ != nullptr) tel_->PartitionStarted(lambdas[i]);
            try {
              PartitionMiner(db_, options_, config_,
                             PartitionBound(lambdas[i]), &scratches[worker],
                             &results[i])
                  .Mine(lambdas[i], members_of[lambdas[i]]);
            } catch (...) {
              if (tel_ != nullptr) tel_->PartitionAborted(lambdas[i]);
              throw;  // contained by the pool (TakeFirstError below)
            }
            results[i].completed = true;
            if (tel_ != nullptr) {
              tel_->PartitionDone(lambdas[i], members_of[lambdas[i]].size(),
                                  results[i].patterns.size());
            }
          });
        }
        pool.Wait();
        if (std::exception_ptr err = pool.TakeFirstError()) {
          // A worker threw (miner bug or injected fault): its partition is
          // incomplete and the pool drained the rest, so the merge below
          // degrades to the same exact-prefix partial result as a
          // cancellation. Surface the root cause as the run's Status; with
          // no RunControl to carry it, fall back to propagating.
          if (ctl_ == nullptr) std::rethrow_exception(err);
          try {
            std::rethrow_exception(err);
          } catch (const std::exception& e) {
            ctl_->ReportError(Status::Internal(
                std::string("worker task failed: ") + e.what()));
          } catch (...) {
            ctl_->ReportError(
                Status::Internal("worker task failed: unknown exception"));
          }
        }
      }
    }

    // ---- Step 4: deterministic merge. Patterns of length >= 2 with
    // minimum item λ are found only in the ⟨λ⟩-partition, so the union is
    // disjoint; folding ascending in λ keeps the gauge arithmetic (and
    // with it MineStats) independent of scheduling. Each partition's
    // patterns move into the output (they sit contiguously after ⟨(λ)⟩),
    // so no second copy of the result is ever alive.
    //
    // On a stop (cancellation, deadline, contained worker failure) only
    // the leading run of completed partitions is merged, and the
    // 1-sequences from step 1 are trimmed to the same λ cutoff: every
    // pattern whose first item is >= the first incomplete λ is dropped.
    // Because the comparative order decides on position 0 first, what
    // remains is byte-for-byte the prefix of the full serial result below
    // ⟨(λ_cutoff)⟩ — exact supports, no gaps (docs/ROBUSTNESS.md).
    std::size_t merged = results.size();
    for (std::size_t i = 0; i < results.size(); ++i) {
      if (!results[i].completed) {
        merged = i;
        break;
      }
    }
    std::uint64_t level0_partitions = 0;
    double level0_ratio_sum = 0.0;
    double level1_ratio_sum = 0.0;
    std::uint64_t level1_partitions = 0;
    std::size_t arena_bytes_peak = 0;
    for (std::size_t i = 0; i < merged; ++i) {
      PartitionResult& r = results[i];
      out_.Absorb(std::move(r.patterns));
      ++level0_partitions;
      level0_ratio_sum += r.level0_ratio;
      if (r.has_level1) {
        level1_ratio_sum += r.level1_ratio;
        ++level1_partitions;
      }
      arena_bytes_peak = std::max(arena_bytes_peak, r.arena_bytes);
    }
    if (merged < lambdas.size()) out_.EraseFromFirstItem(lambdas[merged]);
    if (config_.arena_scratch && level0_partitions > 0) {
      DISC_OBS_SET(g_arena_bytes, static_cast<double>(arena_bytes_peak));
    }
    if (level0_partitions > 0) {
      DISC_OBS_SET(g_physical_nrr_level0,
                   level0_ratio_sum /
                       static_cast<double>(level0_partitions));
    }
    if (level1_partitions > 0) {
      DISC_OBS_SET(g_physical_nrr_level1,
                   level1_ratio_sum /
                       static_cast<double>(level1_partitions));
    }
    return std::move(out_);
  }

 private:
  /// Sizing bound for one ⟨λ⟩-partition's tables: the cached alphabet's
  /// largest item when first-level state was provided, the global maximum
  /// otherwise. Sizing only — the emitted patterns are identical either
  /// way (core/first_level.h).
  Item PartitionBound(Item lambda) const {
    return fl_ != nullptr ? fl_->PartitionMaxItem(lambda) : db_.max_item();
  }

  const SequenceDatabase& db_;
  const MineOptions& options_;
  const DiscAll::Config& config_;
  RunControl* ctl_;
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
  Run run(db, options, config_, run_control(), telemetry(), fl);
  return run.Execute();
}

}  // namespace disc
