#include "disc/core/dynamic_disc_all.h"

#include <algorithm>
#include <deque>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "disc/common/cancel.h"
#include "disc/common/check.h"
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
DISC_OBS_COUNTER(g_partitions_split, "dynamic.partitions_split");
DISC_OBS_COUNTER(g_partitions_to_disc, "dynamic.partitions_to_disc");
DISC_OBS_COUNTER(g_bound_skips, "disc.bound.skips");
DISC_OBS_GAUGE(g_mine_threads, "mine.threads");
DISC_OBS_HISTOGRAM(g_partition_nrr, "dynamic.partition_nrr_x1000");

using Members = PartitionMembers;

class Run {
 public:
  /// `ctl` and `tel` may be null (no cancellation/deadline/error plumbing,
  /// no live telemetry). `fl` may be null (the root level scans); non-null,
  /// it must have been built from `db` (core/first_level.h).
  Run(const SequenceDatabase& db, const MineOptions& options,
      const DynamicDiscAll::Config& config, RunControl* ctl,
      obs::RunTelemetry* tel, const FirstLevelState* fl)
      : db_(db),
        options_(options),
        config_(config),
        ctl_(ctl),
        tel_(tel),
        fl_(fl) {}

  bool ShouldStop() { return ctl_ != nullptr && ctl_->ShouldStop(); }

  PatternSet Execute() {
    if (db_.empty() || options_.min_support_count > db_.size()) {
      return std::move(out_);
    }
    // One occurrence index per customer sequence, shared by every level of
    // the recursion and by the DISC passes (memory: O(total items)). Built
    // before any fan-out; immutable afterwards, so workers share it freely.
    Members all;
    all.reserve(db_.size());
    for (Cid cid = 0; cid < db_.size(); ++cid) {
      if (db_[cid].Empty()) continue;
      indexes_.emplace_back(db_[cid]);
      all.push_back({db_[cid], &indexes_.back(), cid});
    }
    const std::size_t nthreads = ResolveThreadCount(options_.threads);
    DISC_OBS_SET(g_mine_threads, static_cast<double>(nthreads));
    if (nthreads <= 1) {
      Recurse(Sequence(), all, &out_);
    } else {
      ParallelRoot(all, nthreads);
    }
    // On a stop the root loop records the first unmined root child; erasing
    // everything from that item yields the exact comparative-order prefix
    // of the full result (same rule as DISC-all; docs/ROBUSTNESS.md).
    if (root_truncated_) out_.EraseFromFirstItem(root_cutoff_);
    return std::move(out_);
  }

 private:
  // Processes the <prefix>-partition `members` (Appendix algorithm; the
  // original database is the empty-prefix partition), adding every frequent
  // sequence to `out`.
  void Recurse(const Sequence& prefix, const Members& members,
               PatternSet* out) {
    const std::uint32_t delta = options_.min_support_count;
    const std::uint32_t k = prefix.Length();
    if (members.size() < delta) return;
    if (options_.max_length != 0 && k >= options_.max_length) return;

    // Step 1: frequent (k+1)-sequences with this prefix. The root level
    // (empty prefix) reads them off provided first-level state when it has
    // one — the extensions of the empty prefix are exactly the frequent
    // items, sequence-form, with support equal to the item support, in the
    // same ascending order FrequentExtensions produces. Deeper levels are
    // prefix-dependent and always scan.
    std::vector<std::pair<Item, ExtType>> freq;
    std::vector<std::uint32_t> sups;
    if (k == 0 && fl_ != nullptr) {
      DISC_OBS_INC(g_first_level_reuses);
      for (Item x = 1; x <= fl_->max_item; ++x) {
        if (fl_->item_support[x] >= delta) {
          freq.emplace_back(x, ExtType::kSequence);
          sups.push_back(fl_->item_support[x]);
        }
      }
    } else {
      CountingArray counts(db_.max_item());
      for (const PartitionMember& m : members) {
        ForEachExtension(
            m.seq, prefix,
            [&counts, &m](Item x, ExtType type) {
              counts.Add(x, type, m.cid);
            },
            m.index);
      }
      freq = counts.FrequentExtensions(delta);
#if DISC_OBS_ENABLED
      // Dynamic DISC-all does support-count patterns of any length while
      // it keeps partitioning; attribute them like the bi-level harvests
      // do.
      if (k + 1 >= 4) {
        DISC_OBS_COUNTER(g_k4plus, "support.increments.k4plus");
        DISC_OBS_ADD(g_k4plus, counts.increments_since_reset());
      }
#endif
      sups.reserve(freq.size());
      for (const auto& [x, type] : freq) {
        sups.push_back(counts.Count(x, type));
      }
    }
    std::uint64_t child_support_sum = 0;
    for (std::size_t j = 0; j < freq.size(); ++j) {
      out->Add(Extend(prefix, freq[j].first, freq[j].second), sups[j]);
      child_support_sum += sups[j];
    }
    if (k == 0 && tel_ != nullptr) {
      tel_->AddPatterns(freq.size());  // the frequent 1-sequences
    }
    if (freq.empty()) return;
    if (options_.max_length != 0 && k + 1 >= options_.max_length) return;

    // Candidate-bound prune: a zero bound over the frequent (k+1)-set
    // means no (k+2)-candidate with this prefix exists, and by
    // anti-monotonicity nothing deeper either — neither splitting further
    // nor switching to DISC can emit another pattern, so both are skipped.
    if (config_.bound_pruning &&
        !CandidateBound::CanYieldNextLevel(freq)) {
      DISC_OBS_INC(g_bound_skips);
      return;
    }

    // Step 2: the non-reduction rate of this partition (or a fixed depth
    // policy when configured).
    const double nrr =
        static_cast<double>(child_support_sum) /
        (static_cast<double>(freq.size()) *
         static_cast<double>(members.size()));
    const bool split =
        config_.fixed_levels >= 0
            ? k < static_cast<std::uint32_t>(config_.fixed_levels)
            : nrr < config_.gamma;
    DISC_OBS_RECORD(g_partition_nrr,
                    static_cast<std::uint64_t>(nrr * 1000.0));

    if (split) {
      // Step 3: partition one level deeper and recurse, reassigning each
      // member to its next child partition afterwards.
      DISC_OBS_INC(g_partitions_split);
      ExtFilter filter;
      filter.Build(freq, db_.max_item());
      auto ext_index = [&](const std::pair<Item, ExtType>& e) {
        const auto it = std::lower_bound(
            freq.begin(), freq.end(), e, [](const auto& a, const auto& b) {
              return CompareExtensions(a.first, a.second, b.first, b.second) <
                     0;
            });
        DISC_DCHECK(it != freq.end() && *it == e);
        return static_cast<std::size_t>(it - freq.begin());
      };
      std::vector<Members> children(freq.size());
      for (const PartitionMember& member : members) {
        const auto key = ScanMinFrequentExt(member.seq, prefix, filter,
                                            nullptr, member.index);
        if (key.has_value()) children[ext_index(*key)].push_back(member);
      }
      // Progress plan (root level only): one unit per root child. The
      // serial reassign-forward loop grows children as it goes, so there
      // is no static per-child weight — progress is count-based (weight 1
      // each; the parallel root, whose children are static, weights them).
      const bool root_tel = k == 0 && tel_ != nullptr;
      if (root_tel) tel_->BeginPartitions(freq.size(), freq.size());
      for (std::size_t j = 0; j < freq.size(); ++j) {
        // Cancellation checkpoint (root children only — one root child is
        // the unit of partial-result bookkeeping, like a ⟨λ⟩-partition in
        // DISC-all). Deeper levels run their child to completion. The same
        // boundary ticks the run telemetry.
        if (k == 0 && ShouldStop()) {
          root_truncated_ = true;
          root_cutoff_ = freq[j].first;
          break;
        }
        if (root_tel) tel_->PartitionStarted(freq[j].first);
        const std::size_t patterns_before = out->size();
        Members child = std::move(children[j]);
        if (!child.empty()) {
          if (child.size() >= delta) {
            Recurse(Extend(prefix, freq[j].first, freq[j].second), child,
                    out);
          }
          for (const PartitionMember& member : child) {
            const auto next = ScanMinFrequentExt(member.seq, prefix, filter,
                                                 &freq[j], member.index);
            if (next.has_value()) {
              children[ext_index(*next)].push_back(member);
            }
          }
        }
        if (root_tel) {
          tel_->PartitionDone(freq[j].first, 1,
                              out->size() - patterns_before);
        }
      }
    } else {
      // Step 4: the partitioning overhead no longer pays; DISC finds every
      // remaining length in this partition. A root partition that goes
      // straight to DISC is one indivisible unit: a stop observed here
      // trims the result to the prefix below the smallest frequent item
      // (i.e. empty).
      if (k == 0 && ShouldStop()) {
        root_truncated_ = true;
        root_cutoff_ = freq[0].first;
        return;
      }
      // A root partition that goes straight to DISC is one progress unit.
      const bool root_tel = k == 0 && tel_ != nullptr;
      if (root_tel) {
        tel_->BeginPartitions(1, 1);
        tel_->PartitionStarted(0);
      }
      DISC_OBS_INC(g_partitions_to_disc);
      std::vector<Sequence> sorted_list;
      sorted_list.reserve(freq.size());
      for (const auto& [x, type] : freq) {
        sorted_list.push_back(Extend(prefix, x, type));
      }
      const std::size_t patterns_before = out->size();
      RunDiscLoop(members, std::move(sorted_list), k + 2, delta,
                  config_.bilevel, db_.max_item(), options_.max_length,
                  out, nullptr);
      if (root_tel) {
        tel_->PartitionDone(0, 1, out->size() - patterns_before);
      }
    }
  }

  // The root level of Recurse with the first-level children fanned out to a
  // pool. A root child ⟨(x)⟩-partition is exactly the members whose
  // sequence contains the frequent item x (the serial reassign-forward loop
  // walks each member through the child of every frequent item it
  // contains), so the children are statically determined and independently
  // minable; their PatternSets merge disjointly in comparative (item)
  // order, making the output identical to the serial recursion.
  void ParallelRoot(const Members& members, std::size_t nthreads) {
    const std::uint32_t delta = options_.min_support_count;
    const Sequence empty_prefix;

    // Step 1: frequent 1-sequences (extensions of the empty prefix are the
    // distinct items, sequence-form only) — read off provided first-level
    // state, or found in one scan.
    std::vector<std::pair<Item, ExtType>> freq;
    std::vector<std::uint32_t> sups;
    if (fl_ != nullptr) {
      DISC_OBS_INC(g_first_level_reuses);
      for (Item x = 1; x <= fl_->max_item; ++x) {
        if (fl_->item_support[x] >= delta) {
          freq.emplace_back(x, ExtType::kSequence);
          sups.push_back(fl_->item_support[x]);
        }
      }
    } else {
      CountingArray counts(db_.max_item());
      for (const PartitionMember& m : members) {
        ForEachExtension(
            m.seq, empty_prefix,
            [&counts, &m](Item x, ExtType type) {
              counts.Add(x, type, m.cid);
            },
            m.index);
      }
      freq = counts.FrequentExtensions(delta);
      sups.reserve(freq.size());
      for (const auto& [x, type] : freq) {
        sups.push_back(counts.Count(x, type));
      }
    }
    std::uint64_t child_support_sum = 0;
    for (std::size_t j = 0; j < freq.size(); ++j) {
      out_.Add(Extend(empty_prefix, freq[j].first, freq[j].second), sups[j]);
      child_support_sum += sups[j];
    }
    if (tel_ != nullptr) {
      tel_->AddPatterns(freq.size());  // the frequent 1-sequences
    }
    if (freq.empty()) return;
    if (options_.max_length == 1) return;

    // Step 2: root split decision, same arithmetic as Recurse.
    const double nrr =
        static_cast<double>(child_support_sum) /
        (static_cast<double>(freq.size()) *
         static_cast<double>(members.size()));
    const bool split = config_.fixed_levels >= 0
                           ? 0 < config_.fixed_levels
                           : nrr < config_.gamma;
    DISC_OBS_RECORD(g_partition_nrr,
                    static_cast<std::uint64_t>(nrr * 1000.0));
    if (!split) {
      // The whole database switches to DISC at once — no partitions to
      // fan out; run the loop on the calling thread as the serial path
      // would (and honor a stop the same way).
      if (ShouldStop()) {
        root_truncated_ = true;
        root_cutoff_ = freq[0].first;
        return;
      }
      // One indivisible progress unit, as on the serial path.
      if (tel_ != nullptr) {
        tel_->BeginPartitions(1, 1);
        tel_->PartitionStarted(0);
      }
      DISC_OBS_INC(g_partitions_to_disc);
      std::vector<Sequence> sorted_list;
      sorted_list.reserve(freq.size());
      for (const auto& [x, type] : freq) {
        sorted_list.push_back(Extend(empty_prefix, x, type));
      }
      const std::size_t patterns_before = out_.size();
      RunDiscLoop(members, std::move(sorted_list), 2, delta, config_.bilevel,
                  db_.max_item(), options_.max_length, &out_, nullptr);
      if (tel_ != nullptr) {
        tel_->PartitionDone(0, 1, out_.size() - patterns_before);
      }
      return;
    }

    // Step 3: static children — member m joins the child of every frequent
    // item it contains. With first-level state the children come straight
    // from the cached ⟨x⟩-partition memberships (ascending CIDs — the same
    // order the stamp walk below produces); otherwise a plain
    // item -> child-index table replaces the binary search.
    DISC_OBS_INC(g_partitions_split);
    std::vector<Members> children(freq.size());
    if (fl_ != nullptr) {
      // The cached partitions hold CIDs; map them back to this run's
      // member records (position i of `members` is the i-th non-empty
      // sequence, ascending cid).
      constexpr std::uint32_t kNoMember = ~std::uint32_t{0};
      std::vector<std::uint32_t> member_at(db_.size(), kNoMember);
      for (std::size_t i = 0; i < members.size(); ++i) {
        member_at[members[i].cid] = static_cast<std::uint32_t>(i);
      }
      for (std::size_t j = 0; j < freq.size(); ++j) {
        DISC_CHECK(freq[j].second == ExtType::kSequence);
        const std::vector<Cid>& cids = fl_->members_of[freq[j].first];
        children[j].reserve(cids.size());
        for (const Cid cid : cids) {
          DISC_DCHECK(member_at[cid] != kNoMember);
          children[j].push_back(members[member_at[cid]]);
        }
      }
    } else {
      std::vector<std::size_t> child_of(db_.max_item() + 1, freq.size());
      for (std::size_t j = 0; j < freq.size(); ++j) {
        DISC_CHECK(freq[j].second == ExtType::kSequence);
        child_of[freq[j].first] = j;
      }
      std::vector<std::uint64_t> seen(db_.max_item() + 1, 0);
      std::uint64_t stamp = 0;
      for (const PartitionMember& member : members) {
        ++stamp;
        for (const Item x : member.seq.items()) {
          const std::size_t j = child_of[x];
          if (j == freq.size() || seen[x] == stamp) continue;
          seen[x] = stamp;
          children[j].push_back(member);
        }
      }
    }

    // Step 4: fan the viable children out largest-first; merge in child
    // (comparative) order.
    std::vector<std::size_t> viable;
    for (std::size_t j = 0; j < freq.size(); ++j) {
      if (children[j].size() >= delta) viable.push_back(j);
    }
    if (tel_ != nullptr) {
      // Progress plan: the root children are static here, so each viable
      // child is one unit weighted by its member count (non-viable
      // children hold no pattern of length >= 2 and cost nothing).
      std::uint64_t total_weight = 0;
      for (const std::size_t j : viable) total_weight += children[j].size();
      tel_->BeginPartitions(viable.size(), total_weight);
    }
    std::vector<PatternSet> results(viable.size());
    // One flag per viable child, each written by exactly one task; the
    // merge reads them only after pool.Wait().
    std::vector<char> completed(viable.size(), 0);
    std::vector<std::size_t> order(viable.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return children[viable[a]].size() >
                              children[viable[b]].size();
                     });
    {
      DISC_OBS_SPAN("dynamic/partitions");
      ThreadPool pool(nthreads);
      for (const std::size_t i : order) {
        pool.Submit([this, i, &viable, &freq, &children, &results, &completed,
                     &empty_prefix](std::size_t) {
          // Cancellation checkpoint: a stopped task leaves its child
          // incomplete, and the merge below discards it. The same boundary
          // ticks the run telemetry.
          if (ShouldStop()) return;
          DISC_OBS_SPAN("dynamic/partition");
          const std::size_t j = viable[i];
          if (tel_ != nullptr) tel_->PartitionStarted(freq[j].first);
          try {
            Recurse(Extend(empty_prefix, freq[j].first, freq[j].second),
                    children[j], &results[i]);
          } catch (...) {
            if (tel_ != nullptr) tel_->PartitionAborted(freq[j].first);
            throw;  // contained by the pool (TakeFirstError below)
          }
          completed[i] = 1;
          if (tel_ != nullptr) {
            tel_->PartitionDone(freq[j].first, children[j].size(),
                                results[i].size());
          }
        });
      }
      pool.Wait();
      if (std::exception_ptr err = pool.TakeFirstError()) {
        // A worker threw: its child stays incomplete and the pool drained
        // the rest, so the merge degrades to the same exact-prefix partial
        // result as a cancellation.
        if (ctl_ == nullptr) std::rethrow_exception(err);
        try {
          std::rethrow_exception(err);
        } catch (const std::exception& e) {
          ctl_->ReportError(
              Status::Internal(std::string("worker task failed: ") + e.what()));
        } catch (...) {
          ctl_->ReportError(
              Status::Internal("worker task failed: unknown exception"));
        }
      }
    }
    // Merge the leading run of completed children (ascending item order);
    // on a stop, record the first incomplete child as the truncation
    // cutoff. Children below delta are trivially complete — they can hold
    // no pattern of length >= 2 — so only viable ones gate the prefix.
    std::size_t merged = viable.size();
    for (std::size_t i = 0; i < viable.size(); ++i) {
      if (!completed[i]) {
        merged = i;
        break;
      }
    }
    for (std::size_t i = 0; i < merged; ++i) {
      out_.Absorb(std::move(results[i]));
    }
    if (merged < viable.size()) {
      root_truncated_ = true;
      root_cutoff_ = freq[viable[merged]].first;
    }
  }

  const SequenceDatabase& db_;
  const MineOptions& options_;
  const DynamicDiscAll::Config& config_;
  RunControl* ctl_;
  obs::RunTelemetry* tel_;
  const FirstLevelState* fl_;
  std::deque<SequenceIndex> indexes_;
  PatternSet out_;
  // Set when a stop (or contained failure) left root children unmined;
  // Execute() erases every pattern with first item >= root_cutoff_.
  bool root_truncated_ = false;
  Item root_cutoff_ = 0;
};

}  // namespace

PatternSet DynamicDiscAll::DoMine(const SequenceDatabase& db,
                                  const MineOptions& options) {
  DISC_CHECK(options.min_support_count >= 1);
  // A provided first-level state must describe this database — a stale
  // state would silently mine wrong root children (core/first_level.h).
  const FirstLevelState* fl = first_level_.get();
  if (fl != nullptr) DISC_CHECK(fl->Matches(db));
  Run run(db, options, config_, run_control(), telemetry(), fl);
  return run.Execute();
}

}  // namespace disc
