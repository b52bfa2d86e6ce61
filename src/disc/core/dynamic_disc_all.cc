#include "disc/core/dynamic_disc_all.h"

#include <deque>
#include <utility>
#include <vector>

#include "disc/common/check.h"
#include "disc/core/counting_array.h"
#include "disc/core/partition.h"
#include "disc/core/scheduler.h"
#include "disc/obs/metrics.h"
#include "disc/seq/extension.h"

namespace disc {
namespace {

DISC_OBS_COUNTER(g_first_level_reuses, "disc.first_level.reuses");
DISC_OBS_COUNTER(g_partitions_split, "dynamic.partitions_split");
DISC_OBS_COUNTER(g_partitions_to_disc, "dynamic.partitions_to_disc");
DISC_OBS_HISTOGRAM(g_partition_nrr, "dynamic.partition_nrr_x1000");

using Members = PartitionMembers;

// Per-worker reusable state, shared by every level of the recursion a
// worker runs: one counting array sized by the database's alphabet (a level
// reads its counts before it descends or runs DISC, which then reuse the
// array) and the child-slot table (dead once a level's enrollment loop
// ends). Building either per level costs O(max item) each time, which
// dominates on a large alphabet.
struct Scratch {
  explicit Scratch(Item max_item) : counts(max_item) {}

  CountingArray counts;
  ChildSlots child_slots;
};

class Run {
 public:
  /// `tel` may be null (no live telemetry). `fl` may be null (the root
  /// level scans); non-null, it must have been built from `db`
  /// (core/first_level.h).
  Run(const SequenceDatabase& db, const MineOptions& options,
      const DynamicDiscAll::Config& config, RunControl& ctl,
      obs::RunTelemetry* tel, const FirstLevelState* fl)
      : db_(db),
        options_(options),
        config_(config),
        ctl_(ctl),
        tel_(tel),
        fl_(fl) {}

  // The root level: the original database is the empty-prefix partition.
  PatternSet Execute() {
    const std::uint32_t delta = options_.min_support_count;
    if (db_.empty() || delta > db_.size()) return std::move(out_);
    // One occurrence index per customer sequence (indexes_[cid]), shared by
    // every level of the recursion and by the DISC passes (memory: O(total
    // items)). Built before any fan-out; immutable afterwards, so workers
    // share it freely.
    indexes_.reserve(db_.size());
    std::size_t sequences = 0;  // the non-empty ones: the root's members
    for (Cid cid = 0; cid < db_.size(); ++cid) {
      indexes_.emplace_back(db_[cid]);
      if (!db_[cid].Empty()) ++sequences;
    }

    // Step 1: the frequent 1-sequences are the frequent items, with their
    // item supports — read off provided first-level state, or found in one
    // scan.
    std::vector<std::uint32_t> support_local;
    if (fl_ == nullptr) {
      support_local = CountItemSupport(db_);
    } else {
      DISC_OBS_INC(g_first_level_reuses);
    }
    const std::vector<std::uint32_t>& support =
        fl_ != nullptr ? fl_->item_support : support_local;
    std::vector<Item> items;
    std::vector<std::uint64_t> supports;
    for (Item x = 1; x <= db_.max_item(); ++x) {
      if (support[x] < delta) continue;
      items.push_back(x);
      supports.push_back(support[x]);
      Sequence p;
      p.AppendNewItemset(x);
      out_.Add(p, support[x]);
    }
    if (tel_ != nullptr) tel_->AddPatterns(items.size());
    if (items.empty() || options_.max_length == 1) return std::move(out_);

    // Step 2: the root's non-reduction rate decides between splitting it
    // and running DISC on the whole database.
    const bool split = SplitDecision(supports, sequences, 0);

    // Step 3: mine the root's partitions (core/scheduler.h). Split, they
    // are the static children: the ⟨(x)⟩-partition is exactly the sequences
    // containing the frequent item x (the reassign-forward loop walks each
    // sequence through the child of every frequent item it contains), so
    // the children are independently minable and their results merge
    // disjointly in item order. Unsplit, the whole database is one
    // partition, mined on the calling thread.
    std::vector<PatternSet> results(split ? items.size() : 1);
    std::vector<std::vector<Cid>> members_local;
    std::size_t merged = 0;
    // The scratches flush their counting-array tallies when destroyed, so
    // they die with Execute(), before the run's stats are read.
    std::deque<Scratch> scratches;
    if (split) {
      DISC_OBS_INC(g_partitions_split);
      if (fl_ == nullptr) {
        members_local = CollectPartitionMembers(db_, support, delta);
      }
      const std::vector<std::vector<Cid>>& members_of =
          fl_ != nullptr ? fl_->members_of : members_local;
      // A child keeps only its CIDs until its task starts; the member
      // records live just as long as the task.
      const std::size_t workers =
          PartitionWorkers(options_.threads, items.size());
      for (std::size_t w = 0; w < workers; ++w) {
        scratches.emplace_back(db_.max_item());
      }
      merged = MinePartitions(
          items, supports, workers, ctl_, tel_,
          [&](std::size_t i, std::size_t worker) -> std::uint64_t {
            Members child;
            child.reserve(members_of[items[i]].size());
            for (const Cid cid : members_of[items[i]]) {
              child.push_back(Member(cid));
            }
            Recurse(Extend(Sequence(), items[i], ExtType::kSequence), child,
                    &scratches[worker], &results[i]);
            return results[i].size();
          });
    } else {
      scratches.emplace_back(db_.max_item());
      merged = MinePartitions(
          {items[0]}, {sequences}, 1, ctl_, tel_,
          [&](std::size_t, std::size_t) -> std::uint64_t {
            Members all;
            all.reserve(sequences);
            for (Cid cid = 0; cid < db_.size(); ++cid) {
              if (!db_[cid].Empty()) all.push_back(Member(cid));
            }
            std::vector<Sequence> sorted_list;
            sorted_list.reserve(items.size());
            for (const Item x : items) {
              sorted_list.push_back(Extend(Sequence(), x, ExtType::kSequence));
            }
            // The 1-sequences extend the empty prefix, contained everywhere.
            RunDisc(all, std::move(sorted_list),
                    std::vector<EmbeddingEnds>(all.size(),
                                               EmbeddingEnds{true}),
                    2, &scratches[0], &results[0]);
            return results[0].size();
          });
    }

    // Merge the leading run of completed partitions. On a stop (or a
    // contained failure) erase every pattern from the first unmined
    // partition's item on: what remains is the exact comparative-order
    // prefix of the full result (same rule as DISC-all;
    // docs/ROBUSTNESS.md).
    for (std::size_t i = 0; i < merged; ++i) {
      out_.Absorb(std::move(results[i]));
    }
    if (merged < results.size()) out_.EraseFromFirstItem(items[merged]);
    return std::move(out_);
  }

 private:
  PartitionMember Member(Cid cid) const {
    return {db_[cid], &indexes_[cid], cid};
  }

  // Appendix step 2: the partition's non-reduction rate (Equation 2) from
  // its children's supports, against γ — or the fixed depth policy when
  // configured. `k` is the partition's prefix length.
  bool SplitDecision(const std::vector<std::uint64_t>& child_supports,
                     std::size_t members, std::uint32_t k) const {
    std::uint64_t child_support_sum = 0;
    for (const std::uint64_t sup : child_supports) child_support_sum += sup;
    const double nrr = static_cast<double>(child_support_sum) /
                       (static_cast<double>(child_supports.size()) *
                        static_cast<double>(members));
    DISC_OBS_RECORD(g_partition_nrr,
                    static_cast<std::uint64_t>(nrr * 1000.0));
    return config_.fixed_levels >= 0
               ? k < static_cast<std::uint32_t>(config_.fixed_levels)
               : nrr < config_.gamma;
  }

  // Appendix step 4: the partitioning overhead no longer pays; DISC finds
  // every remaining length, starting at `start_k`, in this partition.
  // `prefix_ends` are the members' embeddings of the partition's prefix.
  void RunDisc(const Members& members, std::vector<Sequence> sorted_list,
               const std::vector<EmbeddingEnds>& prefix_ends,
               std::uint32_t start_k, Scratch* scratch,
               PatternSet* out) const {
    DISC_OBS_INC(g_partitions_to_disc);
    RunDiscLoop(members, std::move(sorted_list), prefix_ends, start_k,
                options_.min_support_count, config_.bilevel,
                options_.max_length, &scratch->counts, out);
  }

  // Processes the <prefix>-partition `members` for a non-empty prefix
  // (Appendix algorithm below the root), adding every frequent sequence to
  // `out`. `scratch` is the running worker's.
  void Recurse(const Sequence& prefix, const Members& members,
               Scratch* scratch, PatternSet* out) const {
    const std::uint32_t delta = options_.min_support_count;
    const std::uint32_t k = prefix.Length();
    if (members.size() < delta) return;
    if (options_.max_length != 0 && k >= options_.max_length) return;

    // Step 1: frequent (k+1)-sequences with this prefix, in one
    // counting-array scan. Its embeddings of the prefix seed the DISC
    // passes' supporter groups if this partition runs DISC.
    CountingArray& counts = scratch->counts;
    counts.Reset();
    std::vector<EmbeddingEnds> prefix_ends;
    prefix_ends.reserve(members.size());
    for (const PartitionMember& m : members) {
      prefix_ends.push_back(LeftmostEnds(m.seq, prefix, m.index));
      ForEachExtensionWithEnds(
          m.seq, prefix, prefix_ends.back(),
          [&counts, &m](Item x, ExtType type) { counts.Add(x, type, m.cid); },
          m.index);
    }
    std::vector<std::pair<Item, ExtType>> freq;
    counts.FrequentExtensions(delta, &freq);
#if DISC_OBS_ENABLED
    // Dynamic DISC-all does support-count patterns of any length while it
    // keeps partitioning; attribute them like the bi-level harvests do.
    if (k + 1 >= 4) {
      DISC_OBS_COUNTER(g_k4plus, "support.increments.k4plus");
      DISC_OBS_ADD(g_k4plus, counts.increments_since_reset());
    }
#endif
    std::vector<std::uint64_t> sups;
    sups.reserve(freq.size());
    for (const auto& [x, type] : freq) {
      sups.push_back(counts.Count(x, type));
      out->Add(Extend(prefix, x, type), counts.Count(x, type));
    }
    if (freq.empty()) return;
    if (options_.max_length != 0 && k + 1 >= options_.max_length) return;

    // Steps 2 and 4: once splitting no longer pays, DISC finds the rest.
    if (!SplitDecision(sups, members.size(), k)) {
      std::vector<Sequence> sorted_list;
      sorted_list.reserve(freq.size());
      for (const auto& [x, type] : freq) {
        sorted_list.push_back(Extend(prefix, x, type));
      }
      RunDisc(members, std::move(sorted_list), prefix_ends, k + 2, scratch,
              out);
      return;
    }

    // Step 3: partition one level deeper and recurse. One scan per member
    // enrolls it, by position, in the child of every frequent extension it
    // contains: the children the reassign-forward walk takes it through
    // (ChildSlots). A child's member records exist only while it is mined.
    DISC_OBS_INC(g_partitions_split);
    ChildSlots& child_slots = scratch->child_slots;
    child_slots.Build(freq);
    std::vector<std::vector<std::uint32_t>> children(freq.size());
    for (std::size_t i = 0; i < members.size(); ++i) {
      child_slots.Enroll(members[i].seq, prefix, members[i].index,
                         static_cast<std::uint32_t>(i), &children);
    }
    for (std::size_t j = 0; j < freq.size(); ++j) {
      const std::vector<std::uint32_t> positions = std::move(children[j]);
      if (positions.size() < delta) continue;
      Members child;
      child.reserve(positions.size());
      for (const std::uint32_t i : positions) child.push_back(members[i]);
      Recurse(Extend(prefix, freq[j].first, freq[j].second), child, scratch,
              out);
    }
  }

  const SequenceDatabase& db_;
  const MineOptions& options_;
  const DynamicDiscAll::Config& config_;
  RunControl& ctl_;
  obs::RunTelemetry* tel_;
  const FirstLevelState* fl_;
  std::vector<SequenceIndex> indexes_;
  PatternSet out_;
};

}  // namespace

PatternSet DynamicDiscAll::DoMine(const SequenceDatabase& db,
                                  const MineOptions& options) {
  DISC_CHECK(options.min_support_count >= 1);
  // A provided first-level state must describe this database — a stale
  // state would silently mine wrong root children (core/first_level.h).
  const FirstLevelState* fl = first_level_.get();
  if (fl != nullptr) DISC_CHECK(fl->Matches(db));
  Run run(db, options, config_, *run_control(), telemetry(), fl);
  return run.Execute();
}

}  // namespace disc
