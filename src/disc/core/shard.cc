#include "disc/core/shard.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "disc/common/check.h"
#include "disc/core/first_level.h"

namespace disc {

ShardPlan PlanShards(const SequenceDatabase& db, std::uint32_t shard_count) {
  DISC_CHECK_MSG(shard_count >= 1, "shard_count must be >= 1");
  ShardPlan plan;
  plan.total_customers = db.size();
  plan.max_item = db.max_item();
  if (db.max_item() == 0) {
    plan.shards.push_back(ShardSpec{0, 1, 1});
    return plan;
  }

  const std::vector<std::uint32_t> support = CountItemSupport(db);
  std::uint64_t total_work = 0;
  for (Item x = 1; x <= db.max_item(); ++x) total_work += support[x];

  const std::uint32_t n = static_cast<std::uint32_t>(std::min<std::uint64_t>(
      shard_count, db.max_item()));

  // Greedy contiguous split balanced by partition membership count: close
  // the current shard once it holds its fair share of the work still
  // unassigned, or when exactly enough λ values remain to give every
  // later shard one.
  std::uint64_t done = 0;
  std::uint64_t acc = 0;
  Item lo = 1;
  for (Item x = 1; x <= db.max_item(); ++x) {
    acc += support[x];
    const std::uint32_t k = static_cast<std::uint32_t>(plan.shards.size());
    const std::uint32_t remaining_shards = n - k - 1;  // after this one
    const Item remaining_vals = db.max_item() - x;
    bool close;
    if (remaining_vals == remaining_shards) {
      close = true;  // forced: later shards each need a λ value
    } else if (remaining_shards > 0) {
      close = acc * (n - k) >= total_work - done;
    } else {
      close = x == db.max_item();
    }
    if (close) {
      plan.shards.push_back(ShardSpec{k, lo, x});
      done += acc;
      acc = 0;
      lo = x + 1;
    }
  }
  DISC_CHECK(plan.shards.size() == n);
  DISC_CHECK(plan.shards.back().lambda_hi == db.max_item());
  return plan;
}

SequenceDatabase ExtractShard(const SequenceDatabase& db,
                              const ShardSpec& spec) {
  const auto in_range = [&spec](SequenceView v) {
    for (const Item x : v.items()) {
      if (x >= spec.lambda_lo && x <= spec.lambda_hi) return true;
    }
    return false;
  };
  // Sizing pre-pass so the shard arena is built without a single regrow.
  std::size_t seqs = 0, txns = 0, items = 0;
  for (Cid cid = 0; cid < db.size(); ++cid) {
    const SequenceView v = db[cid];
    if (!in_range(v)) continue;
    ++seqs;
    txns += v.NumTransactions();
    items += v.Length();
  }
  SequenceDatabase out;
  out.Reserve(items, txns, seqs);
  for (Cid cid = 0; cid < db.size(); ++cid) {
    const SequenceView v = db[cid];
    if (in_range(v)) out.Add(v);
  }
  return out;
}

std::string ShardPath(const std::string& base, std::uint32_t index,
                      std::uint32_t count) {
  std::string stem = base;
  if (IsDsaPath(stem)) stem.resize(stem.size() - 4);
  return stem + ".shard" + std::to_string(index) + "of" +
         std::to_string(count) + ".dsa";
}

Status PackShards(const SequenceDatabase& db, const std::string& base,
                  std::uint32_t shard_count,
                  std::vector<std::string>* paths) {
  const ShardPlan plan = PlanShards(db, shard_count);
  const std::uint32_t n = static_cast<std::uint32_t>(plan.shards.size());
  for (const ShardSpec& spec : plan.shards) {
    const SequenceDatabase shard = ExtractShard(db, spec);
    DsaShardMeta meta;
    meta.lambda_lo = spec.lambda_lo;
    meta.lambda_hi = spec.lambda_hi;
    meta.shard_index = spec.index;
    meta.shard_count = n;
    meta.total_customers = plan.total_customers;
    const std::string path = ShardPath(base, spec.index, n);
    DISC_RETURN_IF_ERROR(SaveDsa(shard, path, meta));
    if (paths != nullptr) paths->push_back(path);
  }
  return Status::Ok();
}

MineResult MineShardRange(Miner& miner, const SequenceDatabase& shard_db,
                          const MineOptions& options, Item lambda_lo,
                          Item lambda_hi) {
  auto* consumer = dynamic_cast<FirstLevelConsumer*>(&miner);
  if (consumer == nullptr) {
    MineResult result;
    result.status = Status::InvalidArgument(
        miner.name() +
        " cannot mine a λ-range: it does not consume first-level state");
    return result;
  }
  // Mask every out-of-range λ in the state just built, before anything
  // shares it, so one state per shard is ever alive: support 0 means the
  // partition scheduler never visits it, so the miner emits exactly the
  // patterns whose first item lies in [lambda_lo, lambda_hi], and the
  // masked member lists are freed. The fingerprint fields stay
  // untouched — the state is still "of" shard_db.
  const std::shared_ptr<FirstLevelState> state =
      BuildFirstLevelState(shard_db);
  for (std::size_t x = 0; x < state->item_support.size(); ++x) {
    if (x < lambda_lo || x > lambda_hi) {
      state->item_support[x] = 0;
      std::vector<FirstLevelMember>().swap(state->members_of[x]);
    }
  }
  consumer->ProvideFirstLevel(state);
  MineResult result = miner.TryMine(shard_db, options);
  consumer->ProvideFirstLevel(nullptr);
  return result;
}

MineResult MineShardFiles(const std::vector<std::string>& paths,
                          const std::string& miner_name,
                          const MineOptions& options) {
  MineResult merged;
  if (paths.empty()) {
    merged.status = Status::InvalidArgument("no shard files given");
    return merged;
  }
  auto miner_or = TryCreateMiner(miner_name);
  if (!miner_or.ok()) {
    merged.status = miner_or.status();
    return merged;
  }
  Item expect_lo = 1;
  std::uint64_t total_customers = 0;
  for (std::size_t i = 0; i < paths.size(); ++i) {
    DsaInfo info;
    auto db_or = TryLoadDsa(paths[i], &info);
    if (!db_or.ok()) {
      merged.status = db_or.status();
      return merged;
    }
    // The headers must describe the shard set the caller claims: index
    // order, matching cardinality, contiguous λ coverage, one corpus.
    if (info.shard.shard_index != i ||
        info.shard.shard_count != paths.size()) {
      merged.status = Status::InvalidArgument(
          paths[i] + ": header says shard " +
          std::to_string(info.shard.shard_index) + " of " +
          std::to_string(info.shard.shard_count) + ", given as shard " +
          std::to_string(i) + " of " + std::to_string(paths.size()));
      return merged;
    }
    if (info.shard.lambda_lo != expect_lo) {
      merged.status = Status::InvalidArgument(
          paths[i] + ": λ ranges not contiguous (starts at " +
          std::to_string(info.shard.lambda_lo) + ", expected " +
          std::to_string(expect_lo) + ")");
      return merged;
    }
    if (i == 0) {
      total_customers = info.shard.total_customers;
    } else if (info.shard.total_customers != total_customers) {
      merged.status = Status::InvalidArgument(
          paths[i] + ": shard is from a different corpus (total_customers " +
          std::to_string(info.shard.total_customers) + " != " +
          std::to_string(total_customers) + ")");
      return merged;
    }
    MineResult part =
        MineShardRange(**miner_or, *db_or, options, info.shard.lambda_lo,
                       info.shard.lambda_hi);
    // Every pattern of this shard starts with an item above the previous
    // shards' range, so it lands after everything merged so far.
    merged.patterns.Absorb(std::move(part.patterns));
    if (!part.status.ok()) {
      merged.status = part.status;
      return merged;
    }
    expect_lo = info.shard.lambda_hi + 1;
  }
  return merged;
}

}  // namespace disc
