// Differential adversarial battery for the miners: DISC-all (bi-level
// and plain) and Dynamic DISC-all, each at one and four threads, must
// report exactly pseudo-projection PrefixSpan's pattern set, and every
// support any of them reports must equal its brute-force count
// (CountSupport). So must the DISC ablation configs: DISC-all with the
// re-sorted k-sorted database (Ablation C); Dynamic DISC-all with no
// partitioning level and with γ = 0, both of which hand the whole database
// to one k-sorted database, the largest batches and merges the run sees;
// Dynamic DISC-all with one level, which runs DISC from length 3 on each
// reduced root child; and with γ = 1.01, which splits reduced members all
// the way down. The weighted miner at unit weights must report the same
// supports, and so must the baselines: SPADE and physical-projection
// PrefixSpan on every shape, GSP and SPAM on the small ones. At seeded
// random weights, a quarter of them zero, every weight the weighted miner
// reports must be the pattern's brute-force weighted support, and on the
// small shapes its set is also checked complete by enumeration. The
// databases are small, seeded and built to sit on the edges the partition
// kernel has to get right: a single customer, δ = 1 and δ = |DB|, one
// transaction of over a hundred items, the same items in every
// transaction, sparse item ids near 10^5, and max_length cuts. Where the
// database is tiny, completeness is also checked by enumerating every
// distinct subsequence of every customer.
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "disc/algo/miner.h"
#include "disc/common/rng.h"
#include "disc/core/disc_all.h"
#include "disc/core/dynamic_disc_all.h"
#include "disc/core/weighted.h"
#include "disc/order/compare.h"
#include "disc/order/kmin_brute.h"
#include "disc/seq/containment.h"
#include "test_util.h"

namespace disc {
namespace {

// A DISC miner under test: a registered name, or an ablation config.
struct Variant {
  std::string name;
  std::function<std::unique_ptr<Miner>()> make;
};

std::vector<Variant> DiscVariants() {
  std::vector<Variant> variants;
  for (const char* name :
       {"disc-all", "disc-all-nobilevel", "dynamic-disc-all"}) {
    variants.push_back({name, [name] { return CreateMiner(name); }});
  }
  variants.push_back({"disc-all locative=false", [] {
                        DiscAll::Config config;
                        config.locative = false;
                        return std::make_unique<DiscAll>(config);
                      }});
  variants.push_back({"dynamic-disc-all fixed_levels=0", [] {
                        DynamicDiscAll::Config config;
                        config.fixed_levels = 0;
                        return std::make_unique<DynamicDiscAll>(config);
                      }});
  variants.push_back({"dynamic-disc-all gamma=0", [] {
                        DynamicDiscAll::Config config;
                        config.gamma = 0.0;
                        return std::make_unique<DynamicDiscAll>(config);
                      }});
  variants.push_back({"dynamic-disc-all fixed_levels=1", [] {
                        DynamicDiscAll::Config config;
                        config.fixed_levels = 1;
                        return std::make_unique<DynamicDiscAll>(config);
                      }});
  variants.push_back({"dynamic-disc-all gamma=1.01", [] {
                        DynamicDiscAll::Config config;
                        config.gamma = 1.01;
                        return std::make_unique<DynamicDiscAll>(config);
                      }});
  return variants;
}

// Which baselines a shape runs: GSP's candidate generation and SPAM's
// per-item bitmaps grow with the alphabet and the transaction width, so
// they run only on the small shapes, where the random-weight run is also
// checked complete by enumeration.
enum class Baselines { kAll, kScalable };

// Every reported pattern has its brute-force support, at least δ, and
// respects the length cap.
void ExpectExactSupports(const SequenceDatabase& db, const PatternSet& got,
                         const MineOptions& options, const std::string& who) {
  for (const auto& [pattern, support] : got) {
    EXPECT_EQ(CountSupport(db, pattern), support)
        << who << " misreports " << pattern.ToString();
    EXPECT_GE(support, options.min_support_count) << who;
    if (options.max_length != 0) {
      EXPECT_LE(pattern.Length(), options.max_length) << who;
    }
  }
}

// The weighted miner at unit weights and Δ = δ must report exactly the
// reference's patterns, each weighing its support.
void ExpectUnitWeightsMatch(const SequenceDatabase& db,
                            const MineOptions& options,
                            const PatternSet& reference,
                            const std::string& who) {
  WeightedOptions weighted;
  weighted.weights.assign(db.size(), 1.0);
  weighted.min_weight = options.min_support_count;
  weighted.max_length = options.max_length;
  const WeightedPatternSet got = MineWeighted(db, weighted);
  EXPECT_EQ(got.size(), reference.size()) << who;
  for (const auto& [pattern, weight] : got) {
    EXPECT_EQ(weight, reference.SupportOf(pattern))
        << who << ": " << pattern.ToString();
  }
}

// The weighted miner at seeded random weights, multiples of 1/4 so every
// sum is exact, a quarter of them zero, and Δ = δ/2: every reported
// pattern weighs its brute-force weighted support, at least Δ, and
// respects the length cap. With `complete`, so is every distinct
// subsequence of a customer that weighs Δ or more.
void ExpectRandomWeightsExact(const SequenceDatabase& db,
                              const MineOptions& options,
                              const std::string& who, bool complete) {
  Rng rng(db.size() * 31 + options.min_support_count);
  WeightedOptions weighted;
  for (Cid cid = 0; cid < db.size(); ++cid) {
    weighted.weights.push_back(
        rng.NextBounded(4) == 0
            ? 0.0
            : 0.25 * static_cast<double>(1 + rng.NextBounded(8)));
  }
  weighted.min_weight = 0.5 * options.min_support_count;
  weighted.max_length = options.max_length;
  const WeightedPatternSet got = MineWeighted(db, weighted);
  for (const auto& [pattern, weight] : got) {
    EXPECT_EQ(weight, WeightedSupport(db, weighted.weights, pattern))
        << who << " misweighs " << pattern.ToString();
    EXPECT_GE(weight, weighted.min_weight) << who;
    if (options.max_length != 0) {
      EXPECT_LE(pattern.Length(), options.max_length) << who;
    }
  }
  if (!complete) return;
  std::set<Sequence, SequenceLess> candidates;
  for (Cid cid = 0; cid < db.size(); ++cid) {
    if (weighted.weights[cid] == 0.0) continue;
    for (std::uint32_t k = 1; k <= db[cid].Length(); ++k) {
      if (options.max_length != 0 && k > options.max_length) break;
      for (Sequence& sub : AllDistinctKSubsequences(db[cid], k)) {
        candidates.insert(std::move(sub));
      }
    }
  }
  std::size_t frequent = 0;
  for (const Sequence& c : candidates) {
    if (WeightedSupport(db, weighted.weights, c) < weighted.min_weight) {
      continue;
    }
    ++frequent;
    EXPECT_EQ(got.count(c), 1u) << who << " misses " << c.ToString();
  }
  EXPECT_EQ(got.size(), frequent) << who;
}

// Runs the reference and every DISC variant at threads 1 and 4, then the
// weighted miner and the baselines (which ignore threads). Returns the
// reference so callers can add shape-specific checks.
PatternSet ExpectMinersExact(const SequenceDatabase& db, MineOptions options,
                             const std::string& shape, Baselines baselines) {
  const PatternSet reference = CreateMiner("pseudo")->Mine(db, options);
  ExpectExactSupports(db, reference, options, shape + " pseudo");
  const std::string delta =
      " delta=" + std::to_string(options.min_support_count);
  for (const Variant& variant : DiscVariants()) {
    for (const std::uint32_t threads : {1u, 4u}) {
      options.threads = threads;
      const PatternSet got = variant.make()->Mine(db, options);
      const std::string who = shape + " " + variant.name + " threads=" +
                              std::to_string(threads) + delta;
      EXPECT_EQ(reference, got) << who << "\n" << reference.Diff(got);
      if (got != reference) ExpectExactSupports(db, got, options, who);
    }
  }
  ExpectUnitWeightsMatch(db, options, reference, shape + " weighted" + delta);
  ExpectRandomWeightsExact(db, options, shape + " random weights" + delta,
                           /*complete=*/baselines == Baselines::kAll);
  options.threads = 1;
  std::vector<std::string> names = {"spade", "prefixspan"};
  if (baselines == Baselines::kAll) names.insert(names.end(), {"gsp", "spam"});
  for (const std::string& name : names) {
    const PatternSet got = CreateMiner(name)->Mine(db, options);
    const std::string who = shape + " " + name + delta;
    EXPECT_EQ(reference, got) << who << "\n" << reference.Diff(got);
    if (got != reference) ExpectExactSupports(db, got, options, who);
  }
  return reference;
}

// Completeness by enumeration: the frequent sequences of a tiny database,
// counted over every distinct subsequence of every customer.
void ExpectCompleteByEnumeration(const SequenceDatabase& db,
                                 const MineOptions& options,
                                 const PatternSet& reference,
                                 const std::string& shape) {
  std::map<Sequence, std::uint32_t, SequenceLess> support;
  for (Cid cid = 0; cid < db.size(); ++cid) {
    const std::uint32_t length = db[cid].Length();
    for (std::uint32_t k = 1; k <= length; ++k) {
      if (options.max_length != 0 && k > options.max_length) break;
      for (const Sequence& sub : AllDistinctKSubsequences(db[cid], k)) {
        ++support[sub];
      }
    }
  }
  std::size_t frequent = 0;
  for (const auto& [pattern, count] : support) {
    if (count < options.min_support_count) continue;
    ++frequent;
    EXPECT_EQ(reference.SupportOf(pattern), count)
        << shape << ": " << pattern.ToString();
  }
  EXPECT_EQ(reference.size(), frequent) << shape;
}

// A sequence of `txns` transactions, each of 1..max_items distinct items
// drawn from `alphabet`.
Sequence RandomSequence(Rng& rng, const std::vector<Item>& alphabet,
                        std::uint32_t txns, std::uint32_t max_items) {
  std::vector<Itemset> itemsets;
  for (std::uint32_t t = 0; t < txns; ++t) {
    std::vector<Item> items;
    const std::uint64_t n = 1 + rng.NextBounded(max_items);
    for (std::uint64_t j = 0; j < n; ++j) {
      items.push_back(alphabet[rng.NextBounded(alphabet.size())]);
    }
    itemsets.emplace_back(std::move(items));
  }
  return Sequence(itemsets);
}

std::vector<Item> Range(Item first, Item last) {
  std::vector<Item> items;
  for (Item x = first; x <= last; ++x) items.push_back(x);
  return items;
}

TEST(Differential, SingleCustomer) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    Rng rng(seed);
    SequenceDatabase db;
    db.Add(RandomSequence(rng, Range(1, 6), 4, 3));
    MineOptions options;
    options.min_support_count = 1;
    const std::string shape = "single customer seed=" + std::to_string(seed);
    const PatternSet reference =
        ExpectMinersExact(db, options, shape, Baselines::kAll);
    ExpectCompleteByEnumeration(db, options, reference, shape);
  }
}

TEST(Differential, DeltaOneAndDeltaAll) {
  for (const std::uint64_t seed : {11u, 12u, 13u}) {
    testutil::RandomDbSpec spec;
    spec.num_seqs = 10;
    spec.alphabet = 5;
    spec.max_txns = 3;
    spec.max_items_per_txn = 3;
    spec.seed = seed;
    const SequenceDatabase db = testutil::MakeRandomDb(spec);
    for (const std::uint32_t delta :
         {1u, static_cast<std::uint32_t>(db.size())}) {
      MineOptions options;
      options.min_support_count = delta;
      const std::string shape = "random seed=" + std::to_string(seed);
      const PatternSet reference =
          ExpectMinersExact(db, options, shape, Baselines::kAll);
      ExpectCompleteByEnumeration(db, options, reference, shape);
    }
  }
}

TEST(Differential, OneTransactionOfOverAHundredItems) {
  for (const std::uint64_t seed : {21u, 22u}) {
    Rng rng(seed);
    SequenceDatabase db;
    db.Add(Sequence({Itemset(Range(1, 120))}));
    for (int i = 0; i < 12; ++i) {
      db.Add(RandomSequence(rng, Range(1, 120),
                            1 + static_cast<std::uint32_t>(rng.NextBounded(4)),
                            4));
    }
    const std::string shape = "long transaction seed=" + std::to_string(seed);
    MineOptions options;
    // δ = 1 with the cut at 2: every pair inside the long transaction.
    options.min_support_count = 1;
    options.max_length = 2;
    ExpectMinersExact(db, options, shape, Baselines::kScalable);
    options.min_support_count = 2;
    options.max_length = 0;
    ExpectMinersExact(db, options, shape, Baselines::kScalable);
  }
}

TEST(Differential, SameItemsInEveryTransaction) {
  for (const std::uint64_t seed : {31u, 32u}) {
    Rng rng(seed);
    SequenceDatabase db;
    const Itemset every({3, 5, 8});
    for (int i = 0; i < 9; ++i) {
      const std::uint64_t txns = 1 + rng.NextBounded(4);
      db.Add(Sequence(std::vector<Itemset>(txns, every)));
    }
    const std::string shape = "same items seed=" + std::to_string(seed);
    for (const std::uint32_t delta : {2u, 5u, 9u}) {
      MineOptions options;
      options.min_support_count = delta;
      const PatternSet reference =
          ExpectMinersExact(db, options, shape, Baselines::kAll);
      ExpectCompleteByEnumeration(db, options, reference, shape);
    }
  }
}

TEST(Differential, SparseHugeItemIds) {
  const std::vector<Item> sparse = {7, 1000, 31337, 65536, 99991, 100000};
  for (const std::uint64_t seed : {41u, 42u, 43u}) {
    Rng rng(seed);
    SequenceDatabase db;
    for (int i = 0; i < 25; ++i) {
      db.Add(RandomSequence(
          rng, sparse, 1 + static_cast<std::uint32_t>(rng.NextBounded(5)),
          3));
    }
    const std::string shape = "sparse ids seed=" + std::to_string(seed);
    for (const std::uint32_t delta : {2u, 4u}) {
      MineOptions options;
      options.min_support_count = delta;
      ExpectMinersExact(db, options, shape, Baselines::kScalable);
    }
  }
}

TEST(Differential, MaxLengthCuts) {
  for (const std::uint64_t seed : {51u, 52u}) {
    testutil::QuestDbSpec spec;
    spec.ncust = 60;
    spec.nitems = 12;
    spec.slen = 5.0;
    spec.tlen = 2.5;
    spec.seed = seed;
    const SequenceDatabase db = testutil::MakeQuestDb(spec);
    for (const std::uint32_t max_length : {2u, 3u, 4u}) {
      MineOptions options;
      options.min_support_count = 4;
      options.max_length = max_length;
      ExpectMinersExact(db, options,
                        "quest seed=" + std::to_string(seed) +
                            " max_length=" + std::to_string(max_length),
                        Baselines::kScalable);
    }
  }
}

}  // namespace
}  // namespace disc
