// Unit and property tests for the extension scan — the corrected core of
// Apriori-KMS/CKMS (DESIGN.md deviation 2).
#include "disc/seq/extension.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "disc/common/rng.h"
#include "disc/order/compare.h"
#include "disc/seq/containment.h"
#include "test_util.h"

namespace disc {
namespace {

using testutil::Seq;

TEST(ExtensionScan, EmptyPattern) {
  const ExtensionSets e = ScanExtensions(Seq("(c,a)(b)(a)"), Sequence());
  EXPECT_TRUE(e.contained);
  EXPECT_TRUE(e.i_items.empty());
  EXPECT_EQ(e.s_items, (std::vector<Item>{1, 2, 3}));
}

TEST(ExtensionScan, NotContained) {
  const ExtensionSets e = ScanExtensions(Seq("(a)(b)"), Seq("(c)"));
  EXPECT_FALSE(e.contained);
  EXPECT_TRUE(e.i_items.empty());
  EXPECT_TRUE(e.s_items.empty());
}

TEST(ExtensionScan, BasicSplit) {
  // s = (a,e,g)(b): i-extensions of (a) are {e,g}; s-extensions are {b}.
  const ExtensionSets e = ScanExtensions(Seq("(a,e,g)(b)"), Seq("(a)"));
  ASSERT_TRUE(e.contained);
  EXPECT_EQ(e.i_items, (std::vector<Item>{5, 7}));
  EXPECT_EQ(e.s_items, (std::vector<Item>{2}));
}

TEST(ExtensionScan, NonLeftmostItemsetExtension) {
  // The case the paper's Figure 5 misses: F = <(a)(c)> matches leftmost at
  // transaction 1, but the itemset extension <(a)(c,z)> is realized only
  // through the later transaction (c,z).
  const ExtensionSets e = ScanExtensions(Seq("(a)(c)(c,z)"), Seq("(a)(c)"));
  ASSERT_TRUE(e.contained);
  EXPECT_EQ(e.i_items, (std::vector<Item>{26}));
  EXPECT_EQ(e.s_items, (std::vector<Item>{3, 26}));
}

TEST(ExtensionScan, IExtensionRequiresLargerItem) {
  // Items <= the pattern's last item never appear as i-extensions.
  const ExtensionSets e = ScanExtensions(Seq("(a,b,c)(a,b,c)"), Seq("(b)"));
  ASSERT_TRUE(e.contained);
  EXPECT_EQ(e.i_items, (std::vector<Item>{3}));
  EXPECT_EQ(e.s_items, (std::vector<Item>{1, 2, 3}));
}

TEST(ExtensionScan, MultiItemLastItemset) {
  // F = <(a,b)>: i-extension needs a transaction containing {a,b,x}.
  const ExtensionSets e =
      ScanExtensions(Seq("(a,b)(a,c)(a,b,d)"), Seq("(a,b)"));
  ASSERT_TRUE(e.contained);
  EXPECT_EQ(e.i_items, (std::vector<Item>{4}));
  EXPECT_EQ(e.s_items, (std::vector<Item>{1, 2, 3, 4}));
}

TEST(ExtensionScan, PrefixConstrainsIExtensionTransactions) {
  // F = <(b)(a)>: the last itemset {a} may only match transactions after
  // the leftmost (b); the first (a,z) transaction precedes every (b).
  const ExtensionSets e =
      ScanExtensions(Seq("(a,z)(b)(a)(a,y)"), Seq("(b)(a)"));
  ASSERT_TRUE(e.contained);
  EXPECT_EQ(e.i_items, (std::vector<Item>{25}));  // y only, not z
}

// Property: ScanMinExtension (the reference for Apriori-KMS/CKMS's cursors)
// equals taking ScanExtensions and selecting the first qualifying element,
// across random floors and strictness.
TEST(ScanMinExtension, MatchesFullScan) {
  Rng rng(555);
  for (int trial = 0; trial < 400; ++trial) {
    const Sequence s = testutil::RandomSequence(&rng, 6, 4, 3);
    const Sequence pattern = testutil::RandomSequence(&rng, 6, 2, 2);
    const ExtensionSets full = ScanExtensions(s, pattern);
    // Reference: minimal element of the merged sets subject to the floor.
    auto reference = [&](const std::pair<Item, ExtType>* floor,
                         bool strict) -> MinExtension {
      MinExtension best;
      best.contained = full.contained;
      auto consider = [&](Item z, ExtType t) {
        if (floor != nullptr) {
          const int cmp = CompareExtensions(z, t, floor->first, floor->second);
          if (cmp < 0 || (strict && cmp == 0)) return;
        }
        if (!best.found ||
            CompareExtensions(z, t, best.item, best.type) < 0) {
          best.found = true;
          best.item = z;
          best.type = t;
        }
      };
      for (const Item z : full.i_items) consider(z, ExtType::kItemset);
      for (const Item z : full.s_items) consider(z, ExtType::kSequence);
      return best;
    };
    // Unconstrained.
    const MinExtension got = ScanMinExtension(s, pattern);
    const MinExtension want = reference(nullptr, false);
    EXPECT_EQ(got.contained, want.contained);
    ASSERT_EQ(got.found, want.found) << pattern.ToString() << " in "
                                     << s.ToString();
    if (got.found) {
      EXPECT_EQ(got.item, want.item);
      EXPECT_EQ(got.type, want.type);
    }
    // Random floors.
    for (Item y = 1; y <= 6; ++y) {
      for (const ExtType t : {ExtType::kItemset, ExtType::kSequence}) {
        for (const bool strict : {false, true}) {
          const std::pair<Item, ExtType> floor{y, t};
          const MinExtension g = ScanMinExtension(s, pattern, &floor, strict);
          const MinExtension w = reference(&floor, strict);
          ASSERT_EQ(g.found, w.found)
              << pattern.ToString() << " in " << s.ToString() << " floor ("
              << y << "," << static_cast<int>(t) << ") strict " << strict;
          if (g.found) {
            EXPECT_EQ(g.item, w.item);
            EXPECT_EQ(g.type, w.type);
          }
        }
      }
    }
  }
}

// Every (item, type) occurrence `scan` reports, sorted.
template <typename Scan>
std::vector<std::pair<Item, ExtType>> Occurrences(Scan&& scan) {
  std::vector<std::pair<Item, ExtType>> out;
  scan([&out](Item z, ExtType type) { out.emplace_back(z, type); });
  std::sort(out.begin(), out.end());
  return out;
}

// Property: z is in the i-/s-extension set iff the extended pattern is
// contained (brute-force containment as the oracle). The one-item form
// ForEachExtensionOfItem, started at x's leftmost transaction, yields
// ScanExtensions' sets for ⟨(x)⟩ and exactly ForEachExtension's
// occurrences, which a counting array's probe count depends on. It takes
// that transaction as a recorded point, so it runs only on items the
// sequence contains.
TEST(ExtensionScan, MatchesContainmentOracle) {
  Rng rng(1234);
  int checked = 0;
  for (int trial = 0; trial < 250; ++trial) {
    const Sequence s = testutil::RandomSequence(&rng, 6, 4, 3);
    // Random small pattern.
    const Sequence pattern = testutil::RandomSequence(&rng, 6, 2, 2);
    const ExtensionSets e = ScanExtensions(s, pattern);
    EXPECT_EQ(e.contained, Contains(s, pattern));
    for (Item z = 1; z <= 6; ++z) {
      if (z > pattern.LastItem()) {
        const bool expect_i = Contains(s, Extend(pattern, z, ExtType::kItemset));
        const bool got_i =
            std::binary_search(e.i_items.begin(), e.i_items.end(), z);
        EXPECT_EQ(got_i, expect_i)
            << "i-ext " << z << " of " << pattern.ToString() << " in "
            << s.ToString();
      }
      const bool expect_s = Contains(s, Extend(pattern, z, ExtType::kSequence));
      const bool got_s =
          std::binary_search(e.s_items.begin(), e.s_items.end(), z);
      EXPECT_EQ(got_s, expect_s)
          << "s-ext " << z << " of " << pattern.ToString() << " in "
          << s.ToString();
    }
    for (Item x = 1; x <= 6; ++x) {
      std::uint32_t first = 0;
      while (first < s.NumTransactions() &&
             std::find(s.TxnBegin(first), s.TxnEnd(first), x) ==
                 s.TxnEnd(first)) {
        ++first;
      }
      if (first == s.NumTransactions()) continue;
      ++checked;
      Sequence pat1;
      pat1.AppendNewItemset(x);
      const ExtensionSets want = ScanExtensions(s, pat1);
      ASSERT_TRUE(want.contained);
      const auto got = Occurrences(
          [&](auto&& fn) { ForEachExtensionOfItem(s, x, first, fn); });
      ExtensionSets got_sets;
      for (const auto& [z, type] : got) {
        std::vector<Item>& set =
            type == ExtType::kItemset ? got_sets.i_items : got_sets.s_items;
        if (set.empty() || set.back() != z) set.push_back(z);
      }
      EXPECT_EQ(got_sets.i_items, want.i_items)
          << "i-exts of " << pat1.ToString() << " in " << s.ToString();
      EXPECT_EQ(got_sets.s_items, want.s_items)
          << "s-exts of " << pat1.ToString() << " in " << s.ToString();
      EXPECT_EQ(got, Occurrences(
                         [&](auto&& fn) { ForEachExtension(s, pat1, fn); }))
          << pat1.ToString() << " in " << s.ToString();
    }
  }
  EXPECT_GT(checked, 250);
}

}  // namespace
}  // namespace disc
