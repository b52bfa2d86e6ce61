#include "disc/core/counting_array.h"

#include <vector>

#include <gtest/gtest.h>

namespace disc {
namespace {

using Exts = std::vector<std::pair<Item, ExtType>>;

Exts Frequent(const CountingArray& c, std::uint32_t delta) {
  Exts out;
  c.FrequentExtensions(delta, &out);
  return out;
}

TEST(CountingArray, CountsPerCustomerOnce) {
  CountingArray c(10);
  c.Add(3, ExtType::kSequence, 0);
  c.Add(3, ExtType::kSequence, 0);  // same cid: idempotent
  c.Add(3, ExtType::kSequence, 1);
  EXPECT_EQ(c.Count(3, ExtType::kSequence), 2u);
  EXPECT_EQ(c.Count(3, ExtType::kItemset), 0u);
}

TEST(CountingArray, FormsAreIndependent) {
  CountingArray c(10);
  c.Add(5, ExtType::kItemset, 0);
  c.Add(5, ExtType::kSequence, 0);
  EXPECT_EQ(c.Count(5, ExtType::kItemset), 1u);
  EXPECT_EQ(c.Count(5, ExtType::kSequence), 1u);
}

TEST(CountingArray, LastCidAllowsRevisitingEarlierCustomers) {
  // The last-CID mechanism only suppresses *consecutive* duplicates, which
  // is exactly what one scan produces; revisiting an older cid after
  // another one counts again only if it is a genuinely different pass —
  // users must scan customers in order. Same-cid-later is the documented
  // single-scan contract: a! -> b -> a would double-count a.
  CountingArray c(4);
  c.Add(1, ExtType::kSequence, 0);
  c.Add(1, ExtType::kSequence, 1);
  c.Add(1, ExtType::kSequence, 1);
  EXPECT_EQ(c.Count(1, ExtType::kSequence), 2u);
}

TEST(CountingArray, FrequentExtensionsAscending) {
  CountingArray c(10);
  for (Cid cid = 0; cid < 3; ++cid) {
    c.Add(7, ExtType::kSequence, cid);
    c.Add(2, ExtType::kItemset, cid);
    c.Add(2, ExtType::kSequence, cid);
  }
  c.Add(9, ExtType::kItemset, 0);
  const Exts freq = Frequent(c, 3);
  ASSERT_EQ(freq.size(), 3u);
  EXPECT_EQ(freq[0], std::make_pair(Item{2}, ExtType::kItemset));
  EXPECT_EQ(freq[1], std::make_pair(Item{2}, ExtType::kSequence));
  EXPECT_EQ(freq[2], std::make_pair(Item{7}, ExtType::kSequence));

  // Many touched items, first touched in descending order: at δ=4 the
  // frequent forms (count 4) come out ascending whatever the touch order,
  // the infrequent ones (count 1) not at all, and an item frequent in only
  // one form yields only that form.
  CountingArray d(500);
  for (Item x = 500; x >= 1; --x) {
    for (Cid cid = 0; cid < 3; ++cid) {
      if (x % 7 == 0) d.Add(x, ExtType::kItemset, cid);
      if (x % 5 == 0) d.Add(x, ExtType::kSequence, cid);
    }
    d.Add(x, ExtType::kItemset, 10);
    d.Add(x, ExtType::kSequence, 11);
  }
  std::vector<std::pair<Item, ExtType>> want;
  for (Item x = 1; x <= 500; ++x) {
    if (x % 7 == 0) want.emplace_back(x, ExtType::kItemset);
    if (x % 5 == 0) want.emplace_back(x, ExtType::kSequence);
  }
  EXPECT_EQ(Frequent(d, 4), want);
  EXPECT_TRUE(Frequent(d, 5).empty());
  EXPECT_EQ(Frequent(d, 1).size(), 1000u);
}

TEST(CountingArray, ResetClearsEverything) {
  CountingArray c(6);
  c.Add(4, ExtType::kSequence, 0);
  c.Add(4, ExtType::kItemset, 0);
  c.Reset();
  EXPECT_EQ(c.Count(4, ExtType::kSequence), 0u);
  EXPECT_EQ(c.Count(4, ExtType::kItemset), 0u);
  EXPECT_TRUE(Frequent(c, 1).empty());
  // Reusable after reset; cid 0 counts again.
  c.Add(4, ExtType::kSequence, 0);
  EXPECT_EQ(c.Count(4, ExtType::kSequence), 1u);
}

}  // namespace
}  // namespace disc
