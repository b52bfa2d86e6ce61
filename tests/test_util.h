// Shared helpers for the test suite: small deterministic random databases
// and convenience constructors.
#ifndef DISC_TESTS_TEST_UTIL_H_
#define DISC_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <deque>
#include <string>
#include <vector>

#include "disc/common/check.h"
#include "disc/common/rng.h"
#include "disc/core/kms.h"
#include "disc/core/member.h"
#include "disc/core/rank_key.h"
#include "disc/gen/quest.h"
#include "disc/seq/containment.h"
#include "disc/seq/database.h"
#include "disc/seq/index.h"
#include "disc/seq/parse.h"
#include "disc/seq/sequence.h"

namespace disc {
namespace testutil {

/// Shape of a random database.
struct RandomDbSpec {
  std::uint32_t num_seqs = 30;
  std::uint32_t alphabet = 8;
  std::uint32_t max_txns = 5;
  std::uint32_t max_items_per_txn = 3;
  std::uint64_t seed = 1;
};

/// Deterministic random database: every sequence has 1..max_txns
/// transactions of 1..max_items_per_txn distinct items from 1..alphabet.
inline SequenceDatabase MakeRandomDb(const RandomDbSpec& spec = {}) {
  Rng rng(spec.seed);
  SequenceDatabase db;
  for (std::uint32_t i = 0; i < spec.num_seqs; ++i) {
    std::vector<Itemset> itemsets;
    const std::uint32_t ntx =
        1 + static_cast<std::uint32_t>(rng.NextBounded(spec.max_txns));
    for (std::uint32_t t = 0; t < ntx; ++t) {
      std::vector<Item> items;
      const std::uint32_t n =
          1 + static_cast<std::uint32_t>(
                  rng.NextBounded(spec.max_items_per_txn));
      for (std::uint32_t j = 0; j < n; ++j) {
        items.push_back(
            1 + static_cast<Item>(rng.NextBounded(spec.alphabet)));
      }
      itemsets.emplace_back(std::move(items));
    }
    db.Add(Sequence(itemsets));
  }
  return db;
}

/// Seed-first spelling of MakeRandomDb (the spec's own seed is ignored).
inline SequenceDatabase RandomDatabase(std::uint64_t seed,
                                       RandomDbSpec spec = {}) {
  spec.seed = seed;
  return MakeRandomDb(spec);
}

/// Shape of a small-test Quest database: GenerateQuestDatabase with the
/// pattern tables scaled down to the data size, so construction is
/// milliseconds instead of the production-default table burn-in.
struct QuestDbSpec {
  std::uint32_t ncust = 120;
  std::uint32_t nitems = 40;
  double slen = 4.0;
  double tlen = 2.0;
  double seq_patlen = 3.0;
  std::uint32_t npats = 30;
  std::uint32_t nlits = 60;
  std::uint64_t seed = 7;
};

/// Deterministic small Quest database (the shared shape behind the
/// cross-check and determinism suites).
inline SequenceDatabase MakeQuestDb(const QuestDbSpec& spec = {}) {
  QuestParams params;
  params.ncust = spec.ncust;
  params.nitems = spec.nitems;
  params.slen = spec.slen;
  params.tlen = spec.tlen;
  params.seq_patlen = spec.seq_patlen;
  params.npats = spec.npats;
  params.nlits = spec.nlits;
  params.seed = spec.seed;
  return GenerateQuestDatabase(params);
}

/// A random sequence (for per-sequence property tests).
inline Sequence RandomSequence(Rng* rng, std::uint32_t alphabet,
                               std::uint32_t max_txns,
                               std::uint32_t max_items_per_txn) {
  std::vector<Itemset> itemsets;
  const std::uint32_t ntx =
      1 + static_cast<std::uint32_t>(rng->NextBounded(max_txns));
  for (std::uint32_t t = 0; t < ntx; ++t) {
    std::vector<Item> items;
    const std::uint32_t n =
        1 + static_cast<std::uint32_t>(rng->NextBounded(max_items_per_txn));
    for (std::uint32_t j = 0; j < n; ++j) {
      items.push_back(1 + static_cast<Item>(rng->NextBounded(alphabet)));
    }
    itemsets.emplace_back(std::move(items));
  }
  return Sequence(itemsets);
}

/// The paper's Table 1 example database.
inline SequenceDatabase Table1Database() {
  return MakeDatabase({
      "(a,e,g)(b)(h)(f)(c)(b,f)",
      "(b)(d,f)(e)",
      "(b,f,g)",
      "(f)(a,g)(b,f,h)(b,f)",
  });
}

/// The paper's Table 6 example database.
inline SequenceDatabase Table6Database() {
  return MakeDatabase({
      "(a,d)(d)(a,g,h)(c)",
      "(b)(a)(f)(a,c,e,g)",
      "(a,f,g)(a,e,g,h)(c,g,h)",
      "(f)(a,c,f)(a,c,e,g,h)",
      "(a,g)",
      "(a,f)(a,e,g,h)",
      "(a,b,g)(a,e,g)(g,h)",
      "(b,f)(b,e)(e,f,h)",
      "(d,f)(d,f,g,h)",
      "(b,f,g)(c,e,h)",
      "(e,g)(f)(e,f)",
  });
}

/// The paper's Table 8 <(a)(a)>-partition (already reduced).
inline SequenceDatabase Table8Partition() {
  return MakeDatabase({
      "(a)(a,g,h)(c)",
      "(b)(a)(a,c,e,g)",
      "(a,f,g)(a,e,g,h)(c,g,h)",
      "(f)(a,f)(a,c,e,g,h)",
      "(a,f)(a,e,g,h)",
      "(a,g)(a,e,g)(g,h)",
  });
}

inline Sequence Seq(const std::string& text) { return ParseSequence(text); }

/// The rank key of a non-empty sequence whose (k-1)-prefix is in
/// `sorted_list` (asserted) — the inverse of KeySequence.
inline RankKey KeyOf(const std::vector<Sequence>& sorted_list,
                     const Sequence& seq) {
  const Sequence prefix = seq.Prefix(seq.Length() - 1);
  const auto it = std::lower_bound(sorted_list.begin(), sorted_list.end(),
                                   prefix, SequenceLess());
  DISC_CHECK_MSG(it != sorted_list.end() && *it == prefix,
                 "key prefix is not in the sorted list");
  // The last item shares its transaction with the previous item exactly
  // when it was an itemset extension.
  const ExtType type = seq.TxnSize(seq.NumTransactions() - 1) >= 2
                           ? ExtType::kItemset
                           : ExtType::kSequence;
  return RankKey{static_cast<std::uint32_t>(it - sorted_list.begin()),
                 seq.LastItem(), type};
}

/// Sequences as partition members with their occurrence indexes: member i
/// views seqs[i], which must outlive this object, and has cid i.
struct IndexedMembers {
  template <typename Seqs>
  explicit IndexedMembers(const Seqs& seqs) {
    for (const SequenceView s : seqs) {
      indexes.emplace_back(s);
      members.push_back(
          {s, &indexes.back(), static_cast<Cid>(members.size())});
    }
  }
  IndexedMembers(const IndexedMembers&) = delete;
  IndexedMembers& operator=(const IndexedMembers&) = delete;

  std::deque<SequenceIndex> indexes;
  PartitionMembers members;
};

/// Supporter groups of `list` (ascending, entries of one length >= 1) over
/// `members`, by brute force. Each run of entries sharing their parent,
/// the entry less its last item, is one group; with `rng`, runs are also
/// split at random points, as a pass without bi-level hands on one group
/// per entry. Member m supports every group whose parent it contains, with
/// the parent's leftmost ends.
inline SupporterGroups BruteGroups(const PartitionMembers& members,
                                   const std::vector<Sequence>& list,
                                   Rng* rng = nullptr) {
  SupporterGroups g;
  std::vector<Sequence> parents;
  for (std::uint32_t i = 0; i < list.size(); ++i) {
    Sequence parent = list[i].Prefix(list[i].Length() - 1);
    if (i == 0 || CompareSequences(parent, parents.back()) != 0 ||
        (rng != nullptr && rng->NextBounded(3) == 0)) {
      g.begin.push_back(i);
      parents.push_back(std::move(parent));
    }
  }
  g.begin.push_back(static_cast<std::uint32_t>(list.size()));
  g.offsets.push_back(0);
  for (const PartitionMember& m : members) {
    for (std::uint32_t j = 0; j < parents.size(); ++j) {
      const EmbeddingEnds ends = LeftmostEnds(m.seq, parents[j]);
      if (!ends.contained) continue;
      g.supported.push_back(SupportedGroup{j, ends.full_end, ends.prefix_end});
    }
    g.offsets.push_back(static_cast<std::uint32_t>(g.supported.size()));
  }
  return g;
}

/// A pass's input as the DISC loop hands it over: `seqs` as indexed
/// members, with `list`'s supporter groups by parent over them.
struct PassInput {
  template <typename Seqs>
  PassInput(const Seqs& seqs, const std::vector<Sequence>& list)
      : indexed(seqs), groups(BruteGroups(indexed.members, list)) {}

  const PartitionMembers& members() const { return indexed.members; }

  IndexedMembers indexed;
  SupporterGroups groups;
};

}  // namespace testutil
}  // namespace disc

#endif  // DISC_TESTS_TEST_UTIL_H_
