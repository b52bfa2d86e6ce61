// SequenceDatabase: the collection of customer sequences to be mined.
//
// Backed by a single SequenceArena (flat CSR: one item buffer + transaction
// offsets + sequence offsets), so the whole database is three contiguous
// allocations shared read-only across pool workers. Indexing returns a
// non-owning SequenceView; the owning Sequence type is for patterns and
// ingestion only (docs/ARCHITECTURE.md).
#ifndef DISC_SEQ_DATABASE_H_
#define DISC_SEQ_DATABASE_H_

#include <cstdint>
#include <memory>
#include <utility>

#include "disc/seq/arena.h"
#include "disc/seq/types.h"
#include "disc/seq/view.h"

namespace disc {

/// A database of customer sequences. The customer id (CID) of a sequence is
/// its index. The database tracks the largest item it contains so counting
/// arrays can be sized without a separate scan.
class SequenceDatabase {
 public:
  SequenceDatabase() = default;

  /// Appends a copy of a sequence and returns its CID. Accepts an owning
  /// Sequence through the implicit view conversion.
  Cid Add(SequenceView seq);

  /// Streaming ingestion straight into the arena (no intermediate owning
  /// Sequence): BeginSequence / AppendItem* / EndTransaction ... then
  /// EndSequence returns the new CID. Same invariants as
  /// SequenceArena's build API; callers feeding untrusted input must
  /// validate first (see seq/io.cc).
  void BeginSequence() {
    has_content_hash_ = false;  // mutation invalidates a loader-cached hash
    arena_.BeginSequence();
  }
  void AppendItem(Item x) {
    if (x > max_item_) max_item_ = x;
    arena_.AppendItem(x);
  }
  void EndTransaction() { arena_.EndTransaction(); }
  Cid EndSequence() {
    arena_.EndSequence();
    return static_cast<Cid>(arena_.size() - 1);
  }

  /// Bulk-reserves the arena ahead of a known-size load (ingestion
  /// pre-pass; avoids regrow churn).
  void Reserve(std::size_t items, std::size_t txns, std::size_t seqs) {
    arena_.Reserve(items, txns, seqs);
  }

  std::size_t size() const { return arena_.size(); }
  bool empty() const { return arena_.empty(); }

  SequenceView operator[](Cid cid) const { return arena_[cid]; }

  /// Range-for iteration yields SequenceView by value.
  SequenceArena::const_iterator begin() const { return arena_.begin(); }
  SequenceArena::const_iterator end() const { return arena_.end(); }

  /// The backing arena (for shape/byte summaries).
  const SequenceArena& arena() const { return arena_; }

  /// Largest item id present (0 for an empty database). Counting arrays are
  /// sized max_item()+1.
  Item max_item() const { return max_item_; }

  /// Total item occurrences across all sequences. O(1) off the arena
  /// offsets, so shape summaries (bench banners, JSON reports) never rescan
  /// the database.
  std::uint64_t TotalItems() const { return arena_.TotalItems(); }

  /// Total transactions across all sequences. O(1).
  std::uint64_t TotalTransactions() const { return arena_.TotalTransactions(); }

  /// Average transactions per customer (the paper's theta). O(1).
  double AvgTransactionsPerCustomer() const;

  /// Average items per transaction. O(1).
  double AvgItemsPerTransaction() const;

  /// --- Mapped backing (seq/storage.h loader seam) ---

  /// Installs read-only external CSR sections as this database's contents
  /// (see SequenceArena::AdoptExternal). `max_item` is the largest item in
  /// the sections — the loader has already validated it. The database must
  /// still be empty; the streaming build API is disabled afterwards.
  void AdoptExternal(std::shared_ptr<const void> keepalive, const Item* items,
                     std::size_t num_items, const std::uint32_t* txn_offsets,
                     std::size_t num_txn_offsets,
                     const std::uint32_t* seq_offsets,
                     std::size_t num_seq_offsets, Item max_item) {
    arena_.AdoptExternal(std::move(keepalive), items, num_items, txn_offsets,
                         num_txn_offsets, seq_offsets, num_seq_offsets);
    max_item_ = max_item;
  }

  /// True when the contents are backed by an external mapping (read-only).
  bool mapped() const { return arena_.mapped(); }

  /// --- Cached content hash ---
  ///
  /// The .dsa loader stores the file's verified content hash here, and an
  /// engine with its cache on stores the hash it computes at load, so
  /// ContentHash (seq/storage.h), and through it the engine QueryCache
  /// fingerprint, never rescans a resident database. Cleared by any
  /// mutation.
  void SetCachedContentHash(std::uint64_t hash) {
    content_hash_ = hash;
    has_content_hash_ = true;
  }
  bool has_cached_content_hash() const { return has_content_hash_; }
  std::uint64_t cached_content_hash() const { return content_hash_; }

 private:
  SequenceArena arena_;
  Item max_item_ = 0;
  bool has_content_hash_ = false;
  std::uint64_t content_hash_ = 0;
};

}  // namespace disc

#endif  // DISC_SEQ_DATABASE_H_
