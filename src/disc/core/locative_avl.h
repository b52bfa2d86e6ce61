// The locative AVL tree (paper §3.2): the index behind the k-sorted
// database. An order-statistic AVL tree keyed by rank keys
// (core/rank_key.h) under the comparative order; every node holds the
// *bucket* of customer entries whose current k-minimum subsequence equals
// the node's key, and maintains subtree entry counts so the entry at any
// rank — in particular the δ-th position, the "condition k-sequence" α_δ —
// is located in O(log n).
//
// The paper defers the structure's details to an unavailable technical
// report; this implementation provides exactly the operations the DISC loop
// needs: insert, minimum, select-by-rank, pop-minimum-bucket, and
// pop-everything-below-a-bound.
//
// Bucket payloads are opaque 32-bit handles (indices into the caller's entry
// table), keeping the tree independent of the mining state. Nodes live in a
// pool that recycles popped nodes, and a bucket is a list threaded through
// a per-handle link table, so once the pool and the table have grown to
// the pass's high-water mark an insert allocates nothing.
#ifndef DISC_CORE_LOCATIVE_AVL_H_
#define DISC_CORE_LOCATIVE_AVL_H_

#include <cstdint>
#include <vector>

#include "disc/core/rank_key.h"

namespace disc {

/// Order-statistic AVL tree with per-key buckets. See file comment.
class LocativeAvlTree {
 public:
  /// Inserts a handle under the given key (O(log n)). A handle may sit in
  /// the tree at most once. `weight` feeds the weighted rank queries (paper
  /// §5's weighting applications); the default 1.0 makes weighted and
  /// plain ranks coincide. Keys are taken by value: a key read from this
  /// tree stays valid while the node pool grows.
  void Insert(RankKey key, std::uint32_t handle, double weight = 1.0);

  /// Total number of handles stored.
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Number of distinct keys.
  std::size_t NumKeys() const { return num_nodes_; }

  /// Smallest key (α₁). Tree must be non-empty.
  const RankKey& MinKey() const { return nodes_[MinNode()].key; }

  /// Number of handles under the smallest key. Tree must be non-empty.
  std::size_t MinBucketSize() const { return nodes_[MinNode()].bucket_size; }

  /// Key of the entry at 1-based `rank` across bucket multiplicities (the
  /// paper's α_δ for rank δ). Requires 1 <= rank <= size().
  const RankKey& SelectKey(std::size_t rank) const;

  /// Smallest key whose prefix weight (sum of inserted weights over all
  /// entries with keys <= it) reaches `w` — the weighted analogue of α_δ.
  /// Requires 0 < w <= TotalWeight().
  const RankKey& SelectKeyByWeight(double w) const;

  /// Sum of all inserted weights.
  double TotalWeight() const { return Weight(root_); }

  /// Removes the minimum node entirely, appending its handles to `out` in
  /// insertion order.
  void PopMinBucket(std::vector<std::uint32_t>* out);

  /// Removes every entry whose key is strictly below `bound`, appending the
  /// handles to `out` (ascending key order).
  void PopAllLess(RankKey bound, std::vector<std::uint32_t>* out);

  /// Removes everything.
  void Clear();

  /// Appends all keys in ascending order (testing).
  void InorderKeys(std::vector<RankKey>* out) const;

  /// Verifies AVL balance, counts, bucket lists, and key ordering
  /// (testing).
  bool CheckInvariants() const;

 private:
  static constexpr std::uint32_t kNil = ~std::uint32_t{0};

  struct Node {
    RankKey key;
    std::uint32_t left = kNil;   // on the free list: the next free node
    std::uint32_t right = kNil;
    std::int32_t height = 1;
    std::uint32_t head = kNil;   // first and last handle of the bucket,
    std::uint32_t tail = kNil;   // linked through next_
    std::uint32_t bucket_size = 0;
    std::uint32_t count = 0;     // handles in this subtree (incl. bucket)
    double bucket_weight = 0.0;  // sum of this node's entry weights
    double weight = 0.0;         // subtree weight sum
  };

  std::int32_t Height(std::uint32_t n) const {
    return n == kNil ? 0 : nodes_[n].height;
  }
  std::uint32_t Count(std::uint32_t n) const {
    return n == kNil ? 0 : nodes_[n].count;
  }
  double Weight(std::uint32_t n) const {
    return n == kNil ? 0.0 : nodes_[n].weight;
  }
  void Update(std::uint32_t n);
  std::uint32_t RotateLeft(std::uint32_t n);
  std::uint32_t RotateRight(std::uint32_t n);
  std::uint32_t Rebalance(std::uint32_t n);
  std::uint32_t NewNode(const RankKey& key);
  void AddToBucket(std::uint32_t n, std::uint32_t handle, double weight);
  std::uint32_t InsertAt(std::uint32_t n, const RankKey& key,
                         std::uint32_t handle, double weight);
  std::uint32_t RemoveMin(std::uint32_t n, std::uint32_t* removed);
  std::uint32_t MinNode() const;
  void CheckNode(std::uint32_t n, const RankKey** prev, bool* ok) const;

  std::vector<Node> nodes_;          // node pool
  std::uint32_t free_ = kNil;        // recycled nodes, chained via left
  std::vector<std::uint32_t> next_;  // handle -> next handle in its bucket
  std::uint32_t root_ = kNil;
  std::size_t size_ = 0;
  std::size_t num_nodes_ = 0;
};

}  // namespace disc

#endif  // DISC_CORE_LOCATIVE_AVL_H_
