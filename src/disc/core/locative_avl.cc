#include "disc/core/locative_avl.h"

#include <algorithm>
#include <cstdlib>

#include "disc/common/check.h"

namespace disc {

void LocativeAvlTree::Update(std::uint32_t n) {
  Node& node = nodes_[n];
  node.height = 1 + std::max(Height(node.left), Height(node.right));
  node.count = node.bucket_size + Count(node.left) + Count(node.right);
  node.weight = node.bucket_weight + Weight(node.left) + Weight(node.right);
}

std::uint32_t LocativeAvlTree::RotateLeft(std::uint32_t n) {
  const std::uint32_t r = nodes_[n].right;
  nodes_[n].right = nodes_[r].left;
  nodes_[r].left = n;
  Update(n);
  Update(r);
  return r;
}

std::uint32_t LocativeAvlTree::RotateRight(std::uint32_t n) {
  const std::uint32_t l = nodes_[n].left;
  nodes_[n].left = nodes_[l].right;
  nodes_[l].right = n;
  Update(n);
  Update(l);
  return l;
}

std::uint32_t LocativeAvlTree::Rebalance(std::uint32_t n) {
  Update(n);
  const std::uint32_t left = nodes_[n].left;
  const std::uint32_t right = nodes_[n].right;
  const std::int32_t balance = Height(left) - Height(right);
  if (balance > 1) {
    if (Height(nodes_[left].left) < Height(nodes_[left].right)) {
      nodes_[n].left = RotateLeft(left);
    }
    return RotateRight(n);
  }
  if (balance < -1) {
    if (Height(nodes_[right].right) < Height(nodes_[right].left)) {
      nodes_[n].right = RotateRight(right);
    }
    return RotateLeft(n);
  }
  return n;
}

std::uint32_t LocativeAvlTree::NewNode(const RankKey& key) {
  std::uint32_t n = free_;
  if (n != kNil) {
    free_ = nodes_[n].left;
    nodes_[n] = Node{};
  } else {
    n = static_cast<std::uint32_t>(nodes_.size());
    nodes_.emplace_back();
  }
  nodes_[n].key = key;
  ++num_nodes_;
  return n;
}

void LocativeAvlTree::AddToBucket(std::uint32_t n, std::uint32_t handle,
                                  double weight) {
  if (handle >= next_.size()) next_.resize(handle + 1, kNil);
  next_[handle] = kNil;
  Node& node = nodes_[n];
  if (node.head == kNil) {
    node.head = handle;
  } else {
    next_[node.tail] = handle;
  }
  node.tail = handle;
  ++node.bucket_size;
  ++node.count;
  node.bucket_weight += weight;
  node.weight += weight;
}

std::uint32_t LocativeAvlTree::InsertAt(std::uint32_t n, const RankKey& key,
                                        std::uint32_t handle, double weight) {
  if (n == kNil) {
    const std::uint32_t fresh = NewNode(key);
    AddToBucket(fresh, handle, weight);
    return fresh;
  }
  const int cmp = CompareRankKeys(key, nodes_[n].key);
  if (cmp == 0) {
    AddToBucket(n, handle, weight);
    return n;
  }
  // The recursive call may grow the pool, so no Node reference is held
  // across it.
  if (cmp < 0) {
    const std::uint32_t child = InsertAt(nodes_[n].left, key, handle, weight);
    nodes_[n].left = child;
  } else {
    const std::uint32_t child =
        InsertAt(nodes_[n].right, key, handle, weight);
    nodes_[n].right = child;
  }
  return Rebalance(n);
}

void LocativeAvlTree::Insert(RankKey key, std::uint32_t handle,
                             double weight) {
  root_ = InsertAt(root_, key, handle, weight);
  ++size_;
}

std::uint32_t LocativeAvlTree::MinNode() const {
  DISC_CHECK(root_ != kNil);
  std::uint32_t n = root_;
  while (nodes_[n].left != kNil) n = nodes_[n].left;
  return n;
}

const RankKey& LocativeAvlTree::SelectKey(std::size_t rank) const {
  DISC_CHECK(rank >= 1 && rank <= size_);
  std::uint32_t n = root_;
  for (;;) {
    const Node& node = nodes_[n];
    const std::size_t left = Count(node.left);
    if (rank <= left) {
      n = node.left;
    } else if (rank <= left + node.bucket_size) {
      return node.key;
    } else {
      rank -= left + node.bucket_size;
      n = node.right;
    }
  }
}

const RankKey& LocativeAvlTree::SelectKeyByWeight(double w) const {
  DISC_CHECK(w > 0.0 && w <= Weight(root_));
  std::uint32_t n = root_;
  for (;;) {
    DISC_CHECK(n != kNil);
    const Node& node = nodes_[n];
    const double left = Weight(node.left);
    if (w <= left) {
      n = node.left;
    } else if (w <= left + node.bucket_weight) {
      return node.key;
    } else {
      w -= left + node.bucket_weight;
      n = node.right;
    }
  }
}

std::uint32_t LocativeAvlTree::RemoveMin(std::uint32_t n,
                                         std::uint32_t* removed) {
  if (nodes_[n].left == kNil) {
    *removed = n;
    return nodes_[n].right;
  }
  nodes_[n].left = RemoveMin(nodes_[n].left, removed);
  return Rebalance(n);
}

void LocativeAvlTree::PopMinBucket(std::vector<std::uint32_t>* out) {
  DISC_CHECK(root_ != kNil);
  std::uint32_t removed = kNil;
  root_ = RemoveMin(root_, &removed);
  Node& node = nodes_[removed];
  for (std::uint32_t h = node.head; h != kNil; h = next_[h]) {
    out->push_back(h);
  }
  size_ -= node.bucket_size;
  --num_nodes_;
  node.left = free_;
  free_ = removed;
}

void LocativeAvlTree::PopAllLess(RankKey bound,
                                 std::vector<std::uint32_t>* out) {
  while (root_ != kNil && CompareRankKeys(MinKey(), bound) < 0) {
    PopMinBucket(out);
  }
}

void LocativeAvlTree::Clear() {
  nodes_.clear();
  next_.clear();
  free_ = kNil;
  root_ = kNil;
  size_ = 0;
  num_nodes_ = 0;
}

void LocativeAvlTree::InorderKeys(std::vector<RankKey>* out) const {
  // Iterative inorder to avoid writing another recursive helper.
  std::vector<std::uint32_t> stack;
  std::uint32_t n = root_;
  while (n != kNil || !stack.empty()) {
    while (n != kNil) {
      stack.push_back(n);
      n = nodes_[n].left;
    }
    n = stack.back();
    stack.pop_back();
    out->push_back(nodes_[n].key);
    n = nodes_[n].right;
  }
}

void LocativeAvlTree::CheckNode(std::uint32_t n, const RankKey** prev,
                                bool* ok) const {
  if (n == kNil || !*ok) return;
  const Node& node = nodes_[n];
  CheckNode(node.left, prev, ok);
  if (*prev != nullptr && CompareRankKeys(**prev, node.key) >= 0) *ok = false;
  std::uint32_t listed = 0;
  for (std::uint32_t h = node.head; h != kNil && listed <= node.bucket_size;
       h = next_[h]) {
    ++listed;
  }
  if (listed == 0 || listed != node.bucket_size) *ok = false;
  if (node.height != 1 + std::max(Height(node.left), Height(node.right))) {
    *ok = false;
  }
  if (std::abs(Height(node.left) - Height(node.right)) > 1) *ok = false;
  if (node.count != node.bucket_size + Count(node.left) + Count(node.right)) {
    *ok = false;
  }
  const double expect_w =
      node.bucket_weight + Weight(node.left) + Weight(node.right);
  const double tol = 1e-9 * std::max(1.0, std::abs(expect_w));
  if (node.weight < expect_w - tol || node.weight > expect_w + tol) {
    *ok = false;
  }
  *prev = &node.key;
  CheckNode(node.right, prev, ok);
}

bool LocativeAvlTree::CheckInvariants() const {
  bool ok = true;
  const RankKey* prev = nullptr;
  CheckNode(root_, &prev, &ok);
  if (Count(root_) != size_) ok = false;
  return ok;
}

}  // namespace disc
