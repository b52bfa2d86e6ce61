// PartitionMember: a customer sequence enrolled in a partition, together
// with its occurrence index. Indexes are built once per partition scope and
// reused across every k-sorted pass and counting scan over the same
// sequences.
#ifndef DISC_CORE_MEMBER_H_
#define DISC_CORE_MEMBER_H_

#include <vector>

#include "disc/seq/index.h"
#include "disc/seq/view.h"
#include "disc/seq/types.h"

namespace disc {

/// One partition member. `index` must be built from `seq`; the k-sorted
/// database (core/ksorted.h) requires it.
struct PartitionMember {
  SequenceView seq;
  const SequenceIndex* index = nullptr;
  Cid cid = 0;
};

using PartitionMembers = std::vector<PartitionMember>;

}  // namespace disc

#endif  // DISC_CORE_MEMBER_H_
