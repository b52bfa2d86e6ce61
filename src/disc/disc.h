// Umbrella header: the whole libdisc public API in one include.
//
//   #include "disc/disc.h"
//
// See README.md for a tour; the paper being implemented is Chiu, Wu & Chen,
// "An Efficient Algorithm for Mining Frequent Sequences by a New Strategy
// without Support Counting", ICDE 2004.
#ifndef DISC_DISC_H_
#define DISC_DISC_H_

// Robustness substrate: recoverable errors, run control, fault injection.
#include "disc/common/status.h"     // IWYU pragma: export
#include "disc/common/cancel.h"     // IWYU pragma: export
#include "disc/common/failpoint.h"  // IWYU pragma: export
#include "disc/common/file_util.h"  // IWYU pragma: export

// Sequence substrate.
#include "disc/seq/types.h"        // IWYU pragma: export
#include "disc/seq/itemset.h"      // IWYU pragma: export
#include "disc/seq/sequence.h"     // IWYU pragma: export
#include "disc/seq/database.h"     // IWYU pragma: export
#include "disc/seq/parse.h"        // IWYU pragma: export
#include "disc/seq/io.h"           // IWYU pragma: export
#include "disc/seq/containment.h"  // IWYU pragma: export
#include "disc/seq/extension.h"    // IWYU pragma: export
#include "disc/seq/index.h"        // IWYU pragma: export
#include "disc/seq/storage.h"      // IWYU pragma: export

// The comparative order.
#include "disc/order/compare.h"  // IWYU pragma: export

// Mining algorithms and results.
#include "disc/algo/miner.h"        // IWYU pragma: export
#include "disc/algo/pattern_set.h"  // IWYU pragma: export
#include "disc/algo/pattern_io.h"   // IWYU pragma: export
#include "disc/algo/postprocess.h"  // IWYU pragma: export
#include "disc/algo/topk.h"         // IWYU pragma: export

// The paper's core, for callers wanting the pieces directly.
#include "disc/core/disc_all.h"          // IWYU pragma: export
#include "disc/core/dynamic_disc_all.h"  // IWYU pragma: export
#include "disc/core/discovery.h"         // IWYU pragma: export
#include "disc/core/first_level.h"       // IWYU pragma: export
#include "disc/core/nrr.h"               // IWYU pragma: export
#include "disc/core/shard.h"             // IWYU pragma: export
#include "disc/core/weighted.h"          // IWYU pragma: export

// The engine layer (resident database + query cache + sessions), the
// seqmined line protocol served over it, and the socket transport with
// admission control that puts it on the network.
#include "disc/engine/query_cache.h"  // IWYU pragma: export
#include "disc/engine/engine.h"       // IWYU pragma: export
#include "disc/server/protocol.h"     // IWYU pragma: export
#include "disc/server/admission.h"    // IWYU pragma: export
#include "disc/server/server.h"       // IWYU pragma: export
#include "disc/server/transport.h"    // IWYU pragma: export

// Synthetic data.
#include "disc/gen/quest.h"  // IWYU pragma: export

// Observability: metrics registry, span tracer, per-run MineStats, and the
// live-telemetry layer (run registry/progress, JSONL event log, Prometheus
// exposition, background sampler).
#include "disc/obs/metrics.h"     // IWYU pragma: export
#include "disc/obs/mine_stats.h"  // IWYU pragma: export
#include "disc/obs/trace.h"       // IWYU pragma: export
#include "disc/obs/progress.h"    // IWYU pragma: export
#include "disc/obs/event_log.h"   // IWYU pragma: export
#include "disc/obs/expose.h"      // IWYU pragma: export
#include "disc/obs/sampler.h"     // IWYU pragma: export

// Bench reporting: banners, machine-readable reports, flag wiring.
#include "disc/benchlib/report.h"  // IWYU pragma: export

#endif  // DISC_DISC_H_
