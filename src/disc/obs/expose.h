// Prometheus text-format exposition: renders the metrics registry and the
// live run registry to the standard `# HELP` / `# TYPE` text format
// (https://prometheus.io/docs/instrumenting/exposition_formats/), dumped
// on demand to a string or file. This is the pull-scrape face of the obs
// layer: the seqmined daemon's `stat` verb and the CLI `--metrics-out`
// flag both read it.
//
// Name mapping: the registry's dotted names ("disc.partitions.first_level")
// become underscore names ("disc_partitions_first_level"); any character
// outside [a-zA-Z0-9_:] maps to '_'. Counters render as `counter`, gauges
// as `gauge`, histograms as `summary` (their `_count` / `_sum` aggregate,
// plus `_min` / `_max` gauges). Per-run progress renders as labelled
// gauges:
//
//   disc_run_partitions_completed{run_id="1",miner="disc-all"} 42
//
// plus process-level `disc_process_rss_bytes` / `disc_process_peak_rss_bytes`
// sampled at render time.
#ifndef DISC_OBS_EXPOSE_H_
#define DISC_OBS_EXPOSE_H_

#include <string>
#include <vector>

#include "disc/common/status.h"
#include "disc/obs/metrics.h"
#include "disc/obs/progress.h"

namespace disc {
namespace obs {

/// Sanitizes a registry metric name to the Prometheus charset
/// ([a-zA-Z_:][a-zA-Z0-9_:]*): '.' and every other invalid character
/// become '_'; a leading digit gains a '_' prefix.
std::string PrometheusName(const std::string& raw);

/// Renders a kind-separated metrics snapshot plus run-progress snapshots.
std::string RenderPrometheusText(const MetricsExport& metrics,
                                 const std::vector<ProgressSnapshot>& runs);

/// Renders the global registries (MetricsRegistry + RunRegistry) plus the
/// process RSS gauges.
std::string RenderPrometheusText();

/// Writes RenderPrometheusText() to `path` via WriteFileAtomic.
Status WritePrometheusFile(const std::string& path);

/// Validates a Prometheus text exposition: every line is a comment, a
/// well-formed `# HELP <name> <text>` / `# TYPE <name> <type>` record, or a
/// `name{labels} value [timestamp]` sample whose metric and label names
/// obey the charset rules, whose label values are properly quoted, and
/// whose value parses as a double (NaN/±Inf spellings included); each
/// metric has at most one TYPE line, appearing before its first sample.
/// Returns false with a line-numbered diagnostic in `*error`.
bool ValidatePrometheusText(const std::string& text, std::string* error);

}  // namespace obs
}  // namespace disc

#endif  // DISC_OBS_EXPOSE_H_
