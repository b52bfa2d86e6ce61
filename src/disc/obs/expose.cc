#include "disc/obs/expose.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>

#include "disc/common/file_util.h"
#include "disc/obs/memory.h"

namespace disc {
namespace obs {
namespace {

bool IsNameChar(char c, bool first) {
  if ((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
      c == ':') {
    return true;
  }
  return !first && c >= '0' && c <= '9';
}

void AppendDouble(double v, std::string* out) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  *out += buf;
}

// Prometheus label-value escaping: backslash, double-quote, newline.
void AppendLabelValue(const std::string& v, std::string* out) {
  for (const char c : v) {
    switch (c) {
      case '\\':
        *out += "\\\\";
        break;
      case '"':
        *out += "\\\"";
        break;
      case '\n':
        *out += "\\n";
        break;
      default:
        *out += c;
    }
  }
}

void AppendFamilyHeader(const std::string& name, const std::string& type,
                        const std::string& help, std::string* out) {
  *out += "# HELP " + name + " " + help + "\n";
  *out += "# TYPE " + name + " " + type + "\n";
}

void AppendRunSample(const std::string& family, const ProgressSnapshot& run,
                     double value, std::string* out) {
  *out += family;
  *out += "{run_id=\"" + std::to_string(run.run_id) + "\",miner=\"";
  AppendLabelValue(run.miner, out);
  *out += "\"} ";
  AppendDouble(value, out);
  *out += "\n";
}

struct RunFamily {
  const char* name;
  const char* help;
  double (*value)(const ProgressSnapshot&);
};

constexpr RunFamily kRunFamilies[] = {
    {"disc_run_active", "1 while the run is mining, 0 once finished",
     [](const ProgressSnapshot& r) { return r.finished ? 0.0 : 1.0; }},
    {"disc_run_partitions_total",
     "planned first-level partitions of the run (0 until planned)",
     [](const ProgressSnapshot& r) {
       return static_cast<double>(r.partitions_total);
     }},
    {"disc_run_partitions_completed", "partitions mined to completion",
     [](const ProgressSnapshot& r) {
       return static_cast<double>(r.partitions_completed);
     }},
    {"disc_run_partitions_in_flight", "partitions currently being mined",
     [](const ProgressSnapshot& r) {
       return static_cast<double>(r.partitions_in_flight);
     }},
    {"disc_run_patterns", "frequent sequences found so far",
     [](const ProgressSnapshot& r) {
       return static_cast<double>(r.patterns_found);
     }},
    {"disc_run_elapsed_seconds", "wall-clock seconds since run start",
     [](const ProgressSnapshot& r) { return r.elapsed_seconds; }},
    {"disc_run_fraction_done",
     "completed fraction of the planned partition weight",
     [](const ProgressSnapshot& r) { return r.fraction_done; }},
    {"disc_run_eta_seconds",
     "bound-weighted remaining-time estimate (-1 while unknown)",
     [](const ProgressSnapshot& r) { return r.eta_seconds; }},
    {"disc_run_rss_high_water_bytes",
     "largest sampled VmRSS during the run (0 when sampling is off)",
     [](const ProgressSnapshot& r) {
       return static_cast<double>(r.rss_high_water_bytes);
     }},
};

}  // namespace

std::string PrometheusName(const std::string& raw) {
  std::string out;
  out.reserve(raw.size() + 1);
  for (std::size_t i = 0; i < raw.size(); ++i) {
    const char c = raw[i];
    if (i == 0 && c >= '0' && c <= '9') out += '_';
    out += IsNameChar(c, /*first=*/false) ? c : '_';
  }
  if (out.empty()) out.push_back('_');
  return out;
}

std::string RenderPrometheusText(const MetricsExport& metrics,
                                 const std::vector<ProgressSnapshot>& runs) {
  std::string out;
  out.reserve(4096);
  for (const auto& [raw, value] : metrics.counters) {
    const std::string name = PrometheusName(raw);
    AppendFamilyHeader(name, "counter", "disc counter '" + raw + "'", &out);
    out += name + " " + std::to_string(value) + "\n";
  }
  for (const auto& [raw, value] : metrics.gauges) {
    const std::string name = PrometheusName(raw);
    AppendFamilyHeader(name, "gauge", "disc gauge '" + raw + "'", &out);
    out += name + " ";
    AppendDouble(value, &out);
    out += "\n";
  }
  for (const auto& [raw, h] : metrics.histograms) {
    const std::string name = PrometheusName(raw);
    AppendFamilyHeader(name, "summary", "disc histogram '" + raw + "'",
                       &out);
    out += name + "_count " + std::to_string(h.count) + "\n";
    out += name + "_sum " + std::to_string(h.sum) + "\n";
    AppendFamilyHeader(name + "_min", "gauge",
                       "smallest recorded value of '" + raw + "'", &out);
    out += name + "_min " + std::to_string(h.min) + "\n";
    AppendFamilyHeader(name + "_max", "gauge",
                       "largest recorded value of '" + raw + "'", &out);
    out += name + "_max " + std::to_string(h.max) + "\n";
  }
  if (!runs.empty()) {
    for (const RunFamily& family : kRunFamilies) {
      AppendFamilyHeader(family.name, "gauge", family.help, &out);
      for (const ProgressSnapshot& run : runs) {
        AppendRunSample(family.name, run, family.value(run), &out);
      }
    }
  }
  return out;
}

std::string RenderPrometheusText() {
  std::string out = RenderPrometheusText(
      MetricsRegistry::Global().ExportAll(),
      RunRegistry::Global().SnapshotAll());
  AppendFamilyHeader("disc_process_rss_bytes", "gauge",
                     "current resident set size of the process", &out);
  out += "disc_process_rss_bytes " + std::to_string(CurrentRssBytes()) + "\n";
  AppendFamilyHeader("disc_process_peak_rss_bytes", "gauge",
                     "process-lifetime peak resident set size", &out);
  out += "disc_process_peak_rss_bytes " + std::to_string(PeakRssBytes()) +
         "\n";
  return out;
}

Status WritePrometheusFile(const std::string& path) {
  return WriteFileAtomic(path, RenderPrometheusText());
}

namespace {

// One sample line: name[{labels}] value [timestamp]. Returns the metric
// name through `*name`; false + message on malformed syntax.
bool ParseSampleLine(const std::string& line, std::string* name,
                     std::string* msg) {
  std::size_t i = 0;
  const std::size_t n = line.size();
  if (i >= n || !IsNameChar(line[i], /*first=*/true)) {
    *msg = "metric name must start with [a-zA-Z_:]";
    return false;
  }
  while (i < n && IsNameChar(line[i], /*first=*/false)) ++i;
  *name = line.substr(0, i);
  if (i < n && line[i] == '{') {
    ++i;
    while (i < n && line[i] != '}') {
      // label name
      if (!((line[i] >= 'a' && line[i] <= 'z') ||
            (line[i] >= 'A' && line[i] <= 'Z') || line[i] == '_')) {
        *msg = "label name must start with [a-zA-Z_]";
        return false;
      }
      while (i < n && (std::isalnum(static_cast<unsigned char>(line[i])) ||
                       line[i] == '_')) {
        ++i;
      }
      if (i >= n || line[i] != '=') {
        *msg = "label lacks '='";
        return false;
      }
      ++i;
      if (i >= n || line[i] != '"') {
        *msg = "label value lacks opening quote";
        return false;
      }
      ++i;
      while (i < n && line[i] != '"') {
        if (line[i] == '\\') {
          ++i;
          if (i >= n || (line[i] != '\\' && line[i] != '"' &&
                         line[i] != 'n')) {
            *msg = "invalid escape in label value";
            return false;
          }
        }
        ++i;
      }
      if (i >= n) {
        *msg = "label value lacks closing quote";
        return false;
      }
      ++i;  // closing quote
      if (i < n && line[i] == ',') ++i;
    }
    if (i >= n) {
      *msg = "labels lack closing '}'";
      return false;
    }
    ++i;  // '}'
  }
  if (i >= n || (line[i] != ' ' && line[i] != '\t')) {
    *msg = "sample lacks a value";
    return false;
  }
  while (i < n && (line[i] == ' ' || line[i] == '\t')) ++i;
  // value
  std::size_t value_end = i;
  while (value_end < n && line[value_end] != ' ' && line[value_end] != '\t') {
    ++value_end;
  }
  const std::string value = line.substr(i, value_end - i);
  char* end = nullptr;
  std::strtod(value.c_str(), &end);
  if (value.empty() || end == nullptr || *end != '\0') {
    *msg = "sample value '" + value + "' is not a number";
    return false;
  }
  i = value_end;
  while (i < n && (line[i] == ' ' || line[i] == '\t')) ++i;
  if (i < n) {
    // optional timestamp: integer milliseconds
    std::size_t ts_end = i;
    if (line[ts_end] == '-' || line[ts_end] == '+') ++ts_end;
    const std::size_t digits_start = ts_end;
    while (ts_end < n &&
           std::isdigit(static_cast<unsigned char>(line[ts_end]))) {
      ++ts_end;
    }
    if (ts_end == digits_start || ts_end != n) {
      *msg = "trailing junk after value";
      return false;
    }
  }
  return true;
}

}  // namespace

bool ValidatePrometheusText(const std::string& text, std::string* error) {
  auto fail = [error](std::size_t line_no, const std::string& msg) {
    if (error != nullptr) {
      *error = "line " + std::to_string(line_no) + ": " + msg;
    }
    return false;
  };
  static const std::set<std::string> kTypes = {"counter", "gauge", "summary",
                                               "histogram", "untyped"};
  std::set<std::string> typed;    // metrics with a TYPE line seen
  std::set<std::string> sampled;  // metric names with a sample seen
  std::size_t line_no = 0;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    ++line_no;
    if (line.empty()) continue;
    if (line[0] == '#') {
      const bool is_help = line.rfind("# HELP ", 0) == 0;
      const bool is_type = line.rfind("# TYPE ", 0) == 0;
      if (!is_help && !is_type) continue;  // free-form comment
      std::size_t i = 7;
      std::size_t name_end = i;
      while (name_end < line.size() && line[name_end] != ' ') ++name_end;
      const std::string name = line.substr(i, name_end - i);
      if (name.empty() || !IsNameChar(name[0], /*first=*/true)) {
        return fail(line_no, "invalid metric name in comment record");
      }
      for (std::size_t j = 1; j < name.size(); ++j) {
        if (!IsNameChar(name[j], /*first=*/false)) {
          return fail(line_no,
                      "invalid character in metric name '" + name + "'");
        }
      }
      if (is_type) {
        if (name_end >= line.size()) {
          return fail(line_no, "TYPE record lacks a type");
        }
        const std::string type = line.substr(name_end + 1);
        if (kTypes.count(type) == 0) {
          return fail(line_no, "unknown metric type '" + type + "'");
        }
        if (!typed.insert(name).second) {
          return fail(line_no, "duplicate TYPE for metric '" + name + "'");
        }
        // TYPE must precede the family's samples (a summary's samples are
        // <name>_count / <name>_sum).
        if (sampled.count(name) != 0 || sampled.count(name + "_count") != 0 ||
            sampled.count(name + "_sum") != 0) {
          return fail(line_no, "TYPE for '" + name + "' after its samples");
        }
      }
      continue;
    }
    std::string name;
    std::string msg;
    if (!ParseSampleLine(line, &name, &msg)) return fail(line_no, msg);
    sampled.insert(name);
  }
  return true;
}

}  // namespace obs
}  // namespace disc
