#include "disc/seq/io.h"

#include <cctype>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <vector>

#include "disc/common/failpoint.h"
#include "disc/obs/metrics.h"
#include "disc/obs/trace.h"

namespace disc {
namespace {

DISC_OBS_COUNTER(g_records_skipped, "io.records.skipped");

// One logical record is one line. The validate pass runs fully before any
// append, so a malformed line leaves the database untouched (this is what
// lets permissive mode skip it cleanly). Both passes share the same token
// walk — the historical bug class here was the counting pre-pass and the
// fill pass disagreeing about odd whitespace.
struct LineParser {
  std::vector<long long> tokens;  // reused across lines

  // Tokenizes [begin, end) — spaces, tabs, and a trailing '\r' (CRLF
  // input) all count as separators. Returns a diagnostic or empty.
  std::string Tokenize(const char* begin, const char* end) {
    tokens.clear();
    const char* p = begin;
    while (p < end) {
      if (std::isspace(static_cast<unsigned char>(*p))) {
        ++p;
        continue;
      }
      char* after = nullptr;
      const long long value = std::strtoll(p, &after, 10);
      if (after == p ||
          (after < end && !std::isspace(static_cast<unsigned char>(*after)))) {
        const char* tok_end = p;
        while (tok_end < end &&
               !std::isspace(static_cast<unsigned char>(*tok_end))) {
          ++tok_end;
        }
        return "malformed token '" + std::string(p, tok_end) +
               "' in SPMF input";
      }
      tokens.push_back(value);
      p = after;
    }
    return std::string();
  }

  // Structural validation of the tokenized line: one or more complete
  // "-2"-terminated sequences. Returns a diagnostic or empty.
  std::string Validate() const {
    bool seq_open = false;
    bool txn_open = false;
    Item last = kNoItem;
    for (const long long tok : tokens) {
      if (tok == -1) {
        if (!txn_open) return "empty itemset in SPMF input";
        txn_open = false;
        last = kNoItem;
      } else if (tok == -2) {
        if (txn_open) return "itemset not closed before -2";
        if (!seq_open) return "empty sequence in SPMF input";
        seq_open = false;
      } else if (tok <= 0) {
        return "items must be positive in SPMF input";
      } else if (tok > static_cast<long long>(
                           std::numeric_limits<Item>::max())) {
        return "item out of range in SPMF input";
      } else {
        const Item x = static_cast<Item>(tok);
        if (txn_open && x <= last) {
          return "itemset must be strictly ascending (sorted, no "
                 "duplicates) in SPMF input";
        }
        seq_open = true;
        txn_open = true;
        last = x;
      }
    }
    if (txn_open) return "unterminated itemset in SPMF input (missing -1)";
    if (seq_open) return "unterminated sequence in SPMF input (missing -2)";
    return std::string();
  }

  // Appends the validated tokens into the database. Only called after
  // Validate() returned empty.
  std::size_t AppendTo(SequenceDatabase* db) const {
    std::size_t records = 0;
    bool seq_open = false;
    for (const long long tok : tokens) {
      if (tok == -1) {
        db->EndTransaction();
      } else if (tok == -2) {
        db->EndSequence();
        seq_open = false;
        ++records;
      } else {
        if (!seq_open) {
          db->BeginSequence();
          seq_open = true;
        }
        db->AppendItem(static_cast<Item>(tok));
      }
    }
    return records;
  }
};

// Cheap whole-text token census for the one-shot arena reservation. Counts
// only token classes (no validation); slight overcounts from lines that
// later fail validation just mean a little spare capacity.
void ReserveFromCensus(const std::string& text, SequenceDatabase* db) {
  std::size_t items = 0, txns = 0, seqs = 0;
  const char* p = text.data();
  const char* end = p + text.size();
  while (p < end) {
    if (std::isspace(static_cast<unsigned char>(*p))) {
      ++p;
      continue;
    }
    const char* tok = p;
    while (p < end && !std::isspace(static_cast<unsigned char>(*p))) ++p;
    const std::size_t len = static_cast<std::size_t>(p - tok);
    if (len == 2 && tok[0] == '-' && tok[1] == '1') {
      ++txns;
    } else if (len == 2 && tok[0] == '-' && tok[1] == '2') {
      ++seqs;
    } else {
      ++items;
    }
  }
  db->Reserve(items, txns, seqs);
}

}  // namespace

std::string ToSpmfString(const SequenceDatabase& db) {
  std::string out;
  for (const SequenceView s : db) {
    for (std::uint32_t t = 0; t < s.NumTransactions(); ++t) {
      for (const Item* p = s.TxnBegin(t); p != s.TxnEnd(t); ++p) {
        out += std::to_string(*p);
        out += ' ';
      }
      out += "-1 ";
    }
    out += "-2\n";
  }
  return out;
}

StatusOr<SequenceDatabase> TryFromSpmfString(const std::string& text,
                                             const ParseOptions& options,
                                             ParseReport* report) {
  SequenceDatabase db;
  ReserveFromCensus(text, &db);

  ParseReport local;
  ParseReport& rep = report != nullptr ? *report : local;
  rep = ParseReport{};

  LineParser parser;
  std::size_t line_no = 0;
  std::size_t start = 0;
  while (start <= text.size()) {
    std::size_t end = text.find('\n', start);
    const bool last = end == std::string::npos;
    if (last) end = text.size();
    ++line_no;
    const char* begin_p = text.data() + start;
    const char* end_p = text.data() + end;
    start = end + 1;

    std::string diag = parser.Tokenize(begin_p, end_p);
    if (diag.empty() && !parser.tokens.empty()) diag = parser.Validate();
    if (!diag.empty()) {
      diag = "line " + std::to_string(line_no) + ": " + diag;
      if (options.on_error == ParseOptions::OnError::kStrict) {
        return Status::DataLoss(diag);
      }
      ++rep.skipped;
      DISC_OBS_INC(g_records_skipped);
      if (rep.first_error.empty()) rep.first_error = diag;
    } else if (!parser.tokens.empty()) {
      rep.records += parser.AppendTo(&db);
    }
    if (last) break;
  }
  return db;
}

StatusOr<SequenceDatabase> TryLoadSpmf(const std::string& path,
                                       const ParseOptions& options,
                                       ParseReport* report) {
  DISC_OBS_SPAN("io/load_spmf");
  if (DISC_FAILPOINT("io.read") == failpoint::Action::kError) {
    return Status::IoError("failpoint io.read injected while reading " +
                           path);
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::IoError("cannot open SPMF file " + path);
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  if (in.bad()) {
    return Status::IoError("read from SPMF file " + path + " failed");
  }
  auto result = TryFromSpmfString(buf.str(), options, report);
  if (!result.ok()) {
    return Status(result.status().code(),
                  path + ": " + result.status().message());
  }
  return result;
}

bool SaveSpmf(const SequenceDatabase& db, const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  out << ToSpmfString(db);
  return static_cast<bool>(out);
}

}  // namespace disc
