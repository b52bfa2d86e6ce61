// File I/O for sequence databases in the SPMF text format:
// one sequence per line; items are positive integers separated by spaces;
// -1 terminates each itemset and -2 terminates the sequence, e.g.
//   1 5 7 -1 2 -1 -2
//
// The loaders are recoverable: malformed input comes back as a Status
// (kDataLoss / kIoError) with per-line context, or — in permissive mode —
// malformed records are skipped and counted (the "io.records.skipped"
// counter and ParseReport::skipped), so a serving process can ingest a
// dirty file without dying. Whitespace-only lines and CRLF line endings
// are tolerated in both modes, and the last line does not need a trailing
// newline. Where failing loudly is correct (tests, one-shot tools), call
// value() on the result: it aborts with the status text.
#ifndef DISC_SEQ_IO_H_
#define DISC_SEQ_IO_H_

#include <cstddef>
#include <string>

#include "disc/common/status.h"
#include "disc/seq/database.h"

namespace disc {

/// Ingestion behavior on malformed records.
struct ParseOptions {
  enum class OnError {
    kStrict,      ///< first malformed line fails the parse (kDataLoss)
    kPermissive,  ///< malformed lines are skipped and counted
  };
  OnError on_error = OnError::kStrict;

  static ParseOptions Strict() { return ParseOptions{}; }
  static ParseOptions Permissive() {
    return ParseOptions{OnError::kPermissive};
  }
};

/// What a Try* parse saw. `skipped` is non-zero only in permissive mode.
struct ParseReport {
  std::size_t records = 0;   ///< sequences successfully ingested
  std::size_t skipped = 0;   ///< malformed lines dropped (permissive)
  std::string first_error;   ///< diagnostic of the first skipped line
};

/// Serializes the database in SPMF format.
std::string ToSpmfString(const SequenceDatabase& db);

/// Parses a database from SPMF-format text. Strict mode returns kDataLoss
/// with "line N: ..." context on the first malformed record; permissive
/// mode skips malformed lines, bumps "io.records.skipped", and reports
/// them via `report` (optional, may be null).
StatusOr<SequenceDatabase> TryFromSpmfString(const std::string& text,
                                             const ParseOptions& options = {},
                                             ParseReport* report = nullptr);

/// Reads a database from a file. kIoError if the file cannot be opened;
/// otherwise as TryFromSpmfString, with the path prefixed to diagnostics.
/// Fail point: "io.read" (error makes the read fail with kIoError).
StatusOr<SequenceDatabase> TryLoadSpmf(const std::string& path,
                                       const ParseOptions& options = {},
                                       ParseReport* report = nullptr);

/// Writes the database to a file. Returns false on I/O failure.
bool SaveSpmf(const SequenceDatabase& db, const std::string& path);

}  // namespace disc

#endif  // DISC_SEQ_IO_H_
