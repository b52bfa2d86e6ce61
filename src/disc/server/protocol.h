// The seqmined line protocol: parsing and grammar, separated from the
// serving loop (server/server.h) so every command form is testable without
// streams or an engine (tests/server_protocol_test.cc).
//
// One command per line, verb first, `--flag value` or `--flag=value`
// options:
//
//   load <path> [--permissive]
//   mine [--minsup <f>] [--delta <n>] [--algo <name>] [--threads <n>]
//        [--deadline-ms <n>] [--max-length <n>] [--cancel-after <n>]
//   stop
//   stat
//   help
//   quit
//
// `--minsup` is a relative support fraction in (0, 1]; `--delta` an
// absolute count >= 1; giving both is an error, giving neither defaults to
// minsup 0.01. `--cancel-after N` arms a deterministic checkpoint budget
// (the run self-cancels after N cancellation polls — work-bounded
// best-effort mining, and the lever the byte-prefix partial-result tests
// pull). Numbers parse strictly: trailing junk ("0.1x", "4k") is a usage
// error, never silently truncated. See docs/SERVER.md for response
// framing.
#ifndef DISC_SERVER_PROTOCOL_H_
#define DISC_SERVER_PROTOCOL_H_

#include <cstdint>
#include <string>

#include "disc/common/status.h"

namespace disc {
namespace server {

/// No --cancel-after budget given (MineArgs::cancel_after).
inline constexpr std::uint64_t kNoCancelAfter = ~std::uint64_t{0};

/// Options of a `mine` command, defaults applied.
struct MineArgs {
  /// Relative minimum support; < 0 means "use delta". Exactly one of
  /// minsup / delta is active after a successful parse.
  double minsup = 0.01;
  /// Absolute support-count threshold; < 0 means "use minsup".
  std::int64_t delta = -1;
  std::string algo = "disc-all";
  /// Mining threads; 0 = one per hardware thread (MineOptions::threads).
  /// The output is byte-identical at any count.
  std::uint32_t threads = 0;
  std::uint64_t deadline_ms = 0;
  std::uint32_t max_length = 0;
  std::uint64_t cancel_after = kNoCancelAfter;
};

/// One parsed protocol command.
struct Command {
  enum class Kind { kNop, kLoad, kMine, kStop, kStat, kHelp, kQuit };

  Kind kind = Kind::kNop;
  // kLoad:
  std::string path;
  bool permissive = false;
  // kMine:
  MineArgs mine;
};

/// Parses one protocol line. Empty / whitespace-only lines are kNop.
/// Unknown verbs, unknown flags, malformed or out-of-range values come
/// back as kInvalidArgument with a one-line diagnostic suitable for an
/// `error ...` response.
StatusOr<Command> ParseCommand(const std::string& line);

/// Help text: one grammar line per command, newline-separated (the server
/// prefixes each with "info ").
std::string ProtocolUsage();

}  // namespace server
}  // namespace disc

#endif  // DISC_SERVER_PROTOCOL_H_
