#include "disc/server/protocol.h"

#include <charconv>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <vector>

namespace disc {
namespace server {

namespace {

// Splits on runs of spaces/tabs. Paths with spaces are out of scope for
// the line protocol (documented in docs/SERVER.md).
std::vector<std::string> Tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream in(line);
  std::string tok;
  while (in >> tok) tokens.push_back(std::move(tok));
  return tokens;
}

// Full-consumption unsigned parse; rejects "", "4k", "1 2", negatives.
bool ParseU64(const std::string& s, std::uint64_t* out) {
  if (s.empty()) return false;
  const char* begin = s.data();
  const char* end = begin + s.size();
  auto [ptr, ec] = std::from_chars(begin, end, *out);
  return ec == std::errc() && ptr == end;
}

// Full-consumption double parse.
bool ParseDouble(const std::string& s, double* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  *out = std::strtod(s.c_str(), &end);
  return end == s.c_str() + s.size();
}

Status UnknownFlag(const char* verb, const std::string& flag) {
  return Status::InvalidArgument(std::string(verb) + ": unknown option '" +
                                 flag + "' (try `help`)");
}

Status BadValue(const std::string& flag, const std::string& value,
                const char* expected) {
  return Status::InvalidArgument("bad value '" + value + "' for " + flag +
                                 " (expected " + expected + ")");
}

// Splits "--flag=value" / consumes the next token for "--flag value".
// Returns false when the flag takes a value but none is present.
bool TakeValue(const std::vector<std::string>& tokens, std::size_t* i,
               std::size_t eq, std::string* value) {
  if (eq != std::string::npos) {
    *value = tokens[*i].substr(eq + 1);
    return true;
  }
  if (*i + 1 >= tokens.size()) return false;
  *value = tokens[++*i];
  return true;
}

StatusOr<Command> ParseMine(const std::vector<std::string>& tokens) {
  Command cmd;
  cmd.kind = Command::Kind::kMine;
  bool saw_minsup = false;
  bool saw_delta = false;
  for (std::size_t i = 1; i < tokens.size(); ++i) {
    const std::string& tok = tokens[i];
    const std::size_t eq = tok.find('=');
    const std::string flag = tok.substr(0, eq);
    std::string value;
    if (flag == "--minsup") {
      if (!TakeValue(tokens, &i, eq, &value)) {
        return Status::InvalidArgument("--minsup requires a value");
      }
      if (!ParseDouble(value, &cmd.mine.minsup) || cmd.mine.minsup <= 0.0 ||
          cmd.mine.minsup > 1.0) {
        return BadValue(flag, value, "a fraction in (0, 1]");
      }
      saw_minsup = true;
    } else if (flag == "--delta") {
      if (!TakeValue(tokens, &i, eq, &value)) {
        return Status::InvalidArgument("--delta requires a value");
      }
      std::uint64_t n = 0;
      if (!ParseU64(value, &n) || n == 0 ||
          n > std::numeric_limits<std::uint32_t>::max()) {
        return BadValue(flag, value, "an integer >= 1");
      }
      cmd.mine.delta = static_cast<std::int64_t>(n);
      saw_delta = true;
    } else if (flag == "--algo") {
      if (!TakeValue(tokens, &i, eq, &value) || value.empty()) {
        return Status::InvalidArgument("--algo requires a value");
      }
      cmd.mine.algo = value;
    } else if (flag == "--threads") {
      if (!TakeValue(tokens, &i, eq, &value)) {
        return Status::InvalidArgument("--threads requires a value");
      }
      std::uint64_t n = 0;
      if (!ParseU64(value, &n) ||
          n > std::numeric_limits<std::uint32_t>::max()) {
        return BadValue(flag, value, "a non-negative integer");
      }
      cmd.mine.threads = static_cast<std::uint32_t>(n);
    } else if (flag == "--deadline-ms") {
      if (!TakeValue(tokens, &i, eq, &value)) {
        return Status::InvalidArgument("--deadline-ms requires a value");
      }
      if (!ParseU64(value, &cmd.mine.deadline_ms)) {
        return BadValue(flag, value, "a non-negative integer");
      }
    } else if (flag == "--max-length") {
      if (!TakeValue(tokens, &i, eq, &value)) {
        return Status::InvalidArgument("--max-length requires a value");
      }
      std::uint64_t n = 0;
      if (!ParseU64(value, &n) ||
          n > std::numeric_limits<std::uint32_t>::max()) {
        return BadValue(flag, value, "a non-negative integer");
      }
      cmd.mine.max_length = static_cast<std::uint32_t>(n);
    } else if (flag == "--cancel-after") {
      if (!TakeValue(tokens, &i, eq, &value)) {
        return Status::InvalidArgument("--cancel-after requires a value");
      }
      if (!ParseU64(value, &cmd.mine.cancel_after) ||
          cmd.mine.cancel_after == kNoCancelAfter) {
        return BadValue(flag, value, "a non-negative integer");
      }
    } else {
      return UnknownFlag("mine", tok);
    }
  }
  if (saw_minsup && saw_delta) {
    return Status::InvalidArgument(
        "mine: --minsup and --delta are mutually exclusive");
  }
  if (saw_delta) cmd.mine.minsup = -1.0;
  return cmd;
}

StatusOr<Command> ParseLoad(const std::vector<std::string>& tokens) {
  Command cmd;
  cmd.kind = Command::Kind::kLoad;
  for (std::size_t i = 1; i < tokens.size(); ++i) {
    const std::string& tok = tokens[i];
    if (tok == "--permissive") {
      cmd.permissive = true;
    } else if (tok.size() >= 2 && tok[0] == '-' && tok[1] == '-') {
      return UnknownFlag("load", tok);
    } else if (cmd.path.empty()) {
      cmd.path = tok;
    } else {
      return Status::InvalidArgument("load: unexpected argument '" + tok +
                                     "'");
    }
  }
  if (cmd.path.empty()) {
    return Status::InvalidArgument("load: missing <path>");
  }
  return cmd;
}

StatusOr<Command> ParseBare(const std::vector<std::string>& tokens,
                            Command::Kind kind) {
  if (tokens.size() > 1) {
    return Status::InvalidArgument(tokens[0] + ": takes no arguments");
  }
  Command cmd;
  cmd.kind = kind;
  return cmd;
}

}  // namespace

StatusOr<Command> ParseCommand(const std::string& line) {
  const std::vector<std::string> tokens = Tokenize(line);
  if (tokens.empty()) return Command{};  // kNop
  const std::string& verb = tokens[0];
  if (verb == "load") return ParseLoad(tokens);
  if (verb == "mine") return ParseMine(tokens);
  if (verb == "stop") return ParseBare(tokens, Command::Kind::kStop);
  if (verb == "stat") return ParseBare(tokens, Command::Kind::kStat);
  if (verb == "help") return ParseBare(tokens, Command::Kind::kHelp);
  if (verb == "quit") return ParseBare(tokens, Command::Kind::kQuit);
  return Status::InvalidArgument("unknown command '" + verb +
                                 "' (try `help`)");
}

std::string ProtocolUsage() {
  return
      "commands (one per line):\n"
      "  load <path> [--permissive]   load an SPMF database (replaces the "
      "current one)\n"
      "  mine [--minsup <f> | --delta <n>] [--algo <name>] [--threads <n>]\n"
      "       [--deadline-ms <n>] [--max-length <n>] [--cancel-after <n>]\n"
      "                               mine the loaded database (default "
      "--minsup 0.01;\n"
      "                               --threads 0, the default, uses every "
      "core)\n"
      "  stop                         cancel the in-flight mine (partial "
      "result)\n"
      "  stat                         engine, cache, and live-run status\n"
      "  help                         this text\n"
      "  quit                         finish in-flight and queued work, then "
      "exit";
}

}  // namespace server
}  // namespace disc
