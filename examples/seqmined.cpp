// seqmined — the resident mining server: the line protocol of
// docs/SERVER.md over one engine (engine/engine.h), whose query cache
// turns a minsup sweep into one first-level build plus N cache hits.
//
// Two transports share the engine:
//
//   stdin/stdout (default) — one trusted client; pipe a script in, or
//   drive it interactively:
//
//     $ ./seqmined [input.spmf | --db=input.dsa] [--permissive]
//                  [--serve-threads=N]
//     info seqmined ready
//     load data.spmf
//     ok load sequences=1000 items=8234 max_item=100 skipped=0
//     mine --minsup 0.02
//     ok mine id=1 algo=disc-all delta=20 status=complete reason=none ...
//     1 -1 #SUP: 412
//     ...
//     end
//     quit
//     ok quit
//
//   sockets (--listen-unix and/or --listen-tcp) — many clients, each on
//   its own connection, under admission control (docs/SERVER.md,
//   "Transport & admission"):
//
//     $ ./seqmined data.spmf --listen-unix=/tmp/seqmined.sock
//         --listen-tcp=0 --max-inflight=4 --per-client=2
//     seqmined: listening on unix:/tmp/seqmined.sock
//     seqmined: listening on tcp:127.0.0.1:43651
//
//   --listen-tcp=0 picks an ephemeral port; the resolved address lines go
//   to stdout (flushed) so scripts can scrape them. Over-limit `mine`
//   commands are shed with `err busy retry-after-ms=<hint>`; SIGTERM or
//   SIGINT drains: stop accepting, cancel in-flight mines (each client
//   still receives its byte-prefix partial result), exit 0 within
//   --drain-deadline-ms.
//
// The optional positional argument preloads a database (same as a first
// `load` command); --db=PATH is the same preload spelled as a flag —
// natural for packed .dsa arena files (docs/STORAGE.md), which mmap in
// O(1) instead of parsing; either spelling accepts either format.
// --permissive applies to the preload AND sets nothing
// else — per-command parse mode is `load ... --permissive`.
// --serve-threads sizes the engine's session pool: how many queries can
// run concurrently, independent of each query's own --threads.
// --cache-slots sizes the first-level LRU (how many databases stay warm).
//
// `seqmine --connect` is the matching socket client.
//
// Exit codes (docs/ROBUSTNESS.md): 0 the session reached quit/EOF — or,
// in socket mode, a clean drain (command failures are reported in-band as
// `error` responses), 2 usage error, 3 preload or listen failure.
#include <cstdio>
#include <iostream>

#include "disc/common/flags.h"
#include "disc/disc.h"

namespace {

constexpr int kExitUsage = 2;
constexpr int kExitDataError = 3;

int Usage() {
  std::fprintf(
      stderr,
      "usage: seqmined [input.spmf | --db=input.dsa] [--permissive]\n"
      "                [--serve-threads=N] [--cache-slots=N]\n"
      "                [--listen-unix=PATH] [--listen-tcp=PORT (0=ephemeral)]\n"
      "                [--listen-host=ADDR] [--max-inflight=N] "
      "[--max-pending=N]\n"
      "                [--per-client=N] [--default-deadline-ms=MS]\n"
      "                [--idle-timeout-ms=MS] [--write-timeout-ms=MS]\n"
      "                [--drain-deadline-ms=MS]\n"
      "serves the seqmined line protocol (docs/SERVER.md) on stdin/stdout,\n"
      "or on sockets when --listen-unix/--listen-tcp is given; `help` "
      "lists commands\n");
  return kExitUsage;
}

}  // namespace

int main(int argc, char** argv) {
  const disc::Flags flags = disc::Flags::Parse(argc, argv);
  if (flags.GetBool("help", false)) {
    Usage();
    return 0;  // asked-for usage is a success, not a usage error
  }
  if (flags.positional().size() > 1) return Usage();
  const long long serve_threads = flags.GetInt("serve-threads", 2);
  if (serve_threads < 0) {
    std::fprintf(stderr, "seqmined: --serve-threads must be >= 0\n");
    return kExitUsage;
  }
  const long long cache_slots = flags.GetInt("cache-slots", 4);
  if (cache_slots < 1) {
    std::fprintf(stderr, "seqmined: --cache-slots must be >= 1\n");
    return kExitUsage;
  }

  disc::engine::Engine::Config config;
  config.session_threads = static_cast<std::uint32_t>(serve_threads);
  config.cache_slots = static_cast<std::uint32_t>(cache_slots);
  disc::engine::Engine engine(config);

  std::string preload = flags.GetString("db", "");
  if (!flags.positional().empty()) {
    if (!preload.empty()) {
      std::fprintf(stderr,
                   "seqmined: give a positional input or --db, not both\n");
      return kExitUsage;
    }
    preload = flags.positional()[0];
  }
  if (!preload.empty()) {
    auto info = engine.LoadPath(preload, flags.GetBool("permissive", false)
                                             ? disc::ParseOptions::Permissive()
                                             : disc::ParseOptions::Strict());
    if (!info.ok()) {
      std::fprintf(stderr, "seqmined: %s\n", info.status().message().c_str());
      return kExitDataError;
    }
    std::fprintf(stderr, "seqmined: preloaded %zu sequences from %s\n",
                 info->sequences, preload.c_str());
  }

  const bool socket_mode = flags.Has("listen-unix") || flags.Has("listen-tcp");
  if (!socket_mode) {
    disc::server::Server server(&engine, std::cin, std::cout);
    return server.Run();
  }

  disc::server::TransportOptions options;
  options.unix_path = flags.GetString("listen-unix", "");
  const long long tcp_port = flags.GetInt("listen-tcp", -1);
  if (flags.Has("listen-tcp") && (tcp_port < 0 || tcp_port > 65535)) {
    std::fprintf(stderr, "seqmined: --listen-tcp must be in [0, 65535]\n");
    return kExitUsage;
  }
  options.tcp_port = static_cast<int>(tcp_port);
  options.tcp_host = flags.GetString("listen-host", "127.0.0.1");
  options.idle_timeout_ms =
      static_cast<std::uint64_t>(flags.GetInt("idle-timeout-ms", 300000));
  options.write_timeout_ms =
      static_cast<std::uint64_t>(flags.GetInt("write-timeout-ms", 10000));
  options.drain_deadline_ms =
      static_cast<std::uint64_t>(flags.GetInt("drain-deadline-ms", 5000));
  options.admission.max_inflight =
      static_cast<std::uint32_t>(flags.GetInt("max-inflight", 4));
  options.admission.max_pending =
      static_cast<std::uint32_t>(flags.GetInt("max-pending", 8));
  options.admission.per_client =
      static_cast<std::uint32_t>(flags.GetInt("per-client", 2));
  options.admission.default_deadline_ms =
      static_cast<std::uint64_t>(flags.GetInt("default-deadline-ms", 0));
  if (options.admission.max_inflight < 1 ||
      options.admission.per_client < 1) {
    std::fprintf(stderr,
                 "seqmined: --max-inflight and --per-client must be >= 1\n");
    return kExitUsage;
  }

  disc::server::SocketTransport transport(&engine, options);
  disc::Status listening = transport.Listen();
  if (!listening.ok()) {
    std::fprintf(stderr, "seqmined: %s\n", listening.ToString().c_str());
    return kExitDataError;
  }
  // Resolved addresses on stdout, flushed: scripts block on these lines to
  // learn the ephemeral port before connecting.
  if (!transport.unix_path().empty()) {
    std::printf("seqmined: listening on unix:%s\n",
                transport.unix_path().c_str());
  }
  if (transport.tcp_port() > 0) {
    std::printf("seqmined: listening on tcp:%s:%d\n",
                options.tcp_host.c_str(), transport.tcp_port());
  }
  std::fflush(stdout);

  disc::server::InstallDrainSignalHandlers(&transport);
  const int exit_code = transport.Serve();
  disc::server::InstallDrainSignalHandlers(nullptr);
  return exit_code;
}
