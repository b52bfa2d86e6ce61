// Socket transport tests (server/transport.h, server/admission.h wired
// through server/server.h): loopback unix + TCP round trips, per-client
// load shedding with the `err busy` line, mid-mine disconnect cancelling
// the session and releasing its admission slot, drain delivering
// byte-prefix partial results before a zero exit, idle timeouts, and
// admission state in `stat` framing.
//
// Everything runs in-process: the transport serves on a background thread
// while the test plays one or more clients over DialAddress/FdStream.
// Timing-dependent phases synchronize on observable state (admission
// snapshots, engine.active()) rather than sleeps, except where a
// `pool.task=delay` fail point pins a session in flight deterministically.
#include "disc/server/transport.h"

#include <unistd.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "disc/common/failpoint.h"
#include "disc/engine/engine.h"
#include "disc/server/admission.h"
#include "test_util.h"

namespace disc {
namespace server {
namespace {

using std::chrono::milliseconds;
using std::chrono::steady_clock;

/// Polls `cond` until true or ~5s; true when the condition was met.
template <typename Cond>
bool WaitUntil(Cond cond) {
  const auto deadline = steady_clock::now() + milliseconds(5000);
  while (steady_clock::now() < deadline) {
    if (cond()) return true;
    std::this_thread::sleep_for(milliseconds(5));
  }
  return cond();
}

/// One protocol client over a dialed connection.
struct Client {
  std::unique_ptr<FdStream> stream;

  bool Connect(const std::string& address) {
    StatusOr<int> fd = DialAddress(address);
    if (!fd.ok()) return false;
    stream = std::make_unique<FdStream>(*fd);
    return true;
  }
  void Send(const std::string& line) { *stream << line << "\n" << std::flush; }
  bool ReadLine(std::string* line) {
    return static_cast<bool>(std::getline(*stream, *line));
  }
  /// Reads one `ok mine` (or error/busy) header; on `ok mine`, collects
  /// the pattern block through its `end` frame into `block`.
  bool ReadMineResponse(std::string* header, std::vector<std::string>* block) {
    if (!ReadLine(header)) return false;
    if (header->rfind("ok mine", 0) != 0) return true;  // busy/error line
    std::string line;
    while (ReadLine(&line)) {
      if (line == "end") return true;
      block->push_back(line);
    }
    return false;
  }
};

class SocketTransportTest : public ::testing::Test {
 protected:
  void SetUp() override {
    engine_ = std::make_unique<engine::Engine>();
    engine_->LoadDatabase(testutil::MakeQuestDb(
        {.ncust = 120, .nitems = 50, .slen = 5, .tlen = 2.0}));
    socket_path_ = ::testing::TempDir() + "disc_tt_" +
                   std::to_string(::getpid()) + ".sock";
  }

  void TearDown() override {
    StopTransport();
    failpoint::Reset();
  }

  void Start(TransportOptions options) {
    options.unix_path = options.tcp_port >= 0 ? "" : socket_path_;
    transport_ = std::make_unique<SocketTransport>(engine_.get(), options);
    ASSERT_TRUE(transport_->Listen().ok());
    serve_thread_ = std::thread([this] { exit_code_ = transport_->Serve(); });
  }

  void StopTransport() {
    if (transport_ == nullptr) return;
    transport_->RequestDrain();
    if (serve_thread_.joinable()) serve_thread_.join();
    transport_.reset();
  }

  std::string UnixAddress() const { return "unix:" + socket_path_; }

  /// Connects and consumes the greeting.
  void ConnectReady(Client* client, const std::string& address) {
    ASSERT_TRUE(client->Connect(address)) << address;
    std::string line;
    ASSERT_TRUE(client->ReadLine(&line));
    EXPECT_EQ(line, "info seqmined ready");
  }

  std::unique_ptr<engine::Engine> engine_;
  std::string socket_path_;
  std::unique_ptr<SocketTransport> transport_;
  std::thread serve_thread_;
  int exit_code_ = -1;
};

TEST_F(SocketTransportTest, UnixRoundTripMinesAndQuits) {
  Start(TransportOptions{});
  Client client;
  ConnectReady(&client, UnixAddress());

  client.Send("mine --minsup 0.1");
  std::string header;
  std::vector<std::string> block;
  ASSERT_TRUE(client.ReadMineResponse(&header, &block));
  EXPECT_EQ(header.rfind("ok mine ", 0), 0u) << header;
  EXPECT_NE(header.find("status=complete"), std::string::npos) << header;
  EXPECT_FALSE(block.empty());

  client.Send("quit");
  std::string line;
  ASSERT_TRUE(client.ReadLine(&line));
  EXPECT_EQ(line, "ok quit");
  EXPECT_FALSE(client.ReadLine(&line)) << "connection must close after quit";
  EXPECT_TRUE(WaitUntil([&] { return transport_->active_connections() == 0; }));
}

TEST_F(SocketTransportTest, TcpEphemeralPortRoundTrip) {
  TransportOptions options;
  options.tcp_port = 0;  // ephemeral; resolved after Listen()
  Start(options);
  ASSERT_GT(transport_->tcp_port(), 0);

  Client client;
  ConnectReady(&client,
               "127.0.0.1:" + std::to_string(transport_->tcp_port()));
  client.Send("mine --minsup 0.1");
  std::string header;
  std::vector<std::string> block;
  ASSERT_TRUE(client.ReadMineResponse(&header, &block));
  EXPECT_NE(header.find("status=complete"), std::string::npos) << header;
  EXPECT_FALSE(block.empty());
  client.Send("quit");
}

TEST_F(SocketTransportTest, PerClientLimitShedsWithBusyLineThenRecovers) {
  TransportOptions options;
  options.admission.per_client = 1;
  Start(options);
  // Pin the first mine in flight: its pool task sleeps before mining, so
  // the slot is held while the second client is (deterministically) shed.
  ASSERT_TRUE(failpoint::Configure("pool.task=delay:500").ok());

  Client first, second;
  ConnectReady(&first, UnixAddress());
  ConnectReady(&second, UnixAddress());

  // One thread: a parallel mine would queue a delayed task per partition.
  first.Send("mine --minsup 0.1 --threads 1");
  ASSERT_TRUE(WaitUntil([&] {
    return transport_->admission().snapshot().active >= 1;
  })) << "first mine never took its admission slot";

  // Both connections come from this process (same uid), so the per-client
  // limit sees through them and sheds the second mine immediately.
  second.Send("mine --minsup 0.1");
  std::string busy;
  ASSERT_TRUE(second.ReadLine(&busy));
  EXPECT_EQ(busy.rfind("err busy retry-after-ms=", 0), 0u) << busy;
  EXPECT_NE(busy.find("reason=client"), std::string::npos) << busy;

  failpoint::Reset();
  std::string header;
  std::vector<std::string> block;
  ASSERT_TRUE(first.ReadMineResponse(&header, &block));
  EXPECT_NE(header.find("status=complete"), std::string::npos) << header;

  // The slot is free again: the polite retry is admitted.
  second.Send("mine --minsup 0.1");
  std::string retry_header;
  std::vector<std::string> retry_block;
  ASSERT_TRUE(second.ReadMineResponse(&retry_header, &retry_block));
  EXPECT_EQ(retry_header.rfind("ok mine ", 0), 0u) << retry_header;
  EXPECT_EQ(retry_block, block) << "same query, same database, same bytes";

  first.Send("quit");
  second.Send("quit");
}

TEST_F(SocketTransportTest, MidMineDisconnectCancelsSessionAndReleasesSlot) {
  Start(TransportOptions{});
  ASSERT_TRUE(failpoint::Configure("pool.task=delay:500").ok());

  {
    Client client;
    ConnectReady(&client, UnixAddress());
    // One thread: a parallel mine would queue a delayed task per partition,
    // each sleeping before it sees the cancellation.
    client.Send("mine --minsup 0.1 --threads 1");
    ASSERT_TRUE(WaitUntil([&] {
      return transport_->admission().snapshot().active >= 1;
    }));
  }  // ~Client closes the socket with the mine still in flight

  // The dead client's session must be cancelled, its admission slot
  // released, and its connection reaped — nothing wedged, nothing leaked.
  EXPECT_TRUE(WaitUntil([&] { return engine_->active() == 0; }))
      << "disconnect must cancel the in-flight session";
  EXPECT_TRUE(WaitUntil([&] {
    return transport_->admission().snapshot().active == 0;
  })) << "disconnect must release the admission slot";
  EXPECT_TRUE(WaitUntil([&] { return transport_->active_connections() == 0; }))
      << "disconnect must reap the connection";
}

TEST_F(SocketTransportTest, DrainDeliversBytePrefixPartialThenExitsZero) {
  Start(TransportOptions{});
  Client client;
  ConnectReady(&client, UnixAddress());

  // Reference run: the full pattern block for this query.
  client.Send("mine --minsup 0.05");
  std::string full_header;
  std::vector<std::string> full;
  ASSERT_TRUE(client.ReadMineResponse(&full_header, &full));
  ASSERT_NE(full_header.find("status=complete"), std::string::npos);
  ASSERT_FALSE(full.empty());
  // The server releases the admission slot just after writing `end`; without
  // this wait the in-flight check below can see the reference run's slot and
  // drain before the second mine is even read.
  ASSERT_TRUE(WaitUntil([&] {
    return transport_->admission().snapshot().active == 0;
  }));

  // Same query pinned in flight, then drain (what SIGTERM triggers via
  // InstallDrainSignalHandlers). The client must still receive its
  // response — a byte-prefix of the full block — before the server exits.
  // One thread: a parallel mine would queue a delayed task per partition,
  // each sleeping before it sees the drain.
  ASSERT_TRUE(failpoint::Configure("pool.task=delay:500").ok());
  client.Send("mine --minsup 0.05 --threads 1");
  ASSERT_TRUE(WaitUntil([&] {
    return transport_->admission().snapshot().active >= 1;
  }));
  transport_->RequestDrain();

  std::string header;
  std::vector<std::string> partial;
  ASSERT_TRUE(client.ReadMineResponse(&header, &partial));
  EXPECT_NE(header.find("status=partial"), std::string::npos) << header;
  EXPECT_NE(header.find("reason=cancelled"), std::string::npos) << header;
  ASSERT_LE(partial.size(), full.size());
  for (std::size_t i = 0; i < partial.size(); ++i) {
    EXPECT_EQ(partial[i], full[i])
        << "drained block must be a byte-prefix of the full block (line "
        << i << ")";
  }

  serve_thread_.join();
  EXPECT_EQ(exit_code_, 0) << "a clean drain is exit 0";
}

TEST_F(SocketTransportTest, IdleTimeoutDropsASilentConnection) {
  TransportOptions options;
  options.idle_timeout_ms = 100;
  Start(options);

  Client client;
  ConnectReady(&client, UnixAddress());
  // Send nothing: the server must drop us instead of parking a thread on
  // a silent peer forever. EOF (after the close-out framing) is the
  // observable signal.
  std::string line;
  while (client.ReadLine(&line)) {
  }
  EXPECT_TRUE(WaitUntil([&] { return transport_->active_connections() == 0; }));
}

TEST_F(SocketTransportTest, StatReportsAdmissionAndCacheState) {
  Start(TransportOptions{});
  Client client;
  ConnectReady(&client, UnixAddress());

  client.Send("mine --minsup 0.1");
  std::string header;
  std::vector<std::string> block;
  ASSERT_TRUE(client.ReadMineResponse(&header, &block));

  client.Send("stat");
  bool saw_admit = false, saw_client = false, saw_cache = false;
  std::string line;
  while (client.ReadLine(&line) && line != "ok stat") {
    if (line.rfind("info admit active=", 0) == 0) {
      saw_admit = true;
      EXPECT_NE(line.find(" rejected="), std::string::npos) << line;
      EXPECT_NE(line.find(" max_inflight="), std::string::npos) << line;
    }
    if (line.rfind("info client id=uid:", 0) == 0) saw_client = true;
    if (line.rfind("info cache hits=", 0) == 0) {
      saw_cache = true;
      EXPECT_NE(line.find(" slots="), std::string::npos) << line;
      EXPECT_NE(line.find(" capacity="), std::string::npos) << line;
      EXPECT_NE(line.find(" evictions="), std::string::npos) << line;
    }
  }
  EXPECT_TRUE(saw_admit) << "stat must expose global admission state";
  EXPECT_TRUE(saw_client) << "stat must expose per-client admission state";
  EXPECT_TRUE(saw_cache);
  client.Send("quit");
}

TEST(DialAddressTest, RejectsMalformedAndUnreachableAddresses) {
  EXPECT_EQ(DialAddress("nonsense").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(DialAddress("unix:").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_FALSE(DialAddress("unix:/nonexistent/disc.sock").ok());
  EXPECT_FALSE(DialAddress("127.0.0.1:1").ok())
      << "nothing listens on a privileged low port in the test env";
}

}  // namespace
}  // namespace server
}  // namespace disc
