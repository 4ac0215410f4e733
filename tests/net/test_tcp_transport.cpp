#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net_test_util.h"
#include "pa/check/mutex.h"
#include "pa/common/error.h"
#include "pa/common/time_utils.h"
#include "pa/net/tcp_transport.h"
#include "pa/net/wire.h"

namespace pa::net {
namespace {

template <typename Pred>
bool eventually(Pred predicate, double timeout_seconds = 10.0) {
  const double deadline = pa::wall_seconds() + timeout_seconds;
  while (!predicate()) {
    if (pa::wall_seconds() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  return true;
}

std::string framed(const std::string& payload) {
  std::string out;
  append_frame(out, payload);
  return out;
}

struct EchoServer {
  AcceptHandler acceptor() {
    return [this](const ConnectionPtr& conn) {
      {
        check::MutexLock lock(mu_);
        accepted_.push_back(conn);
      }
      ConnectionHandlers h;
      h.on_message = [this, conn](const std::string& payload) {
        {
          check::MutexLock lock(mu_);
          received_.push_back(payload);
        }
        conn->send(framed("echo:" + payload));
      };
      h.on_close = [this]() { closes_.fetch_add(1); };
      return h;
    };
  }

  std::size_t count() {
    check::MutexLock lock(mu_);
    return received_.size();
  }

  /// Accepted connections still alive (each echo handler holds its own).
  std::size_t live_connections() {
    check::MutexLock lock(mu_);
    std::size_t live = 0;
    for (const auto& conn : accepted_) {
      live += conn.expired() ? 0 : 1;
    }
    return live;
  }

  check::Mutex mu_{check::LockRank::kLeaf, "test.echo_server"};
  std::vector<std::string> received_ PA_GUARDED_BY(mu_);
  std::vector<std::weak_ptr<Connection>> accepted_ PA_GUARDED_BY(mu_);
  std::atomic<int> closes_{0};
};

TEST(TcpTransport, ListenResolvesKernelPort) {
  PA_NET_REQUIRE_TCP();
  TcpTransport transport;
  EchoServer server;
  const std::string endpoint =
      transport.listen("127.0.0.1:0", server.acceptor());
  // The kernel-chosen port replaces the 0.
  EXPECT_EQ(endpoint.rfind("127.0.0.1:", 0), 0u);
  EXPECT_NE(endpoint, "127.0.0.1:0");
  transport.stop();
}

TEST(TcpTransport, EchoOverRealSockets) {
  PA_NET_REQUIRE_TCP();
  TcpTransport transport;
  EchoServer server;
  const std::string endpoint =
      transport.listen("127.0.0.1:0", server.acceptor());

  check::Mutex mu{check::LockRank::kLeaf, "test.replies"};
  std::vector<std::string> replies;
  ConnectionHandlers h;
  h.on_message = [&](const std::string& payload) {
    check::MutexLock lock(mu);
    replies.push_back(payload);
  };
  ConnectionPtr client = transport.connect(endpoint, h);
  ASSERT_TRUE(client);

  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(client->send(framed("msg-" + std::to_string(i))));
  }
  ASSERT_TRUE(eventually([&] {
    check::MutexLock lock(mu);
    return replies.size() == 50;
  }));
  {
    check::MutexLock lock(mu);
    for (int i = 0; i < 50; ++i) {
      EXPECT_EQ(replies[i], "echo:msg-" + std::to_string(i));
    }
  }
  transport.stop();
}

TEST(TcpTransport, LargeFramesSurvivePartialWrites) {
  PA_NET_REQUIRE_TCP();
  TcpTransport transport;
  EchoServer server;
  const std::string endpoint =
      transport.listen("127.0.0.1:0", server.acceptor());

  std::atomic<int> ok{0};
  std::string big(512 * 1024, '\0');
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<char>(i * 31);
  }
  ConnectionHandlers h;
  h.on_message = [&](const std::string& payload) {
    if (payload == "echo:" + big) ok.fetch_add(1);
  };
  ConnectionPtr client = transport.connect(endpoint, h);
  // 512 KiB greatly exceeds socket buffers: exercises partial ::send and
  // fragmented ::recv reassembly on both directions.
  ASSERT_TRUE(client->send(framed(big)));
  ASSERT_TRUE(eventually([&] { return ok.load() == 1; }, 30.0));
  transport.stop();
}

TEST(TcpTransport, ConnectRefusedThrows) {
  PA_NET_REQUIRE_TCP();
  TcpTransport transport;
  ConnectionHandlers h;
  h.on_message = [](const std::string&) {};
  // Grab a fresh port via a second transport, then stop it so nothing
  // listens there anymore.
  std::string endpoint;
  {
    TcpTransport probe;
    EchoServer server;
    endpoint = probe.listen("127.0.0.1:0", server.acceptor());
    probe.stop();
  }
  EXPECT_THROW(transport.connect(endpoint, h), pa::Error);
  transport.stop();
}

TEST(TcpTransport, MalformedEndpointThrows) {
  PA_NET_REQUIRE_TCP();
  TcpTransport transport;
  EchoServer server;
  EXPECT_THROW(transport.listen("not-an-endpoint", server.acceptor()),
               pa::Error);
  EXPECT_THROW(transport.listen("127.0.0.1:notaport", server.acceptor()),
               pa::Error);
  ConnectionHandlers h;
  h.on_message = [](const std::string&) {};
  EXPECT_THROW(transport.connect("127.0.0.1", h), pa::Error);
  transport.stop();
}

TEST(TcpTransport, ClientReconnectsAfterServerSideClose) {
  PA_NET_REQUIRE_TCP();
  TcpTransportConfig config;
  config.backoff_initial_seconds = 0.01;
  config.backoff_max_seconds = 0.05;
  TcpTransport transport(config);

  // Server drops the FIRST accepted connection immediately; later
  // connections echo normally.
  std::atomic<int> accepts{0};
  check::Mutex mu{check::LockRank::kLeaf, "test.drop_server"};
  std::vector<ConnectionPtr> to_drop;
  const std::string endpoint =
      transport.listen("127.0.0.1:0", [&](const ConnectionPtr& conn) {
        const int n = accepts.fetch_add(1);
        ConnectionHandlers h;
        if (n == 0) {
          // Handlers must not close their own connection: park it and let
          // the test thread close it.
          check::MutexLock lock(mu);
          to_drop.push_back(conn);
          h.on_message = [](const std::string&) {};
        } else {
          h.on_message = [conn](const std::string& payload) {
            conn->send(framed("echo:" + payload));
          };
        }
        return h;
      });

  std::atomic<int> reconnects{0};
  std::atomic<int> replies{0};
  ConnectionHandlers h;
  h.on_message = [&](const std::string&) { replies.fetch_add(1); };
  h.on_reconnect = [&]() { reconnects.fetch_add(1); };
  ConnectionPtr client = transport.connect(endpoint, h);

  ASSERT_TRUE(eventually([&] { return accepts.load() >= 1; }));
  {
    check::MutexLock lock(mu);
    ASSERT_EQ(to_drop.size(), 1u);
    to_drop[0]->close();
  }

  // The client must notice the drop, redial, and get a fresh accept.
  ASSERT_TRUE(eventually([&] { return reconnects.load() >= 1; }));
  ASSERT_TRUE(eventually([&] { return accepts.load() >= 2; }));
  EXPECT_TRUE(client->is_open());
  EXPECT_GE(client->stats().reconnects, 1u);

  // The re-established stream works end to end.
  ASSERT_TRUE(eventually([&] {
    client->send(framed("after-reconnect"));
    return replies.load() >= 1;
  }));
  transport.stop();
}

TEST(TcpTransport, BackpressureRejectsWhenQueueFull) {
  PA_NET_REQUIRE_TCP();
  TcpTransportConfig config;
  config.max_send_queue_bytes = 16 * 1024;
  TcpTransport transport(config);
  EchoServer server;
  const std::string endpoint =
      transport.listen("127.0.0.1:0", server.acceptor());

  ConnectionHandlers h;
  h.on_message = [](const std::string&) {};
  ConnectionPtr client = transport.connect(endpoint, h);

  // Flood far faster than the I/O thread can flush a 16 KiB budget.
  const std::string payload(8 * 1024, 'x');
  bool rejected = false;
  for (int i = 0; i < 1000 && !rejected; ++i) {
    rejected = !client->send(framed(payload));
  }
  EXPECT_TRUE(rejected);
  EXPECT_GE(client->stats().send_rejected, 1u);
  transport.stop();
}

// stop() must release every accepted connection, even one whose echo
// handler captures it and whose accept races the stop: run the flood
// above to its stop() many times (under ASan a survivor is also a leak).
TEST(TcpTransport, FloodThenStopReleasesEveryConnection) {
  PA_NET_REQUIRE_TCP();
  for (int round = 0; round < 25; ++round) {
    TcpTransportConfig config;
    config.max_send_queue_bytes = 16 * 1024;
    TcpTransport transport(config);
    EchoServer server;
    const std::string endpoint =
        transport.listen("127.0.0.1:0", server.acceptor());
    ConnectionHandlers h;
    h.on_message = [](const std::string&) {};
    ConnectionPtr client = transport.connect(endpoint, h);
    const std::string payload(8 * 1024, 'x');
    for (int i = 0; i < 1000 && client->send(framed(payload)); ++i) {
    }
    transport.stop();
    EXPECT_EQ(server.live_connections(), 0u) << "round " << round;
  }
}

// The race the loop above hits only sometimes, forced: the acceptor is
// still running when stop() marks the transport stopping.
TEST(TcpTransport, StopDuringAcceptReleasesTheConnection) {
  PA_NET_REQUIRE_TCP();
  TcpTransport transport;
  std::atomic<bool> in_acceptor{false};
  std::atomic<bool> stop_called{false};
  std::atomic<int> closes{0};
  std::weak_ptr<Connection> accepted;
  const std::string endpoint = transport.listen(
      "127.0.0.1:0", [&](const ConnectionPtr& conn) {
        accepted = conn;
        in_acceptor.store(true);
        eventually([&] { return stop_called.load(); });
        // Let stop() mark the transport stopping before this returns.
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        ConnectionHandlers h;
        h.on_message = [conn](const std::string& payload) {
          conn->send(framed("echo:" + payload));
        };
        h.on_close = [&closes] { closes.fetch_add(1); };
        return h;
      });
  ConnectionHandlers h;
  h.on_message = [](const std::string&) {};
  ConnectionPtr client = transport.connect(endpoint, h);
  ASSERT_TRUE(eventually([&] { return in_acceptor.load(); }));
  stop_called.store(true);
  transport.stop();
  EXPECT_TRUE(accepted.expired());
  EXPECT_EQ(closes.load(), 1);
}

TEST(TcpTransport, StopClosesConnections) {
  PA_NET_REQUIRE_TCP();
  TcpTransport transport;
  EchoServer server;
  const std::string endpoint =
      transport.listen("127.0.0.1:0", server.acceptor());

  std::atomic<int> closes{0};
  ConnectionHandlers h;
  h.on_message = [](const std::string&) {};
  h.on_close = [&]() { closes.fetch_add(1); };
  ConnectionPtr client = transport.connect(endpoint, h);
  EXPECT_TRUE(client->is_open());

  transport.stop();
  EXPECT_FALSE(client->is_open());
  EXPECT_EQ(closes.load(), 1);
  transport.stop();  // idempotent
}

}  // namespace
}  // namespace pa::net
