#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "net_test_util.h"
#include "pa/check/mutex.h"
#include "pa/common/error.h"
#include "pa/common/time_utils.h"
#include "pa/core/pilot_compute_service.h"
#include "pa/net/inproc_transport.h"
#include "pa/net/message.h"
#include "pa/net/tcp_transport.h"
#include "pa/rt/local_runtime.h"
#include "pa/rt/remote_runtime.h"

namespace pa::rt {
namespace {

using core::ComputeUnit;
using core::ComputeUnitDescription;
using core::Pilot;
using core::PilotComputeService;
using core::PilotDescription;
using core::PilotState;
using core::UnitState;

// Owns the in-process agents the launcher creates, so tests can poke
// individual agents (set_unresponsive) and control their lifetime.
class AgentFarm {
 public:
  explicit AgentFarm(net::Transport& transport) : transport_(transport) {}

  void create(const std::string& pilot_id, const std::string& endpoint,
              const std::shared_ptr<PayloadTable>& payloads,
              const AgentEndpointConfig& config = {}) {
    // Construct (which connects, taking transport locks) before taking
    // the kLeaf registry lock — ranks must strictly increase.
    auto agent = std::make_unique<AgentEndpoint>(transport_, endpoint,
                                                 pilot_id, payloads, config);
    check::MutexLock lock(mu_);
    agents_[pilot_id] = std::move(agent);
  }

  AgentEndpoint* agent(const std::string& pilot_id) {
    check::MutexLock lock(mu_);
    const auto it = agents_.find(pilot_id);
    return it == agents_.end() ? nullptr : it->second.get();
  }

  // Simulates a killed agent process: the endpoint (and its connection)
  // is destroyed outright.
  void kill(const std::string& pilot_id) {
    std::unique_ptr<AgentEndpoint> victim;
    {
      check::MutexLock lock(mu_);
      const auto it = agents_.find(pilot_id);
      if (it != agents_.end()) {
        victim = std::move(it->second);
        agents_.erase(it);
      }
    }
    // Destructor (close + local drain) runs outside the lock.
  }

  std::size_t size() {
    check::MutexLock lock(mu_);
    return agents_.size();
  }

 private:
  net::Transport& transport_;
  check::Mutex mu_{check::LockRank::kLeaf, "test.agent_farm"};
  std::map<std::string, std::unique_ptr<AgentEndpoint>> agents_
      PA_GUARDED_BY(mu_);
};

PilotDescription remote_pilot(int nodes, const std::string& site = "site-a") {
  PilotDescription d;
  d.resource_url = "remote://" + site;
  d.nodes = nodes;
  d.walltime = 1e9;
  return d;
}

// Runs `unit_count` units that each record their slot in `results`, on an
// already-constructed service; returns when everything completed.
void run_workload(PilotComputeService& service, int unit_count,
                  std::vector<int>& results) {
  results.assign(unit_count, -1);
  for (int i = 0; i < unit_count; ++i) {
    ComputeUnitDescription d;
    d.name = "unit-" + std::to_string(i);
    d.work = [&results, i]() { results[i] = i * i; };
    service.submit_unit(d);
  }
  service.wait_all_units(120.0);
}

// Builds the service + runtime + farm stack over `transport`. The
// launcher dereferences `runtime` lazily — it is only invoked from
// start_pilot, long after construction finishes.
struct RemoteStack {
  /// Agents dial through `agent_transport` when it is set (a tap over
  /// `transport`), else through `transport` itself.
  RemoteStack(net::Transport& transport, const std::string& listen_endpoint,
              double heartbeat_interval = 0.1, int miss_limit = 30,
              obs::MetricsRegistry* metrics = nullptr,
              net::BatchFlusherConfig manager_flusher = {},
              net::Transport* agent_transport = nullptr)
      : farm(agent_transport != nullptr ? *agent_transport : transport) {
    RemoteRuntimeConfig config;
    config.listen_endpoint = listen_endpoint;
    config.heartbeat_interval_seconds = heartbeat_interval;
    config.heartbeat_miss_limit = miss_limit;
    config.metrics = metrics;
    config.flusher = manager_flusher;
    config.launcher = [this](const std::string& pilot_id,
                             const std::string& endpoint) {
      farm.create(pilot_id, endpoint, runtime->payloads(), agent_config);
    };
    runtime = std::make_unique<RemoteRuntime>(transport, std::move(config));
    service = std::make_unique<PilotComputeService>(*runtime, "backfill");
  }

  /// Applied to agents the launcher creates from this point on; set it
  /// before submitting pilots (test hook for flusher and queue
  /// configurations).
  AgentEndpointConfig agent_config;
  AgentFarm farm;
  std::unique_ptr<RemoteRuntime> runtime;
  std::unique_ptr<PilotComputeService> service;
};

TEST(RemoteRuntime, TwoPilotsHundredUnitsMatchLocalOverInProc) {
  // Remote run.
  net::InProcTransport transport;
  RemoteStack stack(transport, "inproc://manager");
  Pilot p1 = stack.service->submit_pilot(remote_pilot(4, "site-a"));
  Pilot p2 = stack.service->submit_pilot(remote_pilot(4, "site-b"));
  p1.wait_active(10.0);
  p2.wait_active(10.0);
  EXPECT_EQ(stack.farm.size(), 2u);

  constexpr int kUnits = 120;
  std::vector<int> remote_results;
  run_workload(*stack.service, kUnits, remote_results);
  EXPECT_EQ(stack.service->metrics().units_done,
            static_cast<std::uint64_t>(kUnits));

  // Identical workload on a LocalRuntime-backed service.
  LocalRuntime local;
  PilotComputeService local_service(local, "backfill");
  PilotDescription d1;
  d1.resource_url = "local://site-a";
  d1.nodes = 4;
  d1.walltime = 1e9;
  local_service.submit_pilot(d1);
  PilotDescription d2 = d1;
  d2.resource_url = "local://site-b";
  local_service.submit_pilot(d2);
  std::vector<int> local_results;
  run_workload(local_service, kUnits, local_results);

  EXPECT_EQ(remote_results, local_results);
  transport.stop();
}

TEST(RemoteRuntime, TwoPilotsHundredUnitsMatchLocalOverTcp) {
  PA_NET_REQUIRE_TCP();
  net::TcpTransport transport;
  RemoteStack stack(transport, "127.0.0.1:0");
  Pilot p1 = stack.service->submit_pilot(remote_pilot(4, "site-a"));
  Pilot p2 = stack.service->submit_pilot(remote_pilot(4, "site-b"));
  p1.wait_active(10.0);
  p2.wait_active(10.0);

  constexpr int kUnits = 120;
  std::vector<int> remote_results;
  run_workload(*stack.service, kUnits, remote_results);
  EXPECT_EQ(stack.service->metrics().units_done,
            static_cast<std::uint64_t>(kUnits));

  LocalRuntime local;
  PilotComputeService local_service(local, "backfill");
  PilotDescription d;
  d.resource_url = "local://site-a";
  d.nodes = 4;
  d.walltime = 1e9;
  local_service.submit_pilot(d);
  PilotDescription d2 = d;
  d2.resource_url = "local://site-b";
  local_service.submit_pilot(d2);
  std::vector<int> local_results;
  run_workload(local_service, kUnits, local_results);

  EXPECT_EQ(remote_results, local_results);

  // The agent side saw real wire traffic.
  AgentEndpoint* agent = stack.farm.agent(p1.id());
  ASSERT_NE(agent, nullptr);
  net::ConnectionStats stats = agent->stats();
  EXPECT_GT(stats.bytes_in, 0u);
  EXPECT_GT(stats.bytes_out, 0u);
  transport.stop();
}

TEST(RemoteRuntime, NonRemoteUrlRejected) {
  net::InProcTransport transport;
  RemoteStack stack(transport, "inproc://manager");
  PilotDescription d;
  d.resource_url = "local://host";
  d.nodes = 1;
  d.walltime = 10.0;
  EXPECT_THROW(stack.service->submit_pilot(d), pa::InvalidArgument);
  transport.stop();
}

TEST(RemoteRuntime, CancelPilotTerminatesSynchronously) {
  net::InProcTransport transport;
  RemoteStack stack(transport, "inproc://manager");
  Pilot pilot = stack.service->submit_pilot(remote_pilot(2));
  pilot.wait_active(10.0);
  pilot.cancel();
  EXPECT_EQ(pilot.state(), PilotState::kCanceled);
  transport.stop();
}

// Acceptance: a hung agent (heartbeats swallowed, no unit completions)
// is declared dead within the heartbeat deadline; its pilot fails and
// in-flight units are requeued onto a healthy pilot.
TEST(RemoteRuntime, HungAgentFailsPilotAndRequeuesUnits) {
  net::InProcTransport transport;
  // 20 ms heartbeats, dead after 3 misses = 60 ms deadline.
  RemoteStack stack(transport, "inproc://manager",
                    /*heartbeat_interval=*/0.02, /*miss_limit=*/3);

  Pilot p1 = stack.service->submit_pilot(remote_pilot(1, "site-a"));
  p1.wait_active(10.0);

  std::atomic<bool> release{false};
  std::atomic<int> executed{0};
  std::vector<ComputeUnit> units;
  for (int i = 0; i < 5; ++i) {
    ComputeUnitDescription d;
    d.name = "unit-" + std::to_string(i);
    d.work = [&release, &executed]() {
      executed.fetch_add(1);
      while (!release.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    };
    units.push_back(stack.service->submit_unit(d));
  }
  // Wait until the 1-core pilot is actually executing something.
  const double hang_start = pa::wall_seconds();
  while (executed.load() == 0 && pa::wall_seconds() - hang_start < 10.0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GE(executed.load(), 1);

  // Hang the agent: no more heartbeat acks, no completions.
  AgentEndpoint* agent = stack.farm.agent(p1.id());
  ASSERT_NE(agent, nullptr);
  const double dead_start = pa::wall_seconds();
  agent->set_unresponsive(true);

  // The manager must declare the pilot dead within the deadline (plus
  // scheduling slack).
  while (p1.state() != PilotState::kFailed &&
         pa::wall_seconds() - dead_start < 10.0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_EQ(p1.state(), PilotState::kFailed);
  EXPECT_LT(pa::wall_seconds() - dead_start, 2.0)
      << "death detection took far longer than the 60 ms deadline";

  // Recovery: a healthy pilot picks up the requeued units.
  release.store(true);
  Pilot p2 = stack.service->submit_pilot(remote_pilot(2, "site-b"));
  p2.wait_active(10.0);
  stack.service->wait_all_units(120.0);
  for (auto& u : units) {
    EXPECT_EQ(u.state(), UnitState::kDone);
  }
  // The stuck unit ran on the dead pilot and again on the new one.
  EXPECT_GE(executed.load(), 5);
  transport.stop();
}

// Acceptance (TCP flavor): killing the agent process outright — socket
// torn down, no clean goodbye — is detected by missed heartbeats.
TEST(RemoteRuntime, KilledAgentConnectionDetectedOverTcp) {
  PA_NET_REQUIRE_TCP();
  net::TcpTransport transport;
  RemoteStack stack(transport, "127.0.0.1:0",
                    /*heartbeat_interval=*/0.02, /*miss_limit=*/3);

  Pilot p1 = stack.service->submit_pilot(remote_pilot(2, "site-a"));
  p1.wait_active(10.0);

  std::atomic<int> executed{0};
  std::vector<ComputeUnit> units;
  for (int i = 0; i < 8; ++i) {
    ComputeUnitDescription d;
    d.work = [&executed]() {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      executed.fetch_add(1);
    };
    units.push_back(stack.service->submit_unit(d));
  }

  // Kill the agent outright (connection closes, process "gone").
  stack.farm.kill(p1.id());
  const double dead_start = pa::wall_seconds();
  while (p1.state() != PilotState::kFailed &&
         pa::wall_seconds() - dead_start < 10.0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_EQ(p1.state(), PilotState::kFailed);

  // A replacement pilot finishes whatever had not completed.
  Pilot p2 = stack.service->submit_pilot(remote_pilot(2, "site-b"));
  p2.wait_active(10.0);
  stack.service->wait_all_units(120.0);
  for (auto& u : units) {
    EXPECT_EQ(u.state(), UnitState::kDone);
  }
  transport.stop();
}

TEST(RemoteRuntime, HeartbeatMetricsRecorded) {
  obs::MetricsRegistry registry;
  net::InProcTransport transport;
  RemoteStack stack(transport, "inproc://manager",
                    /*heartbeat_interval=*/0.02, /*miss_limit=*/30,
                    &registry);

  Pilot pilot = stack.service->submit_pilot(remote_pilot(2));
  pilot.wait_active(10.0);
  ComputeUnitDescription d;
  d.work = []() {};
  stack.service->submit_unit(d);
  stack.service->wait_all_units(60.0);

  // Let a few heartbeat round-trips land.
  const double start = pa::wall_seconds();
  bool have_rtt = false;
  while (!have_rtt && pa::wall_seconds() - start < 10.0) {
    for (const auto& [name, hist] : registry.histograms()) {
      if (name == "net.heartbeat_rtt_seconds" && hist.count() > 0) {
        have_rtt = true;
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(have_rtt) << "no heartbeat RTT samples recorded";

  std::uint64_t units_done = 0;
  for (const auto& [name, value] : registry.counters()) {
    if (name == "net.units_done") units_done = value;
  }
  EXPECT_EQ(units_done, 1u);
  transport.stop();
}

// Satellite regression: the agent send path must buffer-and-retry under
// backpressure, never silently drop (the old `(void)conn_->send(...)`).
// A deliberately undersized send queue forces the transport to reject the
// agent's merged completion frames; every completion must still arrive,
// exactly once, while the frames shrink until they fit.
TEST(RemoteRuntime, BackpressuredAgentSendPathLosesNoCompletions) {
  net::InProcTransportConfig tc;
  tc.max_queue_bytes = 256;  // a merged completion batch cannot fit
  net::InProcTransport transport(tc);

  struct MiniManager {
    check::Mutex mu{check::LockRank::kLeaf, "test.mini_manager"};
    net::ConnectionPtr conn PA_GUARDED_BY(mu);
    std::vector<std::string> completions PA_GUARDED_BY(mu);
    bool active PA_GUARDED_BY(mu) = false;
  } manager;

  transport.listen(
      "inproc://mini-manager", [&manager](const net::ConnectionPtr& conn) {
        {
          check::MutexLock lock(manager.mu);
          manager.conn = conn;
        }
        net::ConnectionHandlers h;
        h.on_message = [&manager, conn](const std::string& payload) {
          const net::Message m =
              net::decode_message(payload.data(), payload.size());
          switch (m.type) {
            case net::MessageType::kHello: {
              core::PilotDescription d;
              d.resource_url = "remote://mini";
              d.nodes = 1;
              d.walltime = 1e9;
              std::string frame;
              net::append_message_frame(frame,
                                        net::make_start_pilot(m.pilot_id, d));
              EXPECT_TRUE(conn->send(std::move(frame)));
              break;
            }
            case net::MessageType::kPilotActive: {
              check::MutexLock lock(manager.mu);
              manager.active = true;
              break;
            }
            case net::MessageType::kUnitDoneBatch: {
              check::MutexLock lock(manager.mu);
              for (const net::WireUnitDone& d : m.completions) {
                manager.completions.push_back(d.unit_id);
              }
              break;
            }
            default:
              break;
          }
        };
        return h;
      });

  auto payloads = std::make_shared<PayloadTable>();
  AgentEndpointConfig config;
  config.queue_factor = 64;
  // Non-eager with a small delay: completions pile up, so the first flush
  // merges far more than the send queue can hold — a guaranteed reject.
  config.flusher.eager = false;
  config.flusher.max_delay_seconds = 0.005;
  AgentEndpoint agent(transport, "inproc://mini-manager", "pilot-bp",
                      payloads, config);

  const double start = pa::wall_seconds();
  auto wait_for = [&start](const std::function<bool()>& done) {
    while (!done() && pa::wall_seconds() - start < 20.0) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  };
  wait_for([&manager] {
    check::MutexLock lock(manager.mu);
    return manager.active;
  });
  {
    check::MutexLock lock(manager.mu);
    ASSERT_TRUE(manager.active);
  }

  // Feed 50 no-op units in small kUnitBatch frames (the undersized queue
  // throttles the manager→agent direction too; retry until accepted).
  constexpr int kUnits = 50;
  net::ConnectionPtr to_agent;
  {
    check::MutexLock lock(manager.mu);
    to_agent = manager.conn;
  }
  ASSERT_NE(to_agent, nullptr);
  for (int i = 0; i < kUnits; i += 2) {
    net::Message batch;
    batch.type = net::MessageType::kUnitBatch;
    batch.pilot_id = "pilot-bp";
    for (int j = i; j < std::min(i + 2, kUnits); ++j) {
      net::WireUnitDescription u;
      u.unit_id = "unit-" + std::to_string(j);
      u.duration = 0.0;  // genuinely no-op: the wire default is 1s of burn
      batch.units.push_back(std::move(u));
    }
    std::string frame;
    net::append_message_frame(frame, batch);
    while (!to_agent->send(frame) && pa::wall_seconds() - start < 20.0) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }

  wait_for([&manager] {
    check::MutexLock lock(manager.mu);
    return manager.completions.size() >= kUnits;
  });
  std::vector<std::string> got;
  {
    check::MutexLock lock(manager.mu);
    got = manager.completions;
  }
  EXPECT_EQ(got.size(), static_cast<std::size_t>(kUnits));
  std::set<std::string> unique(got.begin(), got.end());
  EXPECT_EQ(unique.size(), static_cast<std::size_t>(kUnits))
      << "duplicate completions delivered";
  // The fix is only proven if backpressure actually hit the agent path.
  EXPECT_GT(agent.stats().send_rejected, 0u);
  transport.stop();
}

// Full-stack flavor: an undersized queue between manager and agents must
// cost only retries, never units. Exercises both directions (kUnitBatch
// dispatch and kUnitDoneBatch completion) under adaptive frame shrinking.
TEST(RemoteRuntime, UndersizedSendQueueLosesNoUnits) {
  obs::MetricsRegistry registry;
  net::InProcTransportConfig tc;
  tc.max_queue_bytes = 768;
  net::InProcTransport transport(tc);
  // Non-eager manager flusher: dispatches accumulate, so early batches
  // exceed the queue bound and must shrink-and-retry.
  net::BatchFlusherConfig manager_flusher;
  manager_flusher.eager = false;
  manager_flusher.max_delay_seconds = 0.002;
  RemoteStack stack(transport, "inproc://manager",
                    /*heartbeat_interval=*/0.1, /*miss_limit=*/30, &registry,
                    manager_flusher);
  stack.agent_config.metrics = &registry;
  // Non-eager agent outbox that flushes by size: the pilot holds at most
  // 4 cores × queue_factor 16 = 64 units, so completions pile up until a
  // full 64 are pending and merge into a ~1.3 KB kUnitDoneBatch frame.
  // That frame cannot fit the 768-byte queue however the suite is
  // scheduled (a short time trigger lets slow builds flush small frames).
  // The final partial round waits out the 1 s time trigger.
  stack.agent_config.flusher.eager = false;
  stack.agent_config.flusher.max_batch = 64;
  stack.agent_config.flusher.max_delay_seconds = 1.0;

  Pilot pilot = stack.service->submit_pilot(remote_pilot(4, "site-a"));
  pilot.wait_active(10.0);

  constexpr int kUnits = 150;
  std::vector<int> results;
  run_workload(*stack.service, kUnits, results);
  for (int i = 0; i < kUnits; ++i) {
    EXPECT_EQ(results[i], i * i) << "unit " << i;
  }
  EXPECT_EQ(stack.service->metrics().units_done,
            static_cast<std::size_t>(kUnits));

  std::uint64_t rejected = 0;
  for (const auto& [name, value] : registry.counters()) {
    if (name == "net.send_rejected" || name == "net.agent_send_rejected") {
      rejected += value;
    }
  }
  EXPECT_GT(rejected, 0u) << "queue bound never hit: test exercised nothing";
  transport.stop();
}

// Satellite regression: completions sitting in the agent's outbox when the
// agent dies must ship in the final exchange (dtor flush) — and units whose
// completions did ship must NOT re-execute on the replacement pilot.
TEST(RemoteRuntime, KilledAgentFlushesBufferedCompletionsExactlyOnce) {
  net::InProcTransport transport;
  RemoteStack stack(transport, "inproc://manager",
                    /*heartbeat_interval=*/0.02, /*miss_limit=*/3);
  // Agent outbox that never flushes on its own: completions stay buffered
  // until the endpoint is destroyed, maximizing what is "in flight" at
  // kill time.
  stack.agent_config.flusher.eager = false;
  stack.agent_config.flusher.max_delay_seconds = 3600.0;
  stack.agent_config.flusher.max_batch = 1 << 20;
  // Pilot depth 2 cores × queue_factor 4 = 8 in-flight units.
  stack.agent_config.queue_factor = 4;

  Pilot p1 = stack.service->submit_pilot(remote_pilot(2, "site-a"));
  p1.wait_active(10.0);

  std::atomic<int> executions{0};
  constexpr int kUnits = 24;
  std::vector<ComputeUnit> units;
  for (int i = 0; i < kUnits; ++i) {
    ComputeUnitDescription d;
    d.name = "unit-" + std::to_string(i);
    d.work = [&executions]() { executions.fetch_add(1); };
    units.push_back(stack.service->submit_unit(d));
  }
  // With completions never shipping, the service's 8 slots on the pilot
  // stay taken after 8 units; the agent executes exactly those 8 and
  // buffers their completions.
  const double start = pa::wall_seconds();
  while (executions.load() < 8 && pa::wall_seconds() - start < 10.0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(executions.load(), 8);
  // Let the last on_done land in the outbox before the kill.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  // Kill: ~AgentEndpoint flushes the outbox as its final exchange, THEN
  // drops the connection. The 8 buffered completions must arrive.
  stack.farm.kill(p1.id());

  // The dead pilot fails via heartbeat deadline; a replacement picks up
  // only the 16 units whose completions never shipped. The replacement
  // gets a normal flusher — the buffered-outbox config was only there to
  // maximize what the kill left in flight.
  stack.agent_config = AgentEndpointConfig{};
  Pilot p2 = stack.service->submit_pilot(remote_pilot(2, "site-b"));
  p2.wait_active(10.0);
  stack.service->wait_all_units(120.0);
  for (auto& u : units) {
    EXPECT_EQ(u.state(), UnitState::kDone);
  }
  EXPECT_EQ(stack.service->metrics().units_done,
            static_cast<std::size_t>(kUnits));
  // Exactly-once: 8 executions on the dead pilot + 16 on the replacement.
  // A dropped final flush would re-execute the buffered 8 (executions 32).
  EXPECT_EQ(executions.load(), kUnits);
  transport.stop();
}

// Regression: the agent's queue capacity (queue_factor × cores) is the
// pilot's only dispatch depth. While no completion reaches the manager,
// the service keeps exactly that many units in flight on the pilot: the
// agent holds queue_factor × cores units (queued + running), never more,
// and the rest wait PENDING in the service. Releasing the outbox (the
// kill's final flush) then finishes every unit exactly once.
TEST(RemoteRuntime, AgentNeverHoldsMoreThanItsQueueCapacity) {
  net::InProcTransport transport;
  RemoteStack stack(transport, "inproc://manager",
                    /*heartbeat_interval=*/0.02, /*miss_limit=*/3);
  constexpr int kCores = 2;
  constexpr int kQueueFactor = 16;
  constexpr std::size_t kCapacity = kCores * kQueueFactor;
  constexpr int kUnits = 3 * static_cast<int>(kCapacity);
  stack.agent_config.queue_factor = kQueueFactor;
  // Agent outbox that never flushes on its own: completions stay buffered
  // until the endpoint is destroyed.
  stack.agent_config.flusher.eager = false;
  stack.agent_config.flusher.max_delay_seconds = 3600.0;
  stack.agent_config.flusher.max_batch = 1 << 20;

  Pilot p1 = stack.service->submit_pilot(remote_pilot(kCores, "site-a"));
  p1.wait_active(10.0);
  AgentEndpoint* agent = stack.farm.agent(p1.id());
  ASSERT_NE(agent, nullptr);

  // Units block until `release`. The guard opens the gate on every exit,
  // so a failed assertion cannot leave agent workers blocked in teardown.
  std::atomic<bool> release{false};
  struct OpenGate {
    std::atomic<bool>& gate;
    ~OpenGate() { gate.store(true); }
  } open_gate{release};
  std::atomic<int> executions{0};
  std::vector<ComputeUnit> units;
  for (int i = 0; i < kUnits; ++i) {
    ComputeUnitDescription d;
    d.name = "unit-" + std::to_string(i);
    d.work = [&release, &executions]() {
      executions.fetch_add(1);
      while (!release.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    };
    units.push_back(stack.service->submit_unit(d));
  }

  std::size_t peak = 0;
  auto held = [agent, &peak] {
    const AgentEndpoint::SchedulerStats s = agent->scheduler_stats();
    peak = std::max(peak, s.queued + s.outstanding);
    return s.queued + s.outstanding;
  };
  auto sample_for = [&held](double seconds) {
    const double start = pa::wall_seconds();
    while (pa::wall_seconds() - start < seconds) {
      (void)held();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };
  const double start = pa::wall_seconds();
  while (held() < kCapacity && pa::wall_seconds() - start < 10.0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  sample_for(0.2);  // nothing beyond the capacity may follow
  // EXPECT, not ASSERT: returning early would tear the stack down with
  // units in flight and no transport stop, which can hang.
  EXPECT_EQ(held(), kCapacity)
      << "the agent must hold exactly queue_factor × cores units";
  EXPECT_EQ(peak, kCapacity);
  int pending = 0;
  for (const ComputeUnit& u : units) {
    pending += u.state() == UnitState::kPending ? 1 : 0;
  }
  EXPECT_EQ(pending, kUnits - static_cast<int>(kCapacity));

  // Open the gate: the held units run and their completions sit in the
  // outbox, so the service's slots stay taken and no unit follows even
  // though the agent's queue is now empty.
  release.store(true);
  while (executions.load() < static_cast<int>(kCapacity) &&
         pa::wall_seconds() - start < 20.0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  sample_for(0.1);
  EXPECT_EQ(executions.load(), static_cast<int>(kCapacity));
  EXPECT_EQ(peak, kCapacity);

  // Kill: the final flush ships the buffered completions; the dead pilot
  // fails by heartbeat deadline and a replacement with a normal outbox
  // runs the rest.
  stack.farm.kill(p1.id());
  stack.agent_config = AgentEndpointConfig{};
  Pilot p2 = stack.service->submit_pilot(remote_pilot(kCores, "site-b"));
  p2.wait_active(10.0);
  stack.service->wait_all_units(120.0);
  for (const ComputeUnit& u : units) {
    EXPECT_EQ(u.state(), UnitState::kDone);
  }
  EXPECT_EQ(stack.service->metrics().units_done,
            static_cast<std::size_t>(kUnits));
  EXPECT_EQ(executions.load(), kUnits) << "a unit ran twice";
  transport.stop();
}

// A remote pilot reports its cores next to its queue capacity: the
// service fits each unit by the cores and the agent's runtime reserves
// them, so two-core units on a two-core pilot run one at a time although
// the agent takes 32 units.
TEST(RemoteRuntime, MultiCoreUnitsReserveAgentCores) {
  net::InProcTransport transport;
  RemoteStack stack(transport, "inproc://manager");
  Pilot pilot = stack.service->submit_pilot(remote_pilot(2));
  pilot.wait_active(10.0);
  std::atomic<int> concurrent{0};
  std::atomic<int> max_concurrent{0};
  std::vector<ComputeUnitDescription> descs(6);
  for (auto& d : descs) {
    d.cores = 2;
    d.work = [&]() {
      const int now = concurrent.fetch_add(1) + 1;
      int prev = max_concurrent.load();
      while (prev < now && !max_concurrent.compare_exchange_weak(prev, now)) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      concurrent.fetch_sub(1);
    };
  }
  const std::vector<ComputeUnit> units = stack.service->submit_units(descs);
  stack.service->wait_all_units(60.0);
  for (const ComputeUnit& u : units) {
    EXPECT_EQ(u.state(), UnitState::kDone) << u.id();
  }
  EXPECT_EQ(max_concurrent.load(), 1);
  transport.stop();
}

// A unit bigger than the pilot's cores never binds, whatever the agent's
// queue capacity.
TEST(RemoteRuntime, UnitLargerThanPilotCoresStaysPending) {
  net::InProcTransport transport;
  RemoteStack stack(transport, "inproc://manager");
  Pilot pilot = stack.service->submit_pilot(remote_pilot(2));
  pilot.wait_active(10.0);
  std::atomic<bool> ran{false};
  ComputeUnitDescription big;
  big.cores = 3;
  big.work = [&ran]() { ran.store(true); };
  ComputeUnit unit = stack.service->submit_unit(big);
  ComputeUnitDescription small;
  small.work = []() {};
  // A later unit that fits runs: the pass did look at the queue.
  EXPECT_EQ(stack.service->submit_unit(small).wait(30.0), UnitState::kDone);
  EXPECT_EQ(unit.state(), UnitState::kPending);
  EXPECT_FALSE(ran.load());
  transport.stop();
}

// ---------------------------------------------------------------------------
// Batch dispatch: a schedule pass reaches each pilot's agent as one
// kUnitBatch message, split across frames only by units.
// ---------------------------------------------------------------------------

// Agent-side transport tap: records the unit ids of every kUnitBatch
// frame an agent receives, then delivers the frame unchanged.
class UnitBatchTap final : public net::Transport {
 public:
  explicit UnitBatchTap(net::Transport& inner) : inner_(inner) {}

  std::string listen(const std::string& endpoint,
                     net::AcceptHandler on_accept) override {
    return inner_.listen(endpoint, std::move(on_accept));
  }
  net::ConnectionPtr connect(const std::string& endpoint,
                             net::ConnectionHandlers handlers) override {
    handlers.on_message = [this, deliver = std::move(handlers.on_message)](
                              const std::string& payload) {
      const net::Message m =
          net::decode_message(payload.data(), payload.size());
      if (m.type == net::MessageType::kUnitBatch) {
        std::vector<std::string> ids;
        for (const net::WireUnitDescription& u : m.units) {
          ids.push_back(u.unit_id);
        }
        check::MutexLock lock(mu_);
        frames_.push_back(std::move(ids));
      }
      deliver(payload);
    };
    return inner_.connect(endpoint, std::move(handlers));
  }
  void stop() override { inner_.stop(); }

  /// Unit ids per received kUnitBatch frame, in arrival order.
  std::vector<std::vector<std::string>> frames() {
    check::MutexLock lock(mu_);
    return frames_;
  }

 private:
  net::Transport& inner_;
  check::Mutex mu_{check::LockRank::kLeaf, "test.unit_batch_tap"};
  std::vector<std::vector<std::string>> frames_ PA_GUARDED_BY(mu_);
};

// The agent's `queued` counts the units waiting in its runtime's ready
// FIFO for a core, not the units beyond the cores: 2-core units on a
// 2-core pilot run one at a time, so one runs and all others wait.
TEST(RemoteRuntime, QueuedCountsOnlyUnitsWaitingForACore) {
  net::InProcTransport transport;
  RemoteStack stack(transport, "inproc://manager");
  Pilot pilot = stack.service->submit_pilot(remote_pilot(2));
  pilot.wait_active(10.0);
  AgentEndpoint* agent = stack.farm.agent(pilot.id());
  ASSERT_NE(agent, nullptr);

  std::atomic<bool> release{false};
  struct OpenGate {
    std::atomic<bool>& gate;
    ~OpenGate() { gate.store(true); }
  } open_gate{release};
  constexpr std::size_t kUnits = 6;
  std::vector<ComputeUnitDescription> descs(kUnits);
  for (auto& d : descs) {
    d.cores = 2;
    d.work = [&release]() {
      while (!release.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    };
  }
  const std::vector<ComputeUnit> units = stack.service->submit_units(descs);
  AgentEndpoint::SchedulerStats s = agent->scheduler_stats();
  const double start = pa::wall_seconds();
  while ((s.queued + s.outstanding < kUnits || s.outstanding == 0) &&
         pa::wall_seconds() - start < 10.0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    s = agent->scheduler_stats();
  }
  EXPECT_EQ(s.queued + s.outstanding, kUnits);
  EXPECT_EQ(s.outstanding, 1u);
  EXPECT_EQ(s.queued, kUnits - 1);
  EXPECT_EQ(s.slots, 2);

  release.store(true);
  stack.service->wait_all_units(60.0);
  for (const ComputeUnit& u : units) {
    EXPECT_EQ(u.state(), UnitState::kDone) << u.id();
  }
  transport.stop();
}

// Submits one burst of runs.size() units to a 1-core remote pilot whose
// agent is `agent`: unit 0 blocks until `release`, and every unit counts
// its executions in `runs`. Returns once unit 0 runs and the others wait
// in the agent for the core.
std::vector<ComputeUnit> submit_behind_gate(PilotComputeService& service,
                                            AgentEndpoint& agent,
                                            std::vector<std::atomic<int>>& runs,
                                            std::atomic<bool>& release) {
  std::vector<ComputeUnitDescription> descs(runs.size());
  for (std::size_t i = 0; i < descs.size(); ++i) {
    descs[i].work = [&runs, &release, i]() {
      runs[i].fetch_add(1);
      while (i == 0 && !release.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    };
  }
  std::vector<ComputeUnit> units = service.submit_units(descs);
  const double start = pa::wall_seconds();
  while ((runs[0].load() == 0 ||
          agent.scheduler_stats().queued < runs.size() - 1) &&
         pa::wall_seconds() - start < 10.0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return units;
}

// Cancelling a remote pilot drops the units waiting in its agent for a
// core: of one frame of four units on a 1-core pilot, the first blocks
// while the pilot is cancelled, and the three behind it run only on the
// second pilot. The blocked unit ran on the cancelled pilot and, its
// completion lost with the pilot, runs once more on the second.
TEST(RemoteRuntime, ShutdownDropsUnitsWaitingForACore) {
  net::InProcTransport transport;
  UnitBatchTap tap(transport);
  RemoteStack stack(transport, "inproc://manager", 0.1, 30, nullptr, {},
                    &tap);
  Pilot p1 = stack.service->submit_pilot(remote_pilot(1, "site-a"));
  p1.wait_active(10.0);
  AgentEndpoint* agent = stack.farm.agent(p1.id());
  ASSERT_NE(agent, nullptr);

  std::atomic<bool> release{false};
  struct OpenGate {
    std::atomic<bool>& gate;
    ~OpenGate() { gate.store(true); }
  } open_gate{release};
  constexpr int kUnits = 4;
  std::vector<std::atomic<int>> runs(kUnits);
  const std::vector<ComputeUnit> units =
      submit_behind_gate(*stack.service, *agent, runs, release);
  ASSERT_EQ(tap.frames().size(), 1u);
  EXPECT_EQ(tap.frames()[0].size(), static_cast<std::size_t>(kUnits));
  EXPECT_EQ(agent->scheduler_stats().queued, 3u);

  Pilot p2 = stack.service->submit_pilot(remote_pilot(2, "site-b"));
  p2.wait_active(10.0);
  p1.cancel();
  // Open the gate only once the agent has taken the kShutdown: a unit
  // its worker started before then would have run legitimately.
  const double start = pa::wall_seconds();
  while (agent->scheduler_stats().queued != 0 &&
         pa::wall_seconds() - start < 10.0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(agent->scheduler_stats().queued, 0u);
  release.store(true);

  stack.service->wait_all_units(60.0);
  for (const ComputeUnit& u : units) {
    EXPECT_EQ(u.state(), UnitState::kDone) << u.id();
  }
  EXPECT_EQ(stack.service->metrics().units_done,
            static_cast<std::size_t>(kUnits));
  EXPECT_EQ(runs[0].load(), 2) << "the blocked unit runs again on p2";
  for (int i = 1; i < kUnits; ++i) {
    EXPECT_EQ(runs[static_cast<std::size_t>(i)].load(), 1)
        << "waiting unit " << i << " ran on the cancelled pilot";
  }
  transport.stop();
}

// Agent-side transport tap that runs `hook` when the agent closes its
// manager connection: inside ~AgentEndpoint, after the final flush and
// before the embedded runtime is destroyed.
class CloseHookTap final : public net::Transport {
 public:
  explicit CloseHookTap(net::Transport& inner) : inner_(inner) {}

  std::function<void()> hook;

  std::string listen(const std::string& endpoint,
                     net::AcceptHandler on_accept) override {
    return inner_.listen(endpoint, std::move(on_accept));
  }
  net::ConnectionPtr connect(const std::string& endpoint,
                             net::ConnectionHandlers handlers) override {
    handlers.on_close = [this] {
      if (hook) {
        hook();
      }
    };
    return inner_.connect(endpoint, std::move(handlers));
  }
  void stop() override { inner_.stop(); }

 private:
  net::Transport& inner_;
};

// Destroying an agent starts none of the units waiting for a core. The
// 1-core pilot's first unit blocks on a gate with three units behind it
// in the runtime's ready FIFO; the gate opens while ~AgentEndpoint runs,
// and the teardown holds 50 ms so a worker that could start the next
// unit would. Only the blocked unit ran there; the heartbeat requeue
// then finishes every unit exactly once on a second pilot.
TEST(RemoteRuntime, AgentTeardownStartsNoWaitingUnit) {
  net::InProcTransport transport;
  CloseHookTap tap(transport);
  RemoteStack stack(transport, "inproc://manager",
                    /*heartbeat_interval=*/0.02, /*miss_limit=*/3, nullptr,
                    {}, &tap);
  Pilot p1 = stack.service->submit_pilot(remote_pilot(1, "site-a"));
  p1.wait_active(10.0);
  AgentEndpoint* agent = stack.farm.agent(p1.id());
  ASSERT_NE(agent, nullptr);

  std::atomic<bool> release{false};
  struct OpenGate {
    std::atomic<bool>& gate;
    ~OpenGate() { gate.store(true); }
  } open_gate{release};
  constexpr int kUnits = 4;
  std::vector<std::atomic<int>> runs(kUnits);
  const std::vector<ComputeUnit> units =
      submit_behind_gate(*stack.service, *agent, runs, release);
  EXPECT_EQ(agent->scheduler_stats().queued, 3u);

  tap.hook = [&release] {
    release.store(true);
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  };
  stack.farm.kill(p1.id());  // returns once the agent's workers joined
  tap.hook = nullptr;
  EXPECT_EQ(runs[0].load(), 1);
  for (int i = 1; i < kUnits; ++i) {
    EXPECT_EQ(runs[static_cast<std::size_t>(i)].load(), 0)
        << "waiting unit " << i << " started during teardown";
  }

  Pilot p2 = stack.service->submit_pilot(remote_pilot(1, "site-b"));
  p2.wait_active(10.0);
  stack.service->wait_all_units(60.0);
  for (const ComputeUnit& u : units) {
    EXPECT_EQ(u.state(), UnitState::kDone) << u.id();
  }
  EXPECT_EQ(stack.service->metrics().units_done,
            static_cast<std::size_t>(kUnits));
  EXPECT_EQ(runs[0].load(), 2) << "its completion died with the agent";
  for (int i = 1; i < kUnits; ++i) {
    EXPECT_EQ(runs[static_cast<std::size_t>(i)].load(), 1) << "unit " << i;
  }
  transport.stop();
}

// Submits `n` units that count their executions in `runs` (one slot per
// unit, sized by the caller).
std::vector<ComputeUnit> submit_counted(PilotComputeService& service, int n,
                                        std::vector<std::atomic<int>>& runs,
                                        int first = 0) {
  std::vector<ComputeUnitDescription> descs(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    descs[static_cast<std::size_t>(i)].name =
        "unit-" + std::to_string(first + i);
    descs[static_cast<std::size_t>(i)].work = [&runs, slot = first + i]() {
      runs[static_cast<std::size_t>(slot)].fetch_add(1);
    };
  }
  return service.submit_units(descs);
}

// Units queued before the pilot exists are all bound by the one schedule
// pass that follows its activation (capacity 2 cores × 16 = 32 ≥ 24), so
// they must reach the agent as exactly one frame: one execute_units call,
// one kUnitBatch message, within the frame cap (flusher max_batch 32).
TEST(RemoteBatchDispatch, OnePassReachesTheAgentAsOneFrame) {
  net::InProcTransport transport;
  UnitBatchTap tap(transport);
  RemoteStack stack(transport, "inproc://manager", 0.1, 30, nullptr, {},
                    &tap);
  ASSERT_TRUE(stack.runtime->batches_launches());
  constexpr int kUnits = 24;
  std::vector<std::atomic<int>> runs(kUnits);
  const std::vector<ComputeUnit> units =
      submit_counted(*stack.service, kUnits, runs);
  stack.service->submit_pilot(remote_pilot(2)).wait_active(10.0);
  stack.service->wait_all_units(60.0);

  const auto frames = tap.frames();
  ASSERT_EQ(frames.size(), 1u) << "one pass must ship as one frame";
  std::vector<std::string> want;
  for (const ComputeUnit& u : units) {
    want.push_back(u.id());
    EXPECT_EQ(u.state(), UnitState::kDone);
  }
  std::vector<std::string> got = frames[0];
  std::sort(got.begin(), got.end());
  std::sort(want.begin(), want.end());
  EXPECT_EQ(got, want);
  for (int i = 0; i < kUnits; ++i) {
    EXPECT_EQ(runs[static_cast<std::size_t>(i)].load(), 1) << "unit " << i;
  }
  transport.stop();
}

// One pass of 32 units (~2 KB as a frame) against a 1 KB send queue: the
// frame is rejected, the per-pilot frame cap halves in units until a
// frame fits, and the pass reaches the agent split across frames with
// every unit exactly once. A cap counted in messages could never shrink
// the one message below its 32 units.
TEST(RemoteBatchDispatch, PassLargerThanTheSendQueueSplitsAcrossFrames) {
  obs::MetricsRegistry registry;
  net::InProcTransportConfig tc;
  tc.max_queue_bytes = 1024;
  net::InProcTransport transport(tc);
  UnitBatchTap tap(transport);
  RemoteStack stack(transport, "inproc://manager", 0.1, 30, &registry, {},
                    &tap);
  constexpr int kUnits = 32;
  std::vector<std::atomic<int>> runs(kUnits);
  const std::vector<ComputeUnit> units =
      submit_counted(*stack.service, kUnits, runs);
  stack.service->submit_pilot(remote_pilot(2)).wait_active(10.0);
  stack.service->wait_all_units(60.0);

  const auto frames = tap.frames();
  EXPECT_GT(frames.size(), 1u) << "the pass was never split";
  std::multiset<std::string> received;
  for (const auto& frame : frames) {
    received.insert(frame.begin(), frame.end());
  }
  EXPECT_EQ(received.size(), static_cast<std::size_t>(kUnits));
  for (const ComputeUnit& u : units) {
    EXPECT_EQ(received.count(u.id()), 1u) << u.id();
    EXPECT_EQ(u.state(), UnitState::kDone);
  }
  for (int i = 0; i < kUnits; ++i) {
    EXPECT_EQ(runs[static_cast<std::size_t>(i)].load(), 1) << "unit " << i;
  }
  std::uint64_t rejected = 0;
  for (const auto& [name, value] : registry.counters()) {
    if (name == "net.send_rejected") {
      rejected = value;
    }
  }
  EXPECT_GT(rejected, 0u) << "queue bound never hit: test exercised nothing";
  transport.stop();
}

// Runtime decorator for the vanished-pilot test. It holds every pilot's
// activation until release_actives(), and on the first batch the service
// hands it, cancels `victim` before forwarding: the pilot disappears
// between the pass's binds and its launches, as a heartbeat death can.
class VanishingPilotRuntime final : public core::Runtime {
 public:
  core::Runtime* inner = nullptr;
  std::string victim;

  void start_pilot(const std::string& pilot_id,
                   const core::PilotDescription& description,
                   core::PilotRuntimeCallbacks callbacks) override {
    callbacks.on_active = [this, on_active = std::move(callbacks.on_active)](
                              const std::string& id, core::PilotCapacity cap,
                              const std::string& site) {
      check::MutexLock lock(mu_);
      held_.push_back([on_active, id, cap, site] {
        on_active(id, cap, site);
      });
    };
    inner->start_pilot(pilot_id, description, std::move(callbacks));
  }
  void cancel_pilot(const std::string& pilot_id) override {
    inner->cancel_pilot(pilot_id);
  }
  void execute_unit(const std::string& pilot_id,
                    const ComputeUnitDescription& description,
                    const std::string& unit_id,
                    std::function<void(bool)> on_done) override {
    inner->execute_unit(pilot_id, description, unit_id, std::move(on_done));
  }
  void execute_units(const std::string& pilot_id,
                     std::vector<core::UnitLaunch> launches) override {
    {
      check::MutexLock lock(mu_);
      batches_.push_back(pilot_id);
    }
    if (!victim_canceled_.exchange(true)) {
      inner->cancel_pilot(victim);
    }
    inner->execute_units(pilot_id, std::move(launches));
  }
  bool batches_launches() const override { return inner->batches_launches(); }
  double now() const override { return inner->now(); }
  void drive_until(const std::function<bool()>& predicate,
                   double timeout_seconds) override {
    inner->drive_until(predicate, timeout_seconds);
  }

  std::size_t held() {
    check::MutexLock lock(mu_);
    return held_.size();
  }
  /// Runs the held activations back to back on the calling thread.
  void release_actives() {
    std::vector<std::function<void()>> held;
    {
      check::MutexLock lock(mu_);
      held.swap(held_);
    }
    for (auto& activate : held) {
      activate();
    }
  }
  /// Pilot of every execute_units call, in call order.
  std::vector<std::string> batches() {
    check::MutexLock lock(mu_);
    return batches_;
  }

 private:
  check::Mutex mu_{check::LockRank::kLeaf, "test.vanishing_pilot"};
  std::vector<std::function<void()>> held_ PA_GUARDED_BY(mu_);
  std::vector<std::string> batches_ PA_GUARDED_BY(mu_);
  std::atomic<bool> victim_canceled_{false};
};

// Both pilots go ACTIVE in one command batch while 40 units are queued,
// so one pass binds 16 units to each (1 core × 16). The victim vanishes
// before that pass's launches go out: its launches are dropped without a
// throw, the other pilot's still launch, and the victim's termination
// requeues its units — every unit ends DONE having run exactly once.
TEST(RemoteBatchDispatch, PilotCanceledMidPassLeavesOtherPilotsExactlyOnce) {
  net::InProcTransport transport;
  VanishingPilotRuntime runtime;  // outlives the stack's service
  RemoteStack stack(transport, "inproc://manager");
  runtime.inner = stack.runtime.get();
  stack.service = std::make_unique<PilotComputeService>(runtime, "backfill");
  PilotComputeService& service = *stack.service;

  // The gate holds the apply thread inside a unit observer while both
  // activations are posted, so they land in one command batch.
  std::atomic<bool> in_gate{false};
  std::atomic<bool> open{false};
  struct OpenGate {
    std::atomic<bool>& gate;
    ~OpenGate() { gate.store(true); }
  } open_gate{open};
  service.observe_units([&](const std::string&, UnitState, UnitState to) {
    if (to != UnitState::kCanceled) {
      return;
    }
    in_gate.store(true);
    while (!open.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  Pilot victim = service.submit_pilot(remote_pilot(1, "site-a"));
  Pilot survivor = service.submit_pilot(remote_pilot(1, "site-b"));
  runtime.victim = victim.id();
  const double start = pa::wall_seconds();
  while (runtime.held() < 2 && pa::wall_seconds() - start < 10.0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(runtime.held(), 2u);

  constexpr int kUnits = 40;
  std::vector<std::atomic<int>> runs(kUnits + 1);
  const std::vector<ComputeUnit> units =
      submit_counted(service, kUnits, runs);
  ComputeUnit gate = submit_counted(service, 1, runs, kUnits).front();
  std::thread canceler([&gate] { gate.cancel(); });
  while (!in_gate.load() && pa::wall_seconds() - start < 10.0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  runtime.release_actives();
  open.store(true);
  canceler.join();

  service.wait_all_units(60.0);
  for (const ComputeUnit& u : units) {
    EXPECT_EQ(u.state(), UnitState::kDone) << u.id();
  }
  for (int i = 0; i < kUnits; ++i) {
    EXPECT_EQ(runs[static_cast<std::size_t>(i)].load(), 1) << "unit " << i;
  }
  EXPECT_EQ(runs[kUnits].load(), 0) << "the canceled gate unit ran";
  EXPECT_EQ(service.metrics().units_done, static_cast<std::size_t>(kUnits));
  EXPECT_EQ(victim.state(), PilotState::kCanceled);
  // The first pass launched on both pilots: the victim's batch and the
  // survivor's, in either order.
  const std::vector<std::string> batches = runtime.batches();
  ASSERT_GE(batches.size(), 2u);
  EXPECT_EQ(std::set<std::string>(batches.begin(), batches.begin() + 2),
            (std::set<std::string>{victim.id(), survivor.id()}));
  transport.stop();
}

}  // namespace
}  // namespace pa::rt
