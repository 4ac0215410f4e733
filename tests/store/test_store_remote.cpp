#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "pa/check/mutex.h"
#include "pa/core/pilot_compute_service.h"
#include "pa/net/inproc_transport.h"
#include "pa/rt/remote_runtime.h"
#include "pa/store/data_service.h"
#include "pa/store/manager.h"

namespace pa::store {
namespace {

using core::ComputeUnit;
using core::ComputeUnitDescription;
using core::Pilot;
using core::PilotComputeService;
using core::PilotDescription;
using core::UnitState;
using rt::AgentEndpoint;
using rt::AgentEndpointConfig;
using rt::PayloadTable;
using rt::RemoteRuntime;
using rt::RemoteRuntimeConfig;

// Owns the in-process agents the launcher creates (test_remote_runtime
// idiom); kill() destroys the endpoint outright, like a dead process.
class AgentFarm {
 public:
  explicit AgentFarm(net::Transport& transport) : transport_(transport) {}

  void create(const std::string& pilot_id, const std::string& endpoint,
              const std::shared_ptr<PayloadTable>& payloads,
              const AgentEndpointConfig& config = {}) {
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
  }

 private:
  net::Transport& transport_;
  check::Mutex mu_{check::LockRank::kLeaf, "test.store_farm"};
  std::map<std::string, std::unique_ptr<AgentEndpoint>> agents_
      PA_GUARDED_BY(mu_);
};

// Service + runtime + farm + attached StoreManager over one transport.
struct StoreStack {
  StoreStack(net::Transport& transport, const std::string& listen_endpoint,
             StoreManager& store, const std::string& policy = "backfill",
             double heartbeat_interval = 0.05, int miss_limit = 20)
      : farm(transport) {
    RemoteRuntimeConfig config;
    config.listen_endpoint = listen_endpoint;
    config.heartbeat_interval_seconds = heartbeat_interval;
    config.heartbeat_miss_limit = miss_limit;
    config.launcher = [this](const std::string& pilot_id,
                             const std::string& endpoint) {
      farm.create(pilot_id, endpoint, runtime->payloads(), agent_config);
    };
    runtime = std::make_unique<RemoteRuntime>(transport, std::move(config));
    runtime->attach_store(&store);
    service = std::make_unique<PilotComputeService>(*runtime, policy);
  }

  AgentEndpointConfig agent_config;
  AgentFarm farm;
  std::unique_ptr<RemoteRuntime> runtime;
  std::unique_ptr<PilotComputeService> service;
};

PilotDescription remote_pilot(int nodes, const std::string& site) {
  PilotDescription d;
  d.resource_url = "remote://" + site;
  d.nodes = nodes;
  d.walltime = 1e9;
  return d;
}

std::string pattern_bytes(std::size_t n, char seed) {
  std::string s(n, '\0');
  for (std::size_t i = 0; i < n; ++i) {
    s[i] = static_cast<char>((seed + i * 131) & 0xff);
  }
  return s;
}

bool wait_for(const std::function<bool()>& pred, double timeout_seconds) {
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(timeout_seconds));
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) {
      return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return pred();
}

// Blocking ensure_on: returns the done(ok) verdict (false on timeout).
bool ensure_sync(StoreManager& store, const std::string& pilot_id,
                 const std::string& object_id, double timeout_seconds = 10.0) {
  auto fired = std::make_shared<std::atomic<int>>(0);  // 0 pending, 1/2 = ok/fail
  store.ensure_on(pilot_id, object_id, [fired](bool ok) {
    fired->store(ok ? 1 : 2);
  });
  wait_for([fired] { return fired->load() != 0; }, timeout_seconds);
  return fired->load() == 1;
}

TEST(StoreRemote, ReplicateReachesTargetAndMapsLocations) {
  net::InProcTransport transport;
  StoreManagerConfig cfg;
  cfg.replica_target = 2;
  StoreManager store(cfg);
  StoreStack stack(transport, "inproc://store-rep", store);

  Pilot p1 = stack.service->submit_pilot(remote_pilot(2, "site-a"));
  Pilot p2 = stack.service->submit_pilot(remote_pilot(2, "site-b"));
  Pilot p3 = stack.service->submit_pilot(remote_pilot(2, "site-c"));
  p1.wait_active(10.0);
  p2.wait_active(10.0);
  p3.wait_active(10.0);

  const std::string bytes = pattern_bytes(300'000, 3);  // multi-chunk
  const std::string oid = store.put(bytes);
  EXPECT_TRUE(store.known(oid));
  EXPECT_EQ(store.object_bytes(oid), bytes.size());

  store.replicate(oid);
  ASSERT_TRUE(wait_for(
      [&] { return store.replica_pilots(oid).size() == 2; }, 10.0))
      << "replication never reached the target count";

  // Every directory holder really holds the bytes in its shard.
  const std::map<std::string, std::string> site_of = {
      {p1.id(), "site-a"}, {p2.id(), "site-b"}, {p3.id(), "site-c"}};
  for (const std::string& pid : store.replica_pilots(oid)) {
    AgentEndpoint* agent = stack.farm.agent(pid);
    ASSERT_NE(agent, nullptr);
    EXPECT_TRUE(agent->store().shard().contains(oid));
    EXPECT_EQ(agent->store().shard().get(oid).value_or(""), bytes);
    EXPECT_EQ(store.bytes_at_site(oid, site_of.at(pid)),
              static_cast<double>(bytes.size()));
  }
  // The live site map lists the origin plus both replica sites.
  EXPECT_EQ(store.replica_sites(oid).size(), 3u);
  EXPECT_EQ(store.stats().pushes, 2u);
  transport.stop();
}

TEST(StoreRemote, EnsureOnCoalescesAndHitsDirectory) {
  net::InProcTransport transport;
  // A named config: GCC 12 warns -Wmaybe-uninitialized on the default
  // argument's temporary (a false positive on origin.spill_dir).
  const StoreManagerConfig config;
  StoreManager store(config);
  StoreStack stack(transport, "inproc://store-ensure", store);
  Pilot p1 = stack.service->submit_pilot(remote_pilot(2, "site-a"));
  p1.wait_active(10.0);

  const std::string oid = store.put(pattern_bytes(100'000, 7));
  // Two concurrent ensures for the same (pilot, object) coalesce into
  // one transfer; both callbacks fire true.
  auto ok_a = std::make_shared<std::atomic<int>>(0);
  auto ok_b = std::make_shared<std::atomic<int>>(0);
  store.ensure_on(p1.id(), oid,
                  [ok_a](bool ok) { ok_a->store(ok ? 1 : 2); });
  store.ensure_on(p1.id(), oid,
                  [ok_b](bool ok) { ok_b->store(ok ? 1 : 2); });
  ASSERT_TRUE(wait_for(
      [&] { return ok_a->load() != 0 && ok_b->load() != 0; }, 10.0));
  EXPECT_EQ(ok_a->load(), 1);
  EXPECT_EQ(ok_b->load(), 1);
  EXPECT_EQ(store.stats().pushes, 1u);
  EXPECT_EQ(store.stats().ensure_misses, 1u);

  // A later ensure is a pure directory hit: no new transfer.
  EXPECT_TRUE(ensure_sync(store, p1.id(), oid));
  EXPECT_EQ(store.stats().pushes, 1u);
  EXPECT_GE(store.stats().ensure_hits, 1u);

  // Unknown object and unknown pilot fail fast.
  EXPECT_FALSE(ensure_sync(store, p1.id(), "o0000000000000000"));
  EXPECT_FALSE(ensure_sync(store, "pilot-nope", oid));
  transport.stop();
}

TEST(StoreRemote, KilledReplicaHolderTriggersRepairWithinDeadline) {
  net::InProcTransport transport;
  StoreManagerConfig cfg;
  cfg.replica_target = 2;
  StoreManager store(cfg);
  // Tight-but-tolerant heartbeat: death detection (interval * miss_limit
  // = 0.3 s) bounds the repair latency well inside the 5 s assert, while
  // a survivor's agent thread must be starved a full 300 ms — not just
  // one busy scheduling quantum — before it is falsely declared dead on
  // a loaded CI box.
  StoreStack stack(transport, "inproc://store-repair", store, "backfill",
                   0.05, 6);

  Pilot p1 = stack.service->submit_pilot(remote_pilot(2, "site-a"));
  Pilot p2 = stack.service->submit_pilot(remote_pilot(2, "site-b"));
  Pilot p3 = stack.service->submit_pilot(remote_pilot(2, "site-c"));
  p1.wait_active(10.0);
  p2.wait_active(10.0);
  p3.wait_active(10.0);

  const std::string bytes = pattern_bytes(120'000, 9);
  const std::string oid = store.put(bytes);
  store.replicate(oid);
  ASSERT_TRUE(wait_for(
      [&] { return store.replica_pilots(oid).size() == 2; }, 10.0));
  const std::uint64_t repairs_before = store.stats().repairs;

  const std::string victim = store.replica_pilots(oid)[0];
  stack.farm.kill(victim);
  const auto killed_at = std::chrono::steady_clock::now();

  // Heartbeat death -> pilot_lost -> re-replication onto the survivor
  // that did not yet hold the object.
  ASSERT_TRUE(wait_for(
      [&] {
        const auto holders = store.replica_pilots(oid);
        if (holders.size() != 2) {
          return false;
        }
        for (const std::string& h : holders) {
          if (h == victim) {
            return false;
          }
        }
        return true;
      },
      10.0))
      << "re-replication after holder death never converged";
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    killed_at)
          .count();
  // Detection deadline is 60 ms; the whole repair (detect + push) must
  // land within generous CI slack of it.
  EXPECT_LT(elapsed, 5.0);
  EXPECT_GT(store.stats().repairs, repairs_before);
  for (const std::string& pid : store.replica_pilots(oid)) {
    AgentEndpoint* agent = stack.farm.agent(pid);
    ASSERT_NE(agent, nullptr);
    EXPECT_EQ(agent->store().shard().get(oid).value_or(""), bytes);
  }
  transport.stop();
}

TEST(StoreRemote, PullsFromReplicaWhenOriginEvicted) {
  net::InProcTransport transport;
  StoreManagerConfig cfg;
  // This test asserts the *star* pull mechanics (manager re-lands the
  // bytes through its origin shard); disable peer grants so the replica
  // holder is not simply granted as a direct source. The peer-grant
  // equivalent lives in test_peer_transfer.cpp.
  cfg.peer_transfers = false;
  StoreManager store(cfg);
  StoreStack stack(transport, "inproc://store-pull", store);
  Pilot p1 = stack.service->submit_pilot(remote_pilot(2, "site-a"));
  Pilot p2 = stack.service->submit_pilot(remote_pilot(2, "site-b"));
  p1.wait_active(10.0);
  p2.wait_active(10.0);

  const std::string bytes = pattern_bytes(90'000, 5);
  const std::string oid = store.put(bytes);
  ASSERT_TRUE(ensure_sync(store, p1.id(), oid));

  // Drop the origin copy: the only bytes left live in p1's shard. The
  // next placement must pull them back through the star before pushing.
  ASSERT_TRUE(store.origin().erase(oid));
  ASSERT_TRUE(ensure_sync(store, p2.id(), oid));

  EXPECT_EQ(store.stats().pulls, 1u);
  EXPECT_EQ(store.stats().pull_bytes, bytes.size());
  EXPECT_EQ(store.stats().pushes, 2u);
  AgentEndpoint* agent = stack.farm.agent(p2.id());
  ASSERT_NE(agent, nullptr);
  EXPECT_EQ(agent->store().shard().get(oid).value_or(""), bytes);
  // The pulled copy re-landed in the origin shard on the way through.
  EXPECT_EQ(store.get(oid).value_or(""), bytes);
  transport.stop();
}

TEST(StoreRemote, AffinitySchedulerFollowsLiveReplicaMap) {
  net::InProcTransport transport;
  // A named config: GCC 12 warns -Wmaybe-uninitialized on the default
  // argument's temporary (a false positive on origin.spill_dir).
  const StoreManagerConfig config;
  StoreManager store(config);
  StoreStack stack(transport, "inproc://store-affinity", store,
                   "data-affinity");
  StoreDataService data(store);
  stack.service->attach_data_service(&data);

  Pilot pa_ = stack.service->submit_pilot(remote_pilot(2, "site-a"));
  Pilot pb = stack.service->submit_pilot(remote_pilot(2, "site-b"));
  pa_.wait_active(10.0);
  pb.wait_active(10.0);

  const std::string oid = store.put(pattern_bytes(200'000, 11));
  ASSERT_TRUE(ensure_sync(store, pa_.id(), oid));
  ASSERT_EQ(store.stats().pushes, 1u);

  // Sequential units whose only input lives at site-a: the live replica
  // map must steer every one onto the holder, so dispatch prefetch is a
  // directory hit and no further bytes move.
  for (int i = 0; i < 5; ++i) {
    ComputeUnitDescription d;
    d.name = "affine-" + std::to_string(i);
    d.input_data = {oid};
    d.work = [] {};
    ComputeUnit cu = stack.service->submit_unit(d);
    EXPECT_EQ(cu.wait(30.0), UnitState::kDone);
  }
  EXPECT_EQ(store.stats().pushes, 1u)
      << "affinity ignored the live replica map and staged bytes again";
  EXPECT_GE(store.stats().ensure_hits, 5u);
  transport.stop();
}

TEST(StoreRemote, SoleReplicaHolderDeathKeepsResultsExactlyOnce) {
  net::InProcTransport transport;
  StoreManagerConfig cfg;
  // Tiny origin without spill: pushing then putting a second object
  // evicts the first from the origin outright, leaving the agent shard
  // as the sole holder — the worst case the issue demands.
  cfg.origin.memory_capacity_bytes = 4096;
  cfg.origin.chunk_bytes = 1024;
  StoreManager store(cfg);
  // Default heartbeat (1 s deadline): this test only needs p1's death
  // detected inside the generous wait budget below. A 60 ms deadline
  // flaked under parallel-suite load — the *replacement* pilot's agent
  // thread got starved past the deadline, was falsely declared dead,
  // and the workload wedged with no pilot left.
  StoreStack stack(transport, "inproc://store-solo", store,
                   "data-affinity");
  StoreDataService data(store);
  stack.service->attach_data_service(&data);
  stack.service->set_requeue_on_pilot_failure(true);

  Pilot p1 = stack.service->submit_pilot(remote_pilot(2, "site-a"));
  p1.wait_active(10.0);

  const std::string bytes_a = pattern_bytes(3000, 1);
  const std::string oid = store.put(bytes_a);
  ASSERT_TRUE(ensure_sync(store, p1.id(), oid));
  store.put(pattern_bytes(3000, 2));  // evicts A from the origin
  ASSERT_FALSE(store.origin().contains(oid));
  ASSERT_EQ(store.replica_pilots(oid), std::vector<std::string>{p1.id()});

  constexpr int kUnits = 24;
  std::vector<std::unique_ptr<std::atomic<int>>> runs;
  for (int i = 0; i < kUnits; ++i) {
    runs.push_back(std::make_unique<std::atomic<int>>(0));
  }
  std::vector<ComputeUnitDescription> descriptions;
  for (int i = 0; i < kUnits; ++i) {
    ComputeUnitDescription d;
    d.name = "solo-" + std::to_string(i);
    d.input_data = {oid};
    std::atomic<int>* counter = runs[static_cast<std::size_t>(i)].get();
    d.work = [counter] {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      counter->fetch_add(1);
    };
    descriptions.push_back(std::move(d));
  }
  std::vector<ComputeUnit> units = stack.service->submit_units(descriptions);

  // Kill the sole replica holder mid-run, then offer a fresh pilot. The
  // requeued units must still complete: stage-in degrades (the object is
  // unobtainable) instead of wedging dispatch.
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  stack.farm.kill(p1.id());
  Pilot p2 = stack.service->submit_pilot(remote_pilot(2, "site-b"));
  p2.wait_active(10.0);

  stack.service->wait_all_units(120.0);
  for (ComputeUnit& cu : units) {
    EXPECT_EQ(cu.state(), UnitState::kDone);
  }
  // Exactly-once accounting: every unit counted done once, even though
  // in-flight work was re-executed after the pilot died.
  EXPECT_EQ(stack.service->metrics().units_done,
            static_cast<std::size_t>(kUnits));
  EXPECT_GE(stack.service->metrics().requeues, 1u);
  for (int i = 0; i < kUnits; ++i) {
    EXPECT_GE(runs[static_cast<std::size_t>(i)]->load(), 1) << i;
  }
  EXPECT_GE(store.stats().ensure_failures, 1u);
  transport.stop();
}

}  // namespace
}  // namespace pa::store
