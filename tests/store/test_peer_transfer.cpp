/// \file test_peer_transfer.cpp
/// \brief Brokered peer-to-peer data plane: end-to-end grants over a live
/// fleet, and deterministic grant-ledger mechanics (including the fall
/// back to the star) against a recording sender (no transport).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "pa/check/mutex.h"
#include "pa/common/time_utils.h"
#include "pa/core/pilot_compute_service.h"
#include "pa/net/inproc_transport.h"
#include "pa/rt/remote_runtime.h"
#include "pa/store/manager.h"
#include "pa/store/token.h"

namespace pa::store {
namespace {

using core::Pilot;
using core::PilotComputeService;
using core::PilotDescription;
using rt::AgentEndpoint;
using rt::AgentEndpointConfig;
using rt::PayloadTable;
using rt::RemoteRuntime;
using rt::RemoteRuntimeConfig;

class TempDir {
 public:
  TempDir() {
    std::string tmpl = "/tmp/pa_peer_test_XXXXXX";
    char* made = ::mkdtemp(tmpl.data());
    EXPECT_NE(made, nullptr);
    path_ = made != nullptr ? made : "/tmp";
  }
  ~TempDir() {
    const std::string cmd = "rm -rf '" + path_ + "'";
    [[maybe_unused]] const int rc = std::system(cmd.c_str());
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// Owns the in-process agents the launcher creates (test_store_remote
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

 private:
  net::Transport& transport_;
  check::Mutex mu_{check::LockRank::kLeaf, "test.peer_farm"};
  std::map<std::string, std::unique_ptr<AgentEndpoint>> agents_
      PA_GUARDED_BY(mu_);
};

// Service + runtime + farm + attached StoreManager over one transport.
struct StoreStack {
  StoreStack(net::Transport& transport, const std::string& listen_endpoint,
             StoreManager& store)
      : farm(transport) {
    RemoteRuntimeConfig config;
    config.listen_endpoint = listen_endpoint;
    config.heartbeat_interval_seconds = 0.05;
    config.heartbeat_miss_limit = 20;
    config.launcher = [this](const std::string& pilot_id,
                             const std::string& endpoint) {
      farm.create(pilot_id, endpoint, runtime->payloads(), agent_config);
    };
    runtime = std::make_unique<RemoteRuntime>(transport, std::move(config));
    runtime->attach_store(&store);
    service = std::make_unique<PilotComputeService>(*runtime, "backfill");
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
  auto fired = std::make_shared<std::atomic<int>>(0);
  store.ensure_on(pilot_id, object_id, [fired](bool ok) {
    fired->store(ok ? 1 : 2);
  });
  wait_for([fired] { return fired->load() != 0; }, timeout_seconds);
  return fired->load() == 1;
}

// --- end-to-end over a live fleet --------------------------------------

TEST(PeerTransfer, PeerGrantMovesBytesAgentToAgent) {
  net::InProcTransport transport;
  // A named config: GCC 12 warns -Wmaybe-uninitialized on the default
  // argument's temporary (a false positive on origin.spill_dir).
  const StoreManagerConfig config;
  StoreManager store(config);
  StoreStack stack(transport, "inproc://peer-e2e", store);

  Pilot p1 = stack.service->submit_pilot(remote_pilot(2, "site-a"));
  Pilot p2 = stack.service->submit_pilot(remote_pilot(2, "site-b"));
  p1.wait_active(10.0);
  p2.wait_active(10.0);

  // Both agents published peer dial addresses in their hellos.
  AgentEndpoint* a1 = stack.farm.agent(p1.id());
  AgentEndpoint* a2 = stack.farm.agent(p2.id());
  ASSERT_NE(a1, nullptr);
  ASSERT_NE(a2, nullptr);
  EXPECT_FALSE(a1->peer_endpoint().empty());
  EXPECT_FALSE(a2->peer_endpoint().empty());

  const std::string bytes = pattern_bytes(200'000, 11);  // multi-chunk
  const std::string oid = store.put(bytes);

  // First placement: no agent holder exists yet, so the star pushes.
  ASSERT_TRUE(ensure_sync(store, p1.id(), oid));
  EXPECT_EQ(store.stats().pushes, 1u);

  // Second placement: p1 is an eligible peer source — the manager mints
  // a token and the bytes flow agent-to-agent, its own link staying flat.
  const std::uint64_t star_bytes_before = store.transfers().bytes_sent();
  ASSERT_TRUE(ensure_sync(store, p2.id(), oid));
  EXPECT_EQ(store.transfers().bytes_sent(), star_bytes_before);

  const StoreManagerStats stats = store.stats();
  EXPECT_EQ(stats.pushes, 1u);  // unchanged: no second star push
  EXPECT_EQ(stats.tokens_minted, 1u);
  EXPECT_EQ(stats.tokens_validated, 1u);
  EXPECT_EQ(stats.peer_transfers, 1u);
  EXPECT_EQ(stats.peer_bytes, bytes.size());
  EXPECT_EQ(stats.peer_fallbacks, 0u);

  EXPECT_EQ(a2->store().shard().get(oid).value_or(""), bytes);
  EXPECT_EQ(store.replica_pilots(oid).size(), 2u);
  transport.stop();
}

TEST(PeerTransfer, StreamingPutMovesOversizeObjectThroughStore) {
  TempDir spill;
  net::InProcTransport transport;
  StoreManagerConfig cfg;
  cfg.origin.memory_capacity_bytes = 16'384;
  cfg.origin.spill_dir = spill.path();
  StoreManager store(cfg);
  StoreStack stack(transport, "inproc://peer-stream", store);

  Pilot p1 = stack.service->submit_pilot(remote_pilot(2, "site-a"));
  p1.wait_active(10.0);

  // 4x the origin's memory budget, streamed in odd-sized pieces: the
  // object is never materialized whole on the manager.
  const std::string bytes = pattern_bytes(65'536, 17);
  StreamWriter writer = store.origin().stream_writer();
  for (std::size_t off = 0; off < bytes.size(); off += 777) {
    writer.append(std::string_view(bytes).substr(
        off, std::min<std::size_t>(777, bytes.size() - off)));
  }
  const PutResult res = writer.finish();
  ASSERT_TRUE(res.stored);
  const std::string oid = store.put_streamed(res);
  ASSERT_FALSE(oid.empty());
  EXPECT_EQ(store.object_bytes(oid), bytes.size());
  EXPECT_LE(store.origin().stats().resident_bytes,
            cfg.origin.memory_capacity_bytes);

  // The star push serves spilled chunks straight from disk.
  ASSERT_TRUE(ensure_sync(store, p1.id(), oid));
  AgentEndpoint* a1 = stack.farm.agent(p1.id());
  ASSERT_NE(a1, nullptr);
  EXPECT_EQ(a1->store().shard().get(oid).value_or(""), bytes);
  transport.stop();
}

// --- grant-ledger mechanics against a recording sender -----------------

/// StoreManager wired to a sender that records every egress frame and
/// reports kSent: grant scheduling becomes fully deterministic, with
/// holders seeded through the same kObjLocate announces agents send.
struct FakeFleet {
  // Grant tests run on 3 KB fixtures; drop the bulk-only size floor so
  // the broker path engages.
  static StoreManagerConfig grant_all(StoreManagerConfig cfg) {
    cfg.peer_min_object_bytes = 0;
    return cfg;
  }

  // Defaults to a copy of a named config: GCC 12 warns
  // -Wmaybe-uninitialized on a `= {}` temporary here (a false positive).
  static const StoreManagerConfig& default_config() {
    static const StoreManagerConfig cfg;
    return cfg;
  }

  explicit FakeFleet(StoreManagerConfig cfg = default_config(),
                     bool keep_floor = false)
      : store(keep_floor ? std::move(cfg) : grant_all(std::move(cfg))) {
    store.attach_sender(
        [this](const std::string& pilot, net::Message& m) {
          check::MutexLock lock(mu);
          sent.emplace_back(pilot, m);
          return SendResult::kSent;
        });
  }

  void activate(const std::string& pilot, const std::string& endpoint) {
    store.pilot_active(pilot, "site-" + pilot, endpoint);
  }

  void seed_holder(const std::string& pilot, const std::string& object_id,
                   std::uint64_t object_bytes) {
    net::Message m;
    m.type = net::MessageType::kObjLocate;
    m.object_id = object_id;
    m.object_bytes = object_bytes;
    m.success = true;
    store.on_agent_message(pilot, m);
  }

  void peer_done(const std::string& pilot, const std::string& object_id,
                 std::uint64_t nonce, bool success,
                 std::uint64_t object_bytes = 0) {
    net::Message m;
    m.type = net::MessageType::kPeerDone;
    m.object_id = object_id;
    m.nonce = nonce;
    m.success = success;
    m.object_bytes = object_bytes;
    store.on_agent_message(pilot, m);
  }

  /// Recorded frames of `type` sent to `pilot`.
  std::size_t count_sent(const std::string& pilot, net::MessageType type) {
    check::MutexLock lock(mu);
    return static_cast<std::size_t>(
        std::count_if(sent.begin(), sent.end(), [&](const auto& frame) {
          return frame.first == pilot && frame.second.type == type;
        }));
  }

  /// Recorded kXferToken frames: grants (success) or revocations (!).
  std::vector<std::pair<std::string, net::Message>> tokens(bool success) {
    check::MutexLock lock(mu);
    std::vector<std::pair<std::string, net::Message>> out;
    for (const auto& [pilot, m] : sent) {
      if (m.type == net::MessageType::kXferToken && m.success == success) {
        out.emplace_back(pilot, m);
      }
    }
    return out;
  }

  bool wait_tokens(bool success, std::size_t count) {
    return wait_for([&] { return tokens(success).size() >= count; }, 10.0);
  }

  check::Mutex mu{check::LockRank::kLeaf, "test.fake_fleet"};
  std::vector<std::pair<std::string, net::Message>> sent PA_GUARDED_BY(mu);
  // Declared after the recording state so it is destroyed first: the
  // manager's pump thread may invoke the sender right up to close().
  StoreManager store;
};

TEST(PeerGrant, TokenNamesSourceCarriesEndpointAndVerifies) {
  FakeFleet fleet;
  fleet.activate("p1", "inproc://peer-p1");
  fleet.activate("p2", "inproc://peer-p2");
  const std::string bytes = pattern_bytes(3000, 3);
  const std::string oid = fleet.store.put(bytes);
  fleet.seed_holder("p1", oid, bytes.size());

  auto fired = std::make_shared<std::atomic<int>>(0);
  fleet.store.ensure_on("p2", oid,
                        [fired](bool ok) { fired->store(ok ? 1 : 2); });
  ASSERT_TRUE(fleet.wait_tokens(true, 1));
  const auto grants = fleet.tokens(true);
  ASSERT_EQ(grants.size(), 1u);
  EXPECT_EQ(grants[0].first, "p2");  // delivered to the destination
  const net::Message& m = grants[0].second;
  EXPECT_EQ(m.pilot_id, "p2");
  EXPECT_EQ(m.peer_endpoint, "inproc://peer-p1");  // late-bound dial addr

  const TransferToken token = token_from_message(m);
  EXPECT_EQ(token.object_id, oid);
  EXPECT_EQ(token.source_pilot, "p1");
  EXPECT_EQ(token.dest_pilot, "p2");
  EXPECT_EQ(token.object_bytes, bytes.size());
  EXPECT_GT(token.deadline, pa::wall_seconds());
  EXPECT_TRUE(token_valid(token, fleet.store.config().token_key, m.mac));

  EXPECT_EQ(fleet.store.active_grants(), 1u);
  EXPECT_EQ(fleet.store.stats().tokens_minted, 1u);
  EXPECT_EQ(fired->load(), 0);  // ensure waits on kPeerDone

  // A spoofed kPeerDone (right nonce, wrong pilot) settles nothing.
  fleet.peer_done("p-eve", oid, token.nonce, true, bytes.size());
  EXPECT_EQ(fleet.store.active_grants(), 1u);
  EXPECT_EQ(fired->load(), 0);

  // The destination's authoritative ack settles the ledger row.
  fleet.peer_done("p2", oid, token.nonce, true, bytes.size());
  ASSERT_TRUE(wait_for([&] { return fired->load() != 0; }, 10.0));
  EXPECT_EQ(fired->load(), 1);
  EXPECT_EQ(fleet.store.active_grants(), 0u);
  const StoreManagerStats stats = fleet.store.stats();
  EXPECT_EQ(stats.tokens_validated, 1u);
  EXPECT_EQ(stats.peer_transfers, 1u);
  EXPECT_EQ(stats.peer_bytes, bytes.size());
  const auto pilots = fleet.store.replica_pilots(oid);
  EXPECT_NE(std::find(pilots.begin(), pilots.end(), "p2"), pilots.end());
}

TEST(PeerGrant, SourceDeathRequeuesGrantExactlyOnce) {
  FakeFleet fleet;
  fleet.activate("p1", "inproc://peer-p1");
  fleet.activate("p2", "inproc://peer-p2");
  fleet.activate("p3", "inproc://peer-p3");
  const std::string bytes = pattern_bytes(3000, 5);
  const std::string oid = fleet.store.put(bytes);
  fleet.seed_holder("p1", oid, bytes.size());
  fleet.seed_holder("p2", oid, bytes.size());

  fleet.store.ensure_on("p3", oid, nullptr);
  ASSERT_TRUE(fleet.wait_tokens(true, 1));
  ASSERT_EQ(token_from_message(fleet.tokens(true)[0].second).source_pilot,
            "p1");  // first holder in directory order, both unloaded

  // Source death moves the grant to the surviving replica exactly once:
  // `tried` carries the dead pilot so a re-grant can never pick it again.
  fleet.store.pilot_lost("p1");
  ASSERT_TRUE(fleet.wait_tokens(true, 2));
  const auto grants = fleet.tokens(true);
  ASSERT_EQ(grants.size(), 2u);
  EXPECT_EQ(token_from_message(grants[1].second).source_pilot, "p2");
  EXPECT_EQ(token_from_message(grants[1].second).dest_pilot, "p3");
  EXPECT_EQ(fleet.store.active_grants(), 1u);

  // Second source death exhausts the peers: exactly one star push, no
  // third token.
  fleet.store.pilot_lost("p2");
  ASSERT_TRUE(
      wait_for([&] { return fleet.store.stats().pushes == 1u; }, 10.0));
  EXPECT_EQ(fleet.tokens(true).size(), 2u);
  EXPECT_EQ(fleet.store.active_grants(), 0u);
  EXPECT_EQ(fleet.store.stats().peer_fallbacks, 1u);
}

TEST(PeerGrant, ExpiredGrantRevokedAtSourceThenFallsBack) {
  FakeFleet fleet;
  fleet.activate("p1", "inproc://peer-p1");
  fleet.activate("p2", "inproc://peer-p2");
  const std::string bytes = pattern_bytes(3000, 7);
  const std::string oid = fleet.store.put(bytes);
  fleet.seed_holder("p1", oid, bytes.size());

  fleet.store.ensure_on("p2", oid, nullptr);
  ASSERT_TRUE(fleet.wait_tokens(true, 1));
  const TransferToken granted =
      token_from_message(fleet.tokens(true)[0].second);

  // Nothing expires before the deadline.
  fleet.store.tick(pa::wall_seconds());
  EXPECT_EQ(fleet.store.stats().tokens_expired, 0u);

  // Past the TTL the grant is expired, revoked at its source, and the
  // transfer falls back to the star (p1 was the only peer source).
  fleet.store.tick(granted.deadline + 1.0);
  EXPECT_EQ(fleet.store.stats().tokens_expired, 1u);
  EXPECT_EQ(fleet.store.stats().tokens_revoked, 1u);
  EXPECT_EQ(fleet.store.active_grants(), 0u);
  ASSERT_TRUE(fleet.wait_tokens(false, 1));
  const auto revokes = fleet.tokens(false);
  ASSERT_EQ(revokes.size(), 1u);
  EXPECT_EQ(revokes[0].first, "p1");  // delivered to the source
  EXPECT_EQ(token_from_message(revokes[0].second).nonce, granted.nonce);
  ASSERT_TRUE(
      wait_for([&] { return fleet.store.stats().pushes == 1u; }, 10.0));
  EXPECT_EQ(fleet.store.stats().peer_fallbacks, 1u);
}

TEST(PeerGrant, SaturatedSourceQueuesGrantUntilCompletionFreesSlot) {
  StoreManagerConfig cfg;
  cfg.max_inflight_per_source = 1;
  FakeFleet fleet(cfg);
  fleet.activate("p1", "inproc://peer-p1");
  fleet.activate("p2", "inproc://peer-p2");
  fleet.activate("p3", "inproc://peer-p3");
  const std::string bytes = pattern_bytes(3000, 9);
  const std::string oid = fleet.store.put(bytes);
  fleet.seed_holder("p1", oid, bytes.size());

  fleet.store.ensure_on("p2", oid, nullptr);
  ASSERT_TRUE(fleet.wait_tokens(true, 1));
  // p1's single slot is taken: the second grant queues instead of
  // over-subscribing the source (and does not fall back to the star).
  fleet.store.ensure_on("p3", oid, nullptr);
  EXPECT_EQ(fleet.store.queued_grants(), 1u);
  EXPECT_EQ(fleet.store.stats().tokens_minted, 1u);
  EXPECT_EQ(fleet.store.stats().pushes, 0u);

  // The first completion frees the slot and drains the queue.
  const TransferToken first =
      token_from_message(fleet.tokens(true)[0].second);
  fleet.peer_done("p2", oid, first.nonce, true, bytes.size());
  ASSERT_TRUE(fleet.wait_tokens(true, 2));
  EXPECT_EQ(fleet.store.queued_grants(), 0u);
  const auto grants = fleet.tokens(true);
  EXPECT_EQ(token_from_message(grants[1].second).dest_pilot, "p3");
  EXPECT_EQ(token_from_message(grants[1].second).source_pilot, "p1");
}

TEST(PeerGrant, SmallObjectRidesStarDespiteEligiblePeerSource) {
  // The broker handshake (token, offer, chunk stream, settlement) only
  // amortizes over bulk objects; below the floor the star's single
  // pushed frame is cheaper, and skipping the grant is policy, not a
  // fallback.
  StoreManagerConfig cfg;
  cfg.peer_min_object_bytes = 10'000;
  FakeFleet fleet(cfg, /*keep_floor=*/true);
  fleet.activate("p1", "inproc://peer-p1");
  fleet.activate("p2", "inproc://peer-p2");
  const std::string bytes = pattern_bytes(3000, 11);
  const std::string oid = fleet.store.put(bytes);
  fleet.seed_holder("p1", oid, bytes.size());

  fleet.store.ensure_on("p2", oid, nullptr);
  EXPECT_EQ(fleet.store.stats().tokens_minted, 0u);
  EXPECT_EQ(fleet.store.stats().pushes, 1u);
  EXPECT_EQ(fleet.store.stats().peer_fallbacks, 0u);
}

TEST(PeerGrant, HolderWithoutPeerEndpointFallsBackToStar) {
  // An agent whose peer listener failed to bind publishes no dial
  // address, so it can never source a grant: placing its only replica
  // elsewhere mints no token and rides the star from the origin.
  FakeFleet fleet;
  fleet.activate("p1", "");
  fleet.activate("p2", "inproc://peer-p2");
  const std::string bytes = pattern_bytes(3000, 13);
  const std::string oid = fleet.store.put(bytes);
  fleet.seed_holder("p1", oid, bytes.size());

  fleet.store.ensure_on("p2", oid, nullptr);
  ASSERT_TRUE(wait_for(
      [&] { return fleet.count_sent("p2", net::MessageType::kObjPut) > 0; },
      10.0));
  EXPECT_EQ(fleet.count_sent("p2", net::MessageType::kXferToken), 0u);
  EXPECT_EQ(fleet.count_sent("p1", net::MessageType::kXferToken), 0u);
  const StoreManagerStats stats = fleet.store.stats();
  EXPECT_EQ(stats.pushes, 1u);
  EXPECT_EQ(stats.tokens_minted, 0u);
  EXPECT_EQ(fleet.store.active_grants(), 0u);
}

}  // namespace
}  // namespace pa::store
