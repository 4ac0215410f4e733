#pragma once
/// \file remote_runtime.h
/// \brief Runtime binding that drives pilots over a pa::net wire: the
/// Pilot-Manager half speaks the message protocol to Pilot-Agent
/// endpoints instead of calling an in-process substrate directly.
///
/// This realizes the P* split the paper builds on: manager and agents
/// are separate components joined by an explicit coordination channel,
/// and the manager↔agent path — the dominant overhead at scale — becomes
/// measurable wire traffic. Everything above `core::Runtime`
/// (PilotComputeService, WorkloadManager, the engines) runs unchanged.
///
///     PilotComputeService
///            │ core::Runtime
///     RemoteRuntime (manager)         AgentEndpoint (one per pilot)
///            │ kStartPilot/kUnitBatch ───────▶ │
///            │ ◀── kPilotActive/kUnitDoneBatch │ LocalRuntime (pool)
///            └───── net::Transport ────────────┘
///
/// Liveness: the manager heartbeats every agent; an agent that misses
/// `heartbeat_miss_limit` consecutive intervals is declared dead and its
/// pilot surfaces through `on_terminated(kFailed)` — which drives the
/// middleware's existing orphan-requeue recovery. A dropped *connection*
/// alone does not kill a pilot (TCP clients reconnect and re-introduce
/// themselves); the heartbeat deadline is the only death authority.
///
/// Payloads: `ComputeUnitDescription::work` closures cannot cross a
/// wire. The manager parks them in a `PayloadTable` keyed by unit id and
/// the (in-process) agent resolves them by key — the loopback stand-in
/// for the named-executable dispatch a multi-host deployment would use.
/// Units without a resolvable payload burn CPU for their declared
/// duration, exactly like LocalRuntime.

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "pa/check/mutex.h"
#include "pa/core/runtime.h"
#include "pa/net/flusher.h"
#include "pa/net/message.h"
#include "pa/net/transport.h"
#include "pa/obs/metrics.h"
#include "pa/rt/local_runtime.h"
#include "pa/store/agent.h"

namespace pa::store {
class StoreManager;
}  // namespace pa::store

namespace pa::rt {

/// Thread-safe unit_id -> work-closure map shared between the manager
/// and in-process agents. The manager re-puts on every launch, so
/// requeued units resolve their payload again on the retry.
class PayloadTable {
 public:
  /// Parks the work closure of every launch that has one, under one
  /// lock hold.
  void put(const std::vector<core::UnitLaunch>& launches);
  /// Removes and returns the closure, or an empty function when absent
  /// (agent falls back to duration burn).
  std::function<void()> take(const std::string& unit_id);
  std::size_t size() const;

 private:
  /// Leaf of the net send path (DESIGN.md lock hierarchy, rank 18).
  mutable check::Mutex mutex_{check::LockRank::kNetPayload,
                              "rt::PayloadTable"};
  std::map<std::string, std::function<void()>> work_ PA_GUARDED_BY(mutex_);
};

struct AgentEndpointConfig {
  LocalRuntimeConfig local;
  /// Units the agent holds, waiting and running = queue_factor × pilot
  /// cores. This is the pilot's dispatch depth: the agent announces it in
  /// kPilotActive next to its cores, the manager reports both to the
  /// service (PilotCapacity), and the service's capacity accounting then
  /// never has more units in flight on the pilot than that, while it fits
  /// each unit by the real cores. Short units need depth to cover the
  /// wire round-trip, so the agent keeps several batches of ready work
  /// per core.
  int queue_factor = 16;
  /// Completion-outbox flusher (group-commit batching of completions
  /// into kUnitDoneBatch frames).
  net::BatchFlusherConfig flusher;
  /// Optional: exports net.batch_size / flush-reason counters plus
  /// net.agent_send_rejected. Must outlive the endpoint.
  obs::MetricsRegistry* metrics = nullptr;
  /// The pilot's store shard (pa::store data plane). Give it a
  /// memory_capacity_bytes / spill_dir to exercise the LRU tier; the
  /// defaults hold everything in memory.
  store::StoreAgentConfig store;
};

/// The Pilot-Agent: connects to the manager's endpoint, announces its
/// pilot id (kHello), then executes whatever the manager sends on an
/// embedded LocalRuntime. One instance per pilot, created by the
/// `AgentLauncher` — in-process here; a real deployment would submit a
/// placeholder job that exec's an agent binary doing exactly this.
///
/// Late binding (the RADICAL-Pilot bulk-dispatch discipline): units
/// arrive in kUnitBatch frames and go straight to the embedded
/// LocalRuntime, whose ready FIFO binds them to cores as cores free up,
/// in arrival order, so the manager round-trip is off the per-unit
/// critical path. Completions ride a BatchFlusher outbox that coalesces
/// them into kUnitDoneBatch frames and — unlike the old fire-and-forget
/// send — retries frames the transport rejects under backpressure.
///
/// Peer channel: the agent also listens on its own endpoint and
/// publishes the resolved address in kHello. The manager brokers bulk replication by minting signed
/// transfer tokens (kXferToken) instead of pumping chunks itself: the
/// destination agent dials the named source lazily, presents the token
/// (kPeerOffer), and the source streams kPeerChunk frames directly —
/// object bytes never touch the manager. Each peer connection gets its
/// own BatchFlusher so a slow peer backpressures only its own stream.
/// A failed dial (or a listener that could not bind) degrades to the
/// manager star via kPeerDone{success=false}.
class AgentEndpoint {
 public:
  /// Connects immediately; throws pa::Error when the manager endpoint is
  /// unreachable. `transport` must outlive the endpoint.
  AgentEndpoint(net::Transport& transport, const std::string& endpoint,
                std::string pilot_id, std::shared_ptr<PayloadTable> payloads,
                AgentEndpointConfig config = {});
  ~AgentEndpoint();

  AgentEndpoint(const AgentEndpoint&) = delete;
  AgentEndpoint& operator=(const AgentEndpoint&) = delete;

  /// Test hook: while true the agent swallows heartbeats (simulating a
  /// hung agent process) so the manager's miss-limit logic can be
  /// exercised without killing real sockets.
  void set_unresponsive(bool value) { unresponsive_.store(value); }

  /// Wire counters of the agent's connection (reconnects live here: the
  /// agent is the dialing side).
  net::ConnectionStats stats() const { return conn_->stats(); }

  /// Completions dropped at teardown (undeliverable through the final
  /// flush); the manager's orphan requeue covers them.
  std::uint64_t completions_dropped() const {
    return outbox_.dropped_on_close();
  }

  /// The pilot's store shard (direct access for tests/telemetry).
  store::StoreAgent& store() { return store_; }

  /// Resolved peer-listener address published in kHello ("" when the
  /// listener failed to bind — the manager then never grants peer
  /// transfers sourced from this pilot).
  const std::string& peer_endpoint() const { return peer_endpoint_; }

  /// Snapshot of the units the agent holds (telemetry / debugging).
  struct SchedulerStats {
    std::size_t queued = 0;       ///< units waiting for a core
    std::size_t outstanding = 0;  ///< units running in the LocalRuntime
    std::int32_t slots = 0;       ///< pilot cores (0 until kPilotActive)
    std::int32_t window = 0;      ///< free queue slots (capacity − held)
    std::size_t outbox_pending = 0;  ///< completions awaiting a flush
  };
  SchedulerStats scheduler_stats() const;

 private:
  /// One agent↔agent stream: the connection plus its own outbound
  /// flusher, so chunk streams to different peers never share a queue.
  /// `out` is null only on a dial shell that is still connecting.
  struct PeerChannel {
    net::ConnectionPtr conn;
    std::unique_ptr<net::BatchFlusher> out;
  };

  /// Shared ownership island for the peer side. The transport has no
  /// unlisten, so the accept handler can outlive the endpoint; it holds
  /// this hub by shared_ptr and consults `alive` (set false by the
  /// destructor under `mu`) before touching anything else. Connections
  /// accepted after the flag flips get empty handlers and idle until the
  /// transport dies.
  struct PeerHub {
    /// Above every send-path rank the channel bodies reach: never held
    /// while dialing (transport 15), sending, or closing a connection.
    check::Mutex mu{check::LockRank::kNetPeer, "rt::AgentEndpoint.peer"};
    bool alive PA_GUARDED_BY(mu) = true;
    std::vector<std::shared_ptr<PeerChannel>> accepted PA_GUARDED_BY(mu);
    std::map<std::string, std::shared_ptr<PeerChannel>> dials
        PA_GUARDED_BY(mu);
  };

  void handle_message(const std::string& payload);
  /// Binds the peer listener and records its resolved address; a bind
  /// failure leaves peer_endpoint_ empty (star fallback) instead of
  /// failing the agent.
  void setup_peer_listener(net::Transport& transport,
                           const std::string& manager_endpoint);
  /// Returns the (possibly cached) channel to a peer's listener, dialing
  /// outside the hub lock; null when the hub is tearing down. Throws
  /// pa::Error when the endpoint refuses.
  std::shared_ptr<PeerChannel> peer_channel_for(const std::string& endpoint);
  /// Builds the per-channel flusher whose sink stamps headers and sends
  /// on `conn`, retaining the unsent tail on backpressure.
  std::unique_ptr<net::BatchFlusher> make_peer_flusher(net::ConnectionPtr conn);
  /// Delivery-thread entry for frames on a peer connection: routes both
  /// directions through StoreAgent::handle_peer, replies to the peer on
  /// its channel flusher and to the manager on the main outbox.
  void handle_peer_message(const std::weak_ptr<PeerChannel>& channel,
                           const std::string& payload);
  /// kXferToken at the destination: start the pull, dial the source,
  /// present the offer; any failure reports kPeerDone{success=false} so
  /// the manager regrants or falls back to the star.
  void handle_xfer_token(const net::Message& m);
  /// Hands one unit to the embedded runtime with its payload; a unit the
  /// runtime rejects completes unsuccessfully.
  void dispatch(const net::WireUnitDescription& unit);
  void complete(const std::string& unit_id, bool success);
  /// Outbox sink: arena-encodes a batch (merging each run of queued
  /// kUnitDoneBatch items into one frame) and gathers it into the
  /// transport. Returns what the transport rejected, for retry.
  std::vector<net::Message> ship(std::vector<net::Message> batch,
                                 net::FlushReason reason);
  /// Bypasses the outbox (heartbeat acks: batching them would inflate the
  /// manager's RTT histogram, and losing one is harmless).
  void send_direct(net::Message message);
  /// queue_factor × cores (each at least 1): the most units the agent
  /// holds, queued plus running.
  std::int32_t queue_capacity(int cores) const;
  /// Pushes kPilotActive (cores, queue capacity, site) to the manager.
  void announce_active();

  const std::string pilot_id_;
  const AgentEndpointConfig config_;
  const std::shared_ptr<PayloadTable> payloads_;
  /// For lazy peer dials; must outlive the endpoint (same contract as
  /// the manager connection below).
  net::Transport& transport_;

  /// Peer-channel state. Torn down explicitly at the top of the
  /// destructor (flip alive, close every channel) — see ~AgentEndpoint.
  std::shared_ptr<PeerHub> peer_hub_;
  std::string peer_endpoint_;  ///< resolved listener address ("" = none)

  // Destruction order (reverse of declaration) is load-bearing:
  // ~local_ first (joins workers; its completion callbacks may still
  // push into outbox_), then ~outbox_ (final flush attempt over the
  // still-constructed conn_), then conn_ last.
  net::ConnectionPtr conn_;

  std::atomic<bool> unresponsive_{false};
  std::atomic<bool> started_{false};
  /// Set by ~AgentEndpoint: the cancel of the embedded pilot reports
  /// nothing, and neither does a unit the cancelled runtime rejects.
  std::atomic<bool> draining_{false};
  std::atomic<std::uint64_t> seq_{0};
  /// Max completions merged per kUnitDoneBatch frame; halves on transport
  /// reject (so frames shrink until they fit the send queue), doubles on
  /// success up to the flusher's max_batch.
  std::atomic<std::size_t> merge_cap_;

  // Cached kPilotActive body for idempotent duplicate kStartPilot
  // handling after a reconnect; site_/cores_ are published before
  // active_sent_ (release) and only read after it (acquire). The queue
  // capacity is recomputed from cores, so the re-announce carries the
  // same depth as the first one.
  int active_cores_ = 0;
  std::string active_site_;
  std::atomic<bool> active_sent_{false};

  /// Units handed to local_ and not yet completed: waiting or running.
  std::atomic<std::size_t> held_{0};

  std::string arena_;  ///< flusher-thread-only encode buffer
  obs::Counter* send_rejected_counter_ = nullptr;

  /// Data-plane half: assembles kObjPut streams, serves kObjGet. Replies
  /// ride outbox_ (declared below, destroyed first), so in-flight store
  /// replies drain through the final flush like completions do.
  store::StoreAgent store_;

  net::BatchFlusher outbox_;
  LocalRuntime local_;
};

/// Launches the agent for `pilot_id` against the manager's resolved
/// endpoint. Runs inside start_pilot — keep it non-blocking (create an
/// AgentEndpoint, or submit a job that will create one).
using AgentLauncher =
    std::function<void(const std::string& pilot_id,
                       const std::string& endpoint)>;

struct RemoteRuntimeConfig {
  /// Passed to Transport::listen; "inproc://manager" or "127.0.0.1:0".
  std::string listen_endpoint = "inproc://manager";
  double heartbeat_interval_seconds = 0.25;
  /// Dead after `heartbeat_interval_seconds * heartbeat_miss_limit`
  /// without an ack (or any other sign of life).
  int heartbeat_miss_limit = 4;
  /// Unit-dispatch flusher (group-commit batching of queued launches
  /// into kUnitBatch frames). Its `max_batch` also caps the units in one
  /// frame.
  net::BatchFlusherConfig flusher;
  /// Required: how pilots become agents.
  AgentLauncher launcher;
  /// Optional sink for heartbeat RTT, reconnects, queue HWM, bytes, and
  /// the flusher's batch-size / flush-reason series.
  obs::MetricsRegistry* metrics = nullptr;
};

/// Manager-side core::Runtime over a pa::net transport. Thread-safe.
///
/// Resource URLs: scheme "remote" (e.g. "remote://cluster-a"); the agent
/// rewrites it to "local://" for its embedded substrate.
class RemoteRuntime : public core::Runtime {
 public:
  /// Starts listening and the heartbeat thread. `transport` must outlive
  /// the runtime and is not stopped by it.
  RemoteRuntime(net::Transport& transport, RemoteRuntimeConfig config);
  ~RemoteRuntime() override;

  /// Resolved listen endpoint (kernel-chosen port filled in for TCP).
  const std::string& endpoint() const { return endpoint_; }

  /// The table in-process agents resolve work closures from.
  const std::shared_ptr<PayloadTable>& payloads() const { return payloads_; }

  /// Wires the data plane: the store's egress goes through our
  /// connections, inbound kObjLocate/kObjChunk/kPeerDone are forwarded to the store,
  /// pilot lifecycle (active/lost) feeds its membership — including each
  /// agent's published peer dial address — the heartbeat loop drives the
  /// store's token-expiry tick, and unit dispatch prefetches declared
  /// input objects onto the target pilot.
  /// Call before start_pilot; `store` must outlive the runtime. The
  /// attached store's transfer pump is closed when the runtime is
  /// destroyed or when another attach_store replaces it (including
  /// nullptr) — its sender captures this runtime and has no safe
  /// concurrent swap — so detaching ends the store's transfer service,
  /// while its local put/get API stays usable.
  void attach_store(store::StoreManager* store);

  void start_pilot(const std::string& pilot_id,
                   const core::PilotDescription& description,
                   core::PilotRuntimeCallbacks callbacks) override;
  void cancel_pilot(const std::string& pilot_id) override;
  /// Throws pa::NotFound for a pilot this runtime does not know.
  void execute_unit(const std::string& pilot_id,
                    const core::ComputeUnitDescription& description,
                    const std::string& unit_id,
                    std::function<void(bool)> on_done) override;
  /// One lock hold registers every completion and one kUnitBatch message
  /// carries every unit to the dispatch flusher. The launches of a pilot
  /// this runtime no longer knows are dropped: its termination, already
  /// posted to the service, requeues them.
  void execute_units(const std::string& pilot_id,
                     std::vector<core::UnitLaunch> launches) override;
  bool batches_launches() const override { return true; }
  double now() const override;
  void drive_until(const std::function<bool()>& predicate,
                   double timeout_seconds) override;

 private:
  struct PilotEntry {
    core::PilotDescription description;
    core::PilotRuntimeCallbacks callbacks;
    net::ConnectionPtr conn;  ///< null until the agent's kHello
    double last_alive = 0.0;  ///< runtime-clock time of last sign of life
    std::uint64_t hello_count = 0;  ///< re-hellos = agent reconnects
    std::uint64_t seq = 0;
    /// The agent's published peer-listener address from its kHello ("" when
    /// its listener failed to bind); handed to the store so grants can name
    /// this pilot as a transfer source.
    std::string peer_endpoint;
    /// Max units per kUnitBatch frame; halves on transport reject so
    /// oversized frames shrink until they fit (a pass is then split
    /// across frames), doubles on success up to the flusher's max_batch.
    std::size_t flush_cap = 0;
    std::map<std::string, std::function<void(bool)>> inflight;
  };

  /// Pre-resolved instrument handles of the net.* series the manager
  /// records (all null without a registry), so no message path looks a
  /// series up by name.
  struct Instruments {
    obs::Counter* units_done = nullptr;
    obs::Counter* send_rejected = nullptr;
    obs::Counter* heartbeat_deaths = nullptr;
    obs::Histogram* heartbeat_rtt = nullptr;
    obs::Gauge* bytes_in = nullptr;
    obs::Gauge* bytes_out = nullptr;
    obs::Gauge* send_queue_hwm = nullptr;
    obs::Gauge* reconnects = nullptr;
    obs::Gauge* dispatch_inflight = nullptr;
    obs::Gauge* dispatch_pending = nullptr;
  };
  static Instruments resolve_instruments(obs::MetricsRegistry* metrics);

  /// Registers the launches' completions and queues one kUnitBatch
  /// message for them; false (nothing queued) when the pilot is unknown.
  bool launch(const std::string& pilot_id,
              std::vector<core::UnitLaunch>& launches);
  void handle_message(const std::weak_ptr<net::Connection>& from,
                      const std::string& payload);
  void heartbeat_loop();
  bool send_on(const net::ConnectionPtr& conn, net::Message message);
  /// Dispatch sink: merges the queued kUnitBatch messages into one run of
  /// units per pilot and gathers each run into the agent's connection in
  /// frames of at most flush_cap units. Returns what could not ship yet
  /// (no connection, transport reject) as one message per pilot, for
  /// retry; a rejected frame shrinks flush_cap, so the retry splits the
  /// run finer. The service binds at most the agent's announced queue
  /// capacity to a pilot, so everything queued for it fits the agent.
  std::vector<net::Message> dispatch(std::vector<net::Message> batch,
                                     net::FlushReason reason);

  RemoteRuntimeConfig config_;
  const Instruments metrics_;
  net::Transport& transport_;
  std::string endpoint_;
  /// Attached data plane (null = no store). Atomic because delivery and
  /// heartbeat threads read it while the owner may attach late; writes
  /// happen before pilots exist in practice.
  std::atomic<store::StoreManager*> store_{nullptr};
  std::shared_ptr<PayloadTable> payloads_ = std::make_shared<PayloadTable>();
  double epoch_;

  /// Rank kNetRuntime (14): sits between the control-plane ranks (10/12)
  /// and the transport/connection/payload locks (15/16/18) the send path
  /// takes. NEVER held while invoking service callbacks or
  /// Connection::close() — copy under the lock, release, then call out.
  /// The service calls execute_units from its apply thread with no lock
  /// held; callbacks post commands.
  mutable check::Mutex mutex_{check::LockRank::kNetRuntime,
                              "rt::RemoteRuntime"};
  check::CondVar cv_;
  std::map<std::string, std::shared_ptr<PilotEntry>> pilots_
      PA_GUARDED_BY(mutex_);
  /// Connections of terminated pilots, closed by the heartbeat thread
  /// (handlers may not close their own connection).
  std::vector<net::ConnectionPtr> zombies_ PA_GUARDED_BY(mutex_);
  /// Accepted connections awaiting their kHello (not yet mapped to a
  /// pilot); severed at shutdown so their handlers cannot outlive us.
  std::vector<std::weak_ptr<net::Connection>> pending_ PA_GUARDED_BY(mutex_);
  bool stopping_ PA_GUARDED_BY(mutex_) = false;

  std::string arena_;  ///< dispatch-flusher-thread-only encode buffer

  std::thread heartbeat_;
  /// Unit-dispatch flusher; closed (final flush) in the destructor before
  /// connections are torn down. Declared last so its thread never
  /// outlives the state the sink touches.
  std::unique_ptr<net::BatchFlusher> dispatch_;
};

}  // namespace pa::rt
