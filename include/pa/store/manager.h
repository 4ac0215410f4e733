#pragma once
/// \file manager.h
/// \brief StoreManager: the manager-side brain of the distributed object
/// store — origin shard, replica directory, transfer brokering,
/// replication repair.
///
/// Control stays a star — agents only ever dial the manager for
/// placement — but data no longer has to: when both sides of a transfer
/// published peer dial addresses, the manager *brokers* instead of
/// relaying. It mints a signed, expiring TransferToken naming
/// (object, source, dest, chunk range, deadline, nonce) and sends it to
/// the destination; the destination dials the source directly, presents
/// the token, and the chunks flow agent-to-agent. The manager stays the
/// sole placement/directory authority — it learns the outcome from the
/// destination's kPeerDone ack and only then flips the directory entry —
/// but its own link carries tokens, not bytes (breaking the P* star
/// bottleneck). Grants are paced by a per-source inflight budget; when
/// every eligible source is saturated the grant queues until a kPeerDone
/// frees a slot.
///
/// Fallback ladder: no eligible peer source (or peer_transfers off, or no
/// dial address at the destination) → the classic star flows below; a
/// failed/expired/orphaned grant retries the next untried source, then
/// falls back to the star.
///
/// Star flows (wire vocabulary in net/message.h):
///   push  — manager streams kObjPut chunks (pulled lazily from the
///           origin shard by the TransferScheduler, never materialized
///           whole); the agent assembles, CRC-verifies, stores, and
///           answers kObjLocate (the announce that flips the directory
///           entry and fires waiting ensures).
///   pull  — manager sends kObjGet; the source agent streams kObjChunk
///           frames back (chunk_count = 0 means it no longer holds the
///           object: the directory entry is dropped and the next source
///           is tried). Completed pulls land in the origin shard, then
///           feed any pushes that were waiting on the bytes.
///
/// Locking: one mutex at LockRank::kStoreDirectory (11) — deliberately
/// *below* the control-plane queue (12), the flusher (13), the
/// scheduler's stream table (19), and the runtime/connection path
/// (14/16), so the manager may post commands, queue pump work, and send
/// while holding it. `done` callbacks are always invoked with the lock
/// released (they typically post stage-in barrier commands).

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "pa/check/mutex.h"
#include "pa/net/message.h"
#include "pa/obs/metrics.h"
#include "pa/store/directory.h"
#include "pa/store/shard.h"
#include "pa/store/token.h"
#include "pa/store/transfer.h"

namespace pa::store {

struct StoreManagerConfig {
  /// Origin shard (application puts + pull cache). Give it a spill_dir in
  /// deployments that must survive agent churn: a spilled origin copy is
  /// what makes re-replication after a sole-replica death possible.
  ShardConfig origin;
  /// Agent-side replicas maintained per object. 0 disables repair;
  /// ensure_on still places on demand.
  int replica_target = 0;
  /// Site name reported for origin-resident bytes (replica_sites).
  std::string origin_site = "origin";
  TransferSchedulerConfig transfer;
  /// Broker agent-to-agent transfers when both sides published dial
  /// addresses; false forces every transfer through the manager star
  /// (the E17 baseline).
  bool peer_transfers = true;
  /// Shared secret MACing transfer tokens; distributed to agents in
  /// kStartPilot, so a token is only honored inside one fleet.
  std::string token_key = "pa-store-fleet-key";
  /// Token lifetime; a grant not acked by kPeerDone within this window
  /// is expired by tick(), revoked at its source, and retried.
  double token_ttl_seconds = 30.0;
  /// Max simultaneous grants served by one source pilot; excess grants
  /// queue until a completion frees a slot (per-link pacing).
  int max_inflight_per_source = 4;
  /// Objects smaller than this ride the star even when a peer source
  /// exists: the brokered path costs a four-hop handshake (token, offer,
  /// chunk stream, settlement) that only amortizes over bulk data, while
  /// the star moves a small object in a single pushed frame. 0 brokers
  /// everything (tests exercising the grant machinery on tiny fixtures).
  std::uint64_t peer_min_object_bytes = 64 * 1024;
  /// Optional store.* instrumentation; must outlive the manager.
  obs::MetricsRegistry* metrics = nullptr;
};

/// Monotonic transfer/bookkeeping counters (also exported as store.*
/// metrics when a registry is attached).
struct StoreManagerStats {
  std::uint64_t puts = 0;
  std::uint64_t pushes = 0;       ///< object pushes queued
  std::uint64_t push_bytes = 0;   ///< payload bytes queued for push
  std::uint64_t pulls = 0;        ///< pulls completed into the origin
  std::uint64_t pull_bytes = 0;
  std::uint64_t ensure_hits = 0;  ///< ensures satisfied from the directory
  std::uint64_t ensure_misses = 0;  ///< ensures that required a transfer
  std::uint64_t ensure_failures = 0;
  std::uint64_t repairs = 0;  ///< re-replications after replica loss
  std::uint64_t pull_retries = 0;
  std::uint64_t tokens_minted = 0;   ///< peer-transfer grants issued
  std::uint64_t tokens_validated = 0;  ///< grants acked successful
  std::uint64_t tokens_expired = 0;  ///< grants that outlived their TTL
  std::uint64_t tokens_revoked = 0;  ///< revocation notices sent
  std::uint64_t peer_transfers = 0;  ///< objects moved agent-to-agent
  std::uint64_t peer_bytes = 0;      ///< bytes moved agent-to-agent
  std::uint64_t peer_fallbacks = 0;  ///< grants that fell back to the star
};

class StoreManager {
 public:
  explicit StoreManager(StoreManagerConfig config = {});
  ~StoreManager();

  StoreManager(const StoreManager&) = delete;
  StoreManager& operator=(const StoreManager&) = delete;

  /// Wires the egress path; called by rt::RemoteRuntime::attach_store.
  void attach_sender(ObjSender sender);

  /// Fails every waiting ensure and stops the transfer pump.
  void close();

  // --- data API --------------------------------------------------------

  /// Stores bytes in the origin shard; returns the content-addressed
  /// object id (the value unit descriptions reference in input_data).
  std::string put(std::string bytes);

  /// Streaming variant: registers an object a StreamWriter already wrote
  /// into the origin shard (chunk-by-chunk, never materialized whole).
  /// Returns the object id, or "" when the stream failed to store.
  std::string put_streamed(const PutResult& res);

  /// Origin-local CRC-verified read.
  std::optional<std::string> get(const std::string& object_id);

  bool known(const std::string& object_id) const;
  std::uint64_t object_bytes(const std::string& object_id) const;

  // --- membership (driven by the runtime) ------------------------------

  /// Every agent hosts a shard. `peer_endpoint` is the agent's published
  /// peer dial address ("" when its listener failed to bind — the pilot
  /// then never joins peer grants and is served by the star).
  void pilot_active(const std::string& pilot_id, const std::string& site,
                    const std::string& peer_endpoint = std::string());

  /// Drops the pilot's replicas, fails its waiting ensures, reroutes
  /// pulls sourced from it, requeues its peer grants (source death moves
  /// the grant to another replica exactly once; dest death revokes the
  /// token at its source), and repairs every object that fell below the
  /// replica target — the data-plane half of heartbeat death.
  void pilot_lost(const std::string& pilot_id);

  /// Expires peer grants whose token deadline passed: the token is
  /// revoked at its source and the transfer retried (next source, then
  /// star). Driven by the runtime's heartbeat loop.
  void tick(double now_seconds);

  // --- transfers -------------------------------------------------------

  /// Ensures `pilot_id`'s shard holds `object_id`; `done(true)` fires
  /// once the agent announces it (immediately when the directory already
  /// shows it), `done(false)` on unknown object/pilot, store NACK, or
  /// pilot death. Concurrent ensures for the same (pilot, object)
  /// coalesce into one transfer.
  void ensure_on(const std::string& pilot_id, const std::string& object_id,
                 std::function<void(bool)> done);

  /// Fire-and-forget ensure for every *known* object id in the list —
  /// the unit-assignment prefetch hook (unknown ids are skipped: unit
  /// input_data may reference data units the store does not manage).
  void prefetch(const std::string& pilot_id,
                const std::vector<std::string>& object_ids);

  /// Starts transfers until `object_id` has `config.replica_target`
  /// agent-side replicas (fire-and-forget; poll replica_pilots).
  void replicate(const std::string& object_id);

  // --- wire ingress (forwarded by rt::RemoteRuntime) -------------------

  /// Handles kObjLocate / kObjChunk / kPeerDone from `pilot_id`. Safe to
  /// call from delivery threads; never invokes `done` callbacks under
  /// the lock.
  void on_agent_message(const std::string& pilot_id, const net::Message& m);

  // --- live replica map ------------------------------------------------

  std::vector<std::string> replica_sites(const std::string& object_id) const;
  std::vector<std::string> replica_pilots(const std::string& object_id) const;
  double bytes_at_site(const std::string& object_id,
                       const std::string& site) const;
  /// Pilot to stage through for `site`: a holder of `object_id` at the
  /// site when one exists, else any pilot there ("" when the site has
  /// none).
  std::string pick_pilot_for(const std::string& object_id,
                             const std::string& site) const;
  /// Declares a replica at `site` (unit output registration).
  void record_output(const std::string& object_id, const std::string& site);

  Shard& origin() { return origin_; }
  const StoreManagerConfig& config() const { return config_; }
  StoreManagerStats stats() const;
  const TransferScheduler& transfers() const { return xfer_; }
  /// Peer grants currently in flight / waiting on a source slot.
  std::size_t active_grants() const;
  std::size_t queued_grants() const;

 private:
  struct PilotInfo {
    std::string site;
    std::string peer_endpoint;  ///< "" = cannot join peer transfers
  };
  struct Ensure {
    std::vector<std::function<void(bool)>> done;
    bool queued = false;  ///< a push or peer grant is already in flight
  };
  struct Pull {
    std::string object_id;
    std::string source;
    std::vector<Chunk> chunks;
    std::vector<bool> got;  ///< per-index arrival flags (dup detection)
    std::uint32_t expected = 0;
    std::uint32_t received = 0;
    std::uint64_t total = 0;
    std::set<std::string> tried;
  };
  /// One outstanding peer-transfer token, keyed by nonce.
  struct Grant {
    TransferToken token;
    std::set<std::string> tried;  ///< sources already attempted
  };
  /// A grant waiting for a source slot (every eligible source at its
  /// inflight budget when it was requested).
  struct QueuedGrant {
    std::string object_id;
    std::string dest;
    std::set<std::string> tried;
  };
  enum class GrantOutcome {
    kGranted,   ///< token minted and sent
    kQueued,    ///< sources saturated (queued, or caller should requeue)
    kNoSource,  ///< no eligible peer source — use the star
  };
  using Done = std::function<void(bool)>;
  using FireList = std::vector<std::pair<Done, bool>>;

  void ensure_on_locked(const std::string& pilot_id,
                        const std::string& object_id, Done done,
                        FireList& fire) PA_REQUIRES(mutex_);
  /// Returns false when the object is unobtainable (fail path fired and
  /// every pending ensure for it was erased).
  bool start_transfer_locked(const std::string& pilot_id,
                             const std::string& object_id, FireList& fire)
      PA_REQUIRES(mutex_);
  bool queue_push_locked(const std::string& pilot_id,
                         const std::string& object_id, FireList& fire)
      PA_REQUIRES(mutex_);
  bool start_pull_locked(const std::string& object_id, FireList& fire)
      PA_REQUIRES(mutex_);
  bool choose_source_locked(Pull& pull) PA_REQUIRES(mutex_);
  void fail_object_locked(const std::string& object_id, FireList& fire)
      PA_REQUIRES(mutex_);
  void repair_to_locked(const std::string& object_id, int target,
                        FireList& fire) PA_REQUIRES(mutex_);
  void collect_ensure_locked(const std::string& pilot_id,
                             const std::string& object_id, bool ok,
                             FireList& fire) PA_REQUIRES(mutex_);
  /// Mints (or queues) a peer-transfer token moving `object_id` to
  /// `dest` from an eligible source not in `tried`.
  GrantOutcome try_peer_grant_locked(const std::string& dest,
                                     const std::string& object_id,
                                     std::set<std::string> tried,
                                     bool allow_queue) PA_REQUIRES(mutex_);
  /// Retries a failed/expired/orphaned grant: next source, then star.
  void regrant_or_star_locked(const std::string& dest,
                              const std::string& object_id,
                              std::set<std::string> tried, FireList& fire)
      PA_REQUIRES(mutex_);
  void drain_grant_queue_locked(FireList& fire) PA_REQUIRES(mutex_);
  void release_source_locked(const std::string& pilot_id)
      PA_REQUIRES(mutex_);
  /// Tells `token.source_pilot` to forget the nonce (kXferToken with
  /// success=false): replay protection for tokens the manager gave up on.
  void revoke_at_source_locked(const TransferToken& token)
      PA_REQUIRES(mutex_);
  /// Drops the origin copy (memory + spill file) of an object the
  /// directory no longer tracks, so fully evicted objects never leave
  /// orphaned PASP chunk files behind.
  void gc_origin_locked(const std::string& object_id) PA_REQUIRES(mutex_);
  void update_gauges_locked() PA_REQUIRES(mutex_);
  static void fire(FireList& fire);

  const StoreManagerConfig config_;
  Shard origin_;
  TransferScheduler xfer_;

  mutable check::Mutex mutex_{check::LockRank::kStoreDirectory,
                              "store::StoreManager"};
  ReplicaDirectory directory_ PA_GUARDED_BY(mutex_);
  std::map<std::string, PilotInfo> pilots_ PA_GUARDED_BY(mutex_);
  std::map<std::string, std::vector<std::string>> sites_ PA_GUARDED_BY(mutex_);
  std::map<std::pair<std::string, std::string>, Ensure> pending_
      PA_GUARDED_BY(mutex_);
  std::map<std::uint64_t, Pull> pulls_ PA_GUARDED_BY(mutex_);
  std::map<std::string, std::uint64_t> pull_by_object_ PA_GUARDED_BY(mutex_);
  std::map<std::uint64_t, Grant> grants_ PA_GUARDED_BY(mutex_);
  std::deque<QueuedGrant> grant_queue_ PA_GUARDED_BY(mutex_);
  std::map<std::string, int> inflight_by_source_ PA_GUARDED_BY(mutex_);
  std::uint64_t next_transfer_ PA_GUARDED_BY(mutex_) = 1;
  std::uint64_t next_nonce_ PA_GUARDED_BY(mutex_) = 1;
  bool closed_ PA_GUARDED_BY(mutex_) = false;
  StoreManagerStats stats_ PA_GUARDED_BY(mutex_);

  /// Pre-resolved store.* instrument handles (null when detached).
  struct MetricsHandles {
    obs::Counter* puts = nullptr;
    obs::Counter* pushes = nullptr;
    obs::Counter* push_bytes = nullptr;
    obs::Counter* pulls = nullptr;
    obs::Counter* pull_bytes = nullptr;
    obs::Counter* ensure_hits = nullptr;
    obs::Counter* ensure_misses = nullptr;
    obs::Counter* ensure_failures = nullptr;
    obs::Counter* repairs = nullptr;
    obs::Counter* tokens_minted = nullptr;
    obs::Counter* tokens_validated = nullptr;
    obs::Counter* tokens_expired = nullptr;
    obs::Counter* tokens_revoked = nullptr;
    obs::Counter* peer_transfers = nullptr;
    obs::Counter* peer_bytes = nullptr;
    obs::Counter* peer_fallbacks = nullptr;
    obs::Gauge* objects = nullptr;
    obs::Gauge* pending = nullptr;
  };
  const MetricsHandles metrics_;
  /// Lazily created per-pilot transfer gauges
  /// (store.<pilot>.inflight_transfers / .queued_transfers).
  struct PilotGauges {
    obs::Gauge* inflight = nullptr;
    obs::Gauge* queued = nullptr;
  };
  std::map<std::string, PilotGauges> pilot_gauges_ PA_GUARDED_BY(mutex_);
};

}  // namespace pa::store
