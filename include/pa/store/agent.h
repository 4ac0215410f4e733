#pragma once
/// \file agent.h
/// \brief StoreAgent: the agent-side half of the data plane — a Shard
/// plus the wire glue that assembles inbound kObjPut streams, serves
/// outbound kObjGet requests, and runs both ends of token-brokered
/// peer-to-peer transfers.
///
/// Owned by rt::AgentEndpoint, which routes kObjPut/kObjGet into
/// `handle()` and enqueues whatever messages it returns on the agent
/// outbox (the same BatchFlusher that carries completions, so chunk
/// replies get the buffered-retry discipline for free); peer frames
/// arriving on agent-to-agent connections route into `handle_peer()`.
/// StoreAgent never touches a connection itself — transport access stays
/// behind pa::net::Transport, per the socket-confinement lint.
///
/// Protocol behavior (manager star):
///   * kObjPut  — chunks are assembled per transfer_id; when the last
///     chunk lands, the object is CRC- and hash-verified and stored.
///     Success answers kObjLocate{success=true} (the manager's directory
///     entry + ensure trigger); verification failure answers
///     kObjLocate{success=false} so the manager fails fast instead of
///     waiting on an announce that never comes.
///   * kObjGet  — the object is read CRC-verified from the shard and
///     streamed back as kObjChunk frames; a miss (evicted, corrupt,
///     never held) answers a single kObjChunk{chunk_count=0}.
///   * eviction — objects the shard dropped without a spill copy are
///     announced as kObjLocate{success=false} piggybacked on the reply
///     batch, keeping the manager's directory honest.
///
/// Peer flows: the manager mints a signed TransferToken and sends
/// it to the *destination* (kXferToken). begin_peer_pull() records the
/// expected transfer and produces the kPeerOffer the destination
/// presents to the source over a direct connection. The source validates
/// the token — MAC, named source/dest, deadline, single-use nonce — and
/// streams kPeerChunk frames (chunk_at, so serving a peer never evicts
/// its own working set); any rejection is one kPeerChunk{chunk_count=0}.
/// The destination assembles, stores, and reports kPeerDone to the
/// *manager*, which alone updates the directory. Revoked nonces
/// (kXferToken{success=false}) join the used-nonce ledger so a token the
/// manager gave up on can never be replayed.
///
/// Locking: one mutex (LockRank::kStoreAgent) guards the assembly maps
/// and token ledgers only; the shard has its own chunk-map lock (42) and
/// replies are returned to the caller for sending, so rank 17 never
/// reaches the flusher (13) or a connection (16).

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "pa/check/mutex.h"
#include "pa/net/message.h"
#include "pa/store/shard.h"
#include "pa/store/token.h"

namespace pa::store {

struct StoreAgentConfig {
  ShardConfig shard;
};

/// Token-validation counters kept by the source side of peer transfers.
struct TokenCheckStats {
  std::uint64_t validated = 0;
  std::uint64_t rejected_mac = 0;      ///< bad signature / wrong fleet key
  std::uint64_t rejected_dest = 0;     ///< presented by the wrong pilot
  std::uint64_t rejected_expired = 0;  ///< deadline passed
  std::uint64_t rejected_replayed = 0;  ///< nonce already used or revoked
};

/// Replies produced by one peer-channel frame, split by where they go.
struct PeerResult {
  std::vector<net::Message> to_peer;     ///< back on the peer connection
  std::vector<net::Message> to_manager;  ///< onto the agent outbox
};

class StoreAgent {
 public:
  explicit StoreAgent(StoreAgentConfig config = {});

  StoreAgent(const StoreAgent&) = delete;
  StoreAgent& operator=(const StoreAgent&) = delete;

  /// Identity used to check tokens name *this* pilot; set once by
  /// AgentEndpoint before any traffic.
  void set_identity(const std::string& pilot_id);

  /// Fleet token key, delivered by kStartPilot. Tokens never
  /// validate while the key is unset.
  void set_token_key(const std::string& key);

  /// Handles one manager->agent object message; returns the replies to
  /// enqueue on the agent outbox (never sends itself). Non-object
  /// messages return empty.
  std::vector<net::Message> handle(const net::Message& m);

  /// Destination side of a grant: records the expected transfer named by
  /// a kXferToken and returns the kPeerOffer to present to the source.
  /// nullopt when the token names a different destination.
  std::optional<net::Message> begin_peer_pull(const net::Message& token);

  /// Forgets an expected pull whose source could not be reached; the
  /// caller reports kPeerDone{success=false} itself.
  void abandon_peer_pull(std::uint64_t transfer_id);

  /// Both directions of the peer channel: kPeerOffer at the source
  /// (validate token, stream kPeerChunk), kPeerChunk at the destination
  /// (assemble, store, report kPeerDone). `presenter` is the pilot id
  /// stamped on the inbound frame.
  PeerResult handle_peer(const net::Message& m, const std::string& presenter);

  /// Manager revocation notice: the nonce joins the replay ledger.
  void revoke_token(std::uint64_t nonce);

  TokenCheckStats token_stats() const;

  Shard& shard() { return shard_; }

 private:
  struct Assembly {
    std::string object_id;
    std::vector<Chunk> chunks;
    std::vector<bool> got;
    std::uint32_t expected = 0;
    std::uint32_t received = 0;
    std::uint64_t total = 0;
  };
  /// Destination-side record of one granted transfer.
  struct PeerPull {
    TransferToken token;
    Assembly assembly;
  };

  std::vector<net::Message> handle_put(const net::Message& m);
  std::vector<net::Message> handle_get(const net::Message& m);
  PeerResult serve_peer_offer(const net::Message& m,
                              const std::string& presenter);
  PeerResult accept_peer_chunk(const net::Message& m);
  static net::Message make_locate(const std::string& object_id,
                                  std::uint64_t bytes, bool success);
  static net::Message make_peer_nack(const net::Message& m);
  static net::Message make_peer_done(const TransferToken& token,
                                     std::uint64_t bytes, bool success);

  mutable check::Mutex mutex_{check::LockRank::kStoreAgent,
                              "store::StoreAgent"};
  std::map<std::uint64_t, Assembly> assemblies_ PA_GUARDED_BY(mutex_);
  std::map<std::uint64_t, PeerPull> peer_pulls_ PA_GUARDED_BY(mutex_);
  std::set<std::uint64_t> used_nonces_ PA_GUARDED_BY(mutex_);
  std::set<std::uint64_t> revoked_nonces_ PA_GUARDED_BY(mutex_);
  std::string pilot_id_ PA_GUARDED_BY(mutex_);
  std::string token_key_ PA_GUARDED_BY(mutex_);
  TokenCheckStats token_stats_ PA_GUARDED_BY(mutex_);
  Shard shard_;
};

}  // namespace pa::store
