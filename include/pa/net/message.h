#pragma once
/// \file message.h
/// \brief The pilot wire protocol: typed messages exchanged between the
/// Pilot-Manager (rt::RemoteRuntime) and Pilot-Agent endpoints.
///
/// The P* model (paper Sec. IV-A, ref [6]) defines the manager and agents
/// as distinct components joined by an explicit coordination channel; this
/// header is that channel's vocabulary. Every message payload starts with
/// a versioned header
///
///     u8 version | u8 type | u16 reserved | u64 seq | str pilot_id
///
/// followed by a type-specific body using the same compact primitives as
/// the journal codec (fixed-width little-endian integers, u32
/// length-prefixed strings). `seq` is assigned per connection by the
/// sender, strictly increasing, so receivers can spot reordering or loss
/// across a reconnect.
///
/// Message flow:
///
///     manager ──kStartPilot──▶ agent      (after the agent's kHello)
///     manager ◀─kPilotActive── agent      (allocation up: cores, site and
///                                          the agent's unit-queue capacity)
///     manager ──kExecuteUnit─▶ agent
///     manager ◀──kUnitDone──── agent
///     manager ──kHeartbeat───▶ agent
///     manager ◀─kHeartbeatAck─ agent      (echoes the probe timestamp)
///     manager ──kShutdown────▶ agent      (cancel / drain)
///     manager ◀kPilotTerminated agent     (walltime end, agent failure)
///
/// Version 2 adds the bulk path (P* coordination cost amortized across
/// units, after RADICAL-Pilot's bulk dispatch):
///
///     manager ──kUnitBatch───▶ agent      (vector of units, agent
///                                          late-binds them to cores)
///     manager ◀kUnitDoneBatch─ agent      (vector of completions)
///
/// Negotiation: the agent's kHello carries the agent's newest version in
/// the header; both sides then speak min(own, peer). Batch types are only
/// legal at version >= 2 — encoding or decoding them at version 1 is a
/// clean pa::Error, never a decoder latch, so a v2 frame reaching a v1
/// peer produces a protocol-version rejection rather than stream corruption.
///
/// Version 3 adds the data plane (pa::store, Pilot-Data as a first-class
/// citizen): content-addressed objects travel as chunked frames so a large
/// stage-in never head-of-line-blocks heartbeats on the same connection.
///
///     manager ──kObjPut────▶ agent    (one chunk; agent assembles, CRC-
///                                      verifies, stores in its shard)
///     manager ◀─kObjLocate── agent    (replica announce / NACK / evict)
///     manager ──kObjGet────▶ agent    (request an object by id)
///     manager ◀──kObjChunk── agent    (one chunk back; chunk_count = 0
///                                      means the shard no longer holds it)
///
/// Object types are only legal at version >= 3, gated exactly like the
/// batch types.
///
/// Version 4 breaks the P* star for bulk data: the manager stays the
/// placement/directory authority but stops relaying chunks. Instead it
/// mints signed, expiring transfer tokens and agents move the bytes over
/// a peer channel (each agent publishes a dial address in its kHello):
///
///     manager ──kXferToken──▶ dest      (signed grant: object, source,
///                                        chunk range, deadline, nonce)
///     dest    ──kPeerOffer──▶ source    (presents the token on a direct
///                                        agent↔agent connection)
///     dest    ◀──kPeerChunk── source    (token-validated chunk stream;
///                                        chunk_count = 0 rejects)
///     manager ◀──kPeerDone─── dest      (ack drives the directory; a
///                                        failed ack requeues the grant)
///
/// A kXferToken with success = false is a revocation notice sent to the
/// *source*: the nonce is dead (expiry, dest death) and any replay of it
/// must be rejected. Peer types are only legal at version >= 4; a v3
/// fleet never sees them and its kHello stays byte-for-byte unchanged
/// (the dial address is appended only when the header says v4+).

#include <cstdint>
#include <string>
#include <vector>

#include "pa/core/types.h"

namespace pa::net {

/// Newest protocol version this build speaks. Bump on any change to the
/// header or on a new message type; receivers reject versions outside
/// [kMinProtocolVersion, kProtocolVersion].
inline constexpr std::uint8_t kProtocolVersion = 4;

/// Oldest version still decodable. Batch types arrived in 2, object
/// (store) types in 3, peer-transfer types in 4. Manager and agents are
/// always built from one tree, so a body layout is shared by every
/// version: kPilotActive carries the queue capacity at v1 as at v4.
inline constexpr std::uint8_t kMinProtocolVersion = 1;

/// Values are stable wire identifiers — append only.
enum class MessageType : std::uint8_t {
  kHello = 1,            ///< agent -> manager: announces pilot_id on connect
  kStartPilot = 2,       ///< manager -> agent: pilot description
  kPilotActive = 3,      ///< agent -> manager: allocation up (cores, capacity, site)
  kPilotTerminated = 4,  ///< agent -> manager: final pilot state
  kExecuteUnit = 5,      ///< manager -> agent: run a unit
  kUnitDone = 6,         ///< agent -> manager: unit completion
  kHeartbeat = 7,        ///< manager -> agent: liveness probe (timestamp)
  kHeartbeatAck = 8,     ///< agent -> manager: echo of the probe
  kShutdown = 9,         ///< manager -> agent: cancel pilot, close down
  kUnitBatch = 10,       ///< manager -> agent: bulk unit dispatch (v2+)
  kUnitDoneBatch = 11,   ///< agent -> manager: bulk completions (v2+)
  kObjPut = 12,          ///< manager -> agent: one object chunk to store (v3+)
  kObjGet = 13,          ///< manager -> agent: request an object (v3+)
  kObjChunk = 14,        ///< agent -> manager: one object chunk back (v3+)
  kObjLocate = 15,       ///< agent -> manager: replica announce/NACK (v3+)
  kXferToken = 16,       ///< manager -> agent: transfer grant / revoke (v4+)
  kPeerOffer = 17,       ///< dest -> source: present a token peer-to-peer (v4+)
  kPeerChunk = 18,       ///< source -> dest: token-validated chunk (v4+)
  kPeerDone = 19,        ///< dest -> manager: peer transfer outcome (v4+)
};

const char* to_string(MessageType t);

/// True for the v4 peer-transfer family (kXferToken, kPeerOffer,
/// kPeerChunk, kPeerDone); the codec refuses to encode or decode these
/// on streams that negotiated < 4, and senders use the same predicate to
/// gate what they enqueue for down-level peers.
bool is_peer_type(MessageType t);

/// Serializable subset of core::ComputeUnitDescription. The `work`
/// closure cannot cross a wire; agents resolve the payload by unit id
/// (rt::PayloadTable in loopback deployments, a named executable in real
/// ones) or burn CPU for `duration` when none resolves.
struct WireUnitDescription {
  std::string unit_id;
  std::string name;
  std::int32_t cores = 1;
  double duration = 1.0;
  std::vector<std::string> input_data;
  std::vector<std::string> output_data;
  std::string attributes;  ///< pa::Config::to_string round-trip
  bool has_work = false;   ///< manager registered a resolvable payload

  bool operator==(const WireUnitDescription&) const = default;
};

/// One completion inside a kUnitDoneBatch.
struct WireUnitDone {
  std::string unit_id;
  bool success = false;
  double timestamp = 0.0;

  bool operator==(const WireUnitDone&) const = default;
};

/// One protocol message. A flat struct rather than a variant: only the
/// fields of the active `type` are encoded on the wire, the rest stay
/// default-initialized (and are ignored by operator== via the codec
/// round-trip tests, which compare decoded against freshly-made values).
struct Message {
  MessageType type = MessageType::kHeartbeat;
  /// Header version to encode with / decoded from the header. Senders set
  /// this to the negotiated min(own, peer) version; batch types require
  /// version >= 2 at both encode and decode.
  std::uint8_t version = kProtocolVersion;
  std::uint64_t seq = 0;
  std::string pilot_id;

  // kStartPilot
  std::string resource_url;
  std::int32_t nodes = 0;
  double walltime = 0.0;
  std::int32_t priority = 0;
  double cost_per_core_hour = 0.0;
  std::string pilot_attributes;  ///< pa::Config::to_string round-trip

  // kPilotActive. `capacity` is the agent's unit-queue capacity
  // (queue_factor × cores): the manager reports it to the service as the
  // pilot's size, so the service never has more units in flight on the
  // pilot than the agent can hold.
  std::int32_t total_cores = 0;
  std::int32_t capacity = 0;
  std::string site;

  // kPilotTerminated
  core::PilotState pilot_state = core::PilotState::kNew;

  // kExecuteUnit
  WireUnitDescription unit;

  // kUnitDone
  std::string unit_id;
  bool success = false;

  // kHeartbeat / kHeartbeatAck
  double timestamp = 0.0;

  // kUnitBatch (v2+)
  std::vector<WireUnitDescription> units;

  // kUnitDoneBatch (v2+)
  std::vector<WireUnitDone> completions;

  // kObjPut / kObjChunk (v3+): one chunk of a content-addressed object.
  // `transfer_id` correlates every chunk of one transfer (and the kObjGet
  // that requested it); `chunk_count` in a kObjChunk of 0 is the
  // not-found reply. `chunk_crc` is the CRC32 of `chunk_data`, computed
  // at the source shard and verified end-to-end at the destination —
  // it rides *inside* the frame so it survives intact frames that carry
  // bytes corrupted at rest.
  // kObjGet carries object_id + transfer_id only; kObjLocate carries
  // object_id, object_bytes, `success` (false = NACK: store failed or the
  // shard evicted/dropped the object) and `sites` (holders known to the
  // sender; empty in agent announcements).
  std::string object_id;
  std::uint64_t transfer_id = 0;
  std::uint32_t chunk_index = 0;
  std::uint32_t chunk_count = 0;
  std::uint64_t object_bytes = 0;
  std::uint32_t chunk_crc = 0;
  std::string chunk_data;
  std::vector<std::string> sites;

  // kHello (v4+ only): the dial address of the agent's peer listener,
  // empty when the agent cannot serve peer transfers. Also rides in a
  // kXferToken grant as the *source's* dial address. v3 frames omit it.
  std::string peer_endpoint;

  // kStartPilot (v4+ only): the fleet's shared token-MAC secret, handed
  // to each agent once so sources can validate grants offline.
  std::string token_key;

  // kXferToken / kPeerOffer (v4+): the signed transfer grant. The token
  // covers {object_id, transfer_id, object_bytes, source_pilot,
  // dest_pilot, chunk_begin..chunk_end, deadline, nonce} under `mac`
  // (keyed FNV over the fleet secret). `deadline` is absolute wall
  // seconds; `nonce` is single-use. A kXferToken with success = false is
  // a revocation notice (nonce identifies the dead grant). kPeerDone
  // carries object_id, transfer_id, nonce, object_bytes and success.
  std::string source_pilot;
  std::string dest_pilot;
  std::uint32_t chunk_begin = 0;
  std::uint32_t chunk_end = 0;  ///< exclusive
  double deadline = 0.0;
  std::uint64_t nonce = 0;
  std::uint64_t mac = 0;

  bool operator==(const Message&) const = default;
};

/// Serializes the message body (header + type body, no frame).
std::string encode_message(const Message& message);

/// Appends the serialized body to `out` without clearing it — the
/// zero-copy arena path. Pair with wire.h begin_frame/end_frame to build
/// framed messages in place. Throws pa::Error when `message.version` is
/// outside the supported range or too old for the message type.
void encode_message_into(std::string& out, const Message& message);

/// Parses a message body; throws pa::Error on malformed input, unknown
/// type, or unsupported version.
Message decode_message(const char* data, std::size_t size);

/// Convenience: encode_message + append_frame (wire.h framing).
void append_message_frame(std::string& out, const Message& message);

// --- adapters to/from the core vocabulary -----------------------------------

/// kStartPilot from a pilot description (attributes flattened to text).
Message make_start_pilot(const std::string& pilot_id,
                         const core::PilotDescription& description);

/// Rebuilds the description a kStartPilot message carries.
core::PilotDescription to_pilot_description(const Message& message);

/// Serializable view of a unit description (drops the work closure;
/// `has_work` records whether the manager registered one).
WireUnitDescription to_wire_unit(const std::string& unit_id,
                                 const core::ComputeUnitDescription& d,
                                 bool has_work);

/// Rebuilds an executable description from the wire form (work unset —
/// the agent resolves it separately).
core::ComputeUnitDescription to_unit_description(const WireUnitDescription& w);

}  // namespace pa::net
