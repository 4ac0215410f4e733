#pragma once
/// \file message.h
/// \brief The pilot wire protocol: typed messages exchanged between the
/// Pilot-Manager (rt::RemoteRuntime) and Pilot-Agent endpoints.
///
/// The P* model (paper Sec. IV-A, ref [6]) defines the manager and agents
/// as distinct components joined by an explicit coordination channel; this
/// header is that channel's vocabulary. Every message payload starts with
/// the header
///
///     u8 version | u8 type | u16 reserved | u64 seq | str pilot_id
///
/// followed by a type-specific body using the same compact primitives as
/// the journal codec (fixed-width little-endian integers, u32
/// length-prefixed strings and lists). `seq` is assigned per connection
/// by the sender, strictly increasing, so receivers can spot reordering
/// or loss across a reconnect.
///
/// There is one protocol version, kProtocolVersion: manager and agents
/// are built from one tree. A frame whose header names any other version
/// is rejected with a pa::Error naming both, so a mismatched peer fails
/// loudly on its first kHello instead of misreading bodies.
///
/// Message flow:
///
///     manager ◀──kHello─────── agent      (pilot id + peer dial address)
///     manager ──kStartPilot──▶ agent      (description + token-MAC key)
///     manager ◀─kPilotActive── agent      (allocation up: cores, site and
///                                          the most units the agent holds)
///     manager ──kUnitBatch───▶ agent      (units; the agent late-binds
///                                          them to cores)
///     manager ◀kUnitDoneBatch─ agent      (completions)
///     manager ──kHeartbeat───▶ agent
///     manager ◀─kHeartbeatAck─ agent      (echoes the probe timestamp)
///     manager ──kShutdown────▶ agent      (cancel / drain)
///     manager ◀kPilotTerminated agent     (walltime end, agent failure)
///
/// One unit is a batch of one: senders queue one-unit batches and merge
/// each queued run into one frame, amortizing the P* coordination cost
/// across units (after RADICAL-Pilot's bulk dispatch).
///
/// The data plane (pa::store, Pilot-Data as a first-class citizen) moves
/// content-addressed objects as chunked frames, so a large stage-in never
/// head-of-line-blocks heartbeats on the same connection. The star path
/// relays chunks through the manager:
///
///     manager ──kObjPut────▶ agent    (one chunk; agent assembles, CRC-
///                                      verifies, stores in its shard)
///     manager ◀─kObjLocate── agent    (replica announce / NACK / evict)
///     manager ──kObjGet────▶ agent    (request an object by id)
///     manager ◀──kObjChunk── agent    (one chunk back; chunk_count = 0
///                                      means the shard no longer holds it)
///
/// The peer path keeps the manager as the placement/directory authority
/// but stops it relaying chunks. Instead it mints signed, expiring
/// transfer tokens and agents move the bytes over a peer channel (each
/// agent publishes a dial address in its kHello):
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
/// must be rejected. The star path is the last rung of the fallback
/// ladder: a pilot whose agent published no peer endpoint (its listener
/// failed to bind) is only ever served by the star.

#include <cstdint>
#include <string>
#include <vector>

#include "pa/core/types.h"

namespace pa::net {

/// The protocol version: the first header byte of every frame. Bump on
/// any change to the header or to a body layout.
inline constexpr std::uint8_t kProtocolVersion = 4;

// --- the wire schema ---------------------------------------------------------
//
// One row per message type: X(enumerator, wire value, name, fields), where
// `fields` is a field-list macro F(member)... naming the Message members the
// type carries, in wire order after the header. MessageType, to_string,
// encode_message_into, decode_message and the codec tests all expand from
// this one table, so encode and decode agree by construction; each member's
// C++ type selects its wire primitive (src/net/message.cpp). Wire values are
// append-only. 5 and 6 (the retired single-unit dispatch and completion)
// stay unassigned and decode as unknown types.

#define PA_NET_NO_FIELDS(F)
#define PA_NET_HELLO_FIELDS(F) F(peer_endpoint)
#define PA_NET_START_PILOT_FIELDS(F)                                        \
  F(resource_url) F(nodes) F(walltime) F(priority) F(cost_per_core_hour)    \
  F(pilot_attributes) F(token_key)
#define PA_NET_PILOT_ACTIVE_FIELDS(F) F(total_cores) F(capacity) F(site)
#define PA_NET_PILOT_TERMINATED_FIELDS(F) F(pilot_state)
#define PA_NET_HEARTBEAT_FIELDS(F) F(timestamp)
#define PA_NET_UNIT_BATCH_FIELDS(F) F(units)
#define PA_NET_UNIT_DONE_BATCH_FIELDS(F) F(completions)
#define PA_NET_CHUNK_FIELDS(F)                                              \
  F(object_id) F(transfer_id) F(chunk_index) F(chunk_count) F(object_bytes) \
  F(chunk_crc) F(chunk_data)
#define PA_NET_OBJ_GET_FIELDS(F) F(object_id) F(transfer_id)
#define PA_NET_OBJ_LOCATE_FIELDS(F) \
  F(object_id) F(object_bytes) F(success) F(sites)
#define PA_NET_PEER_OFFER_FIELDS(F)                                         \
  F(object_id) F(transfer_id) F(object_bytes) F(source_pilot) F(dest_pilot) \
  F(chunk_begin) F(chunk_end) F(deadline) F(nonce) F(mac)
#define PA_NET_XFER_TOKEN_FIELDS(F) \
  PA_NET_PEER_OFFER_FIELDS(F) F(peer_endpoint) F(success)
#define PA_NET_PEER_DONE_FIELDS(F) \
  F(object_id) F(transfer_id) F(nonce) F(object_bytes) F(success)

#define PA_NET_MESSAGE_TYPES(X)                                              \
  X(kHello, 1, "hello", PA_NET_HELLO_FIELDS)                                 \
  X(kStartPilot, 2, "start_pilot", PA_NET_START_PILOT_FIELDS)                \
  X(kPilotActive, 3, "pilot_active", PA_NET_PILOT_ACTIVE_FIELDS)             \
  X(kPilotTerminated, 4, "pilot_terminated", PA_NET_PILOT_TERMINATED_FIELDS) \
  X(kHeartbeat, 7, "heartbeat", PA_NET_HEARTBEAT_FIELDS)                     \
  X(kHeartbeatAck, 8, "heartbeat_ack", PA_NET_HEARTBEAT_FIELDS)              \
  X(kShutdown, 9, "shutdown", PA_NET_NO_FIELDS)                              \
  X(kUnitBatch, 10, "unit_batch", PA_NET_UNIT_BATCH_FIELDS)                  \
  X(kUnitDoneBatch, 11, "unit_done_batch", PA_NET_UNIT_DONE_BATCH_FIELDS)    \
  X(kObjPut, 12, "obj_put", PA_NET_CHUNK_FIELDS)                             \
  X(kObjGet, 13, "obj_get", PA_NET_OBJ_GET_FIELDS)                           \
  X(kObjChunk, 14, "obj_chunk", PA_NET_CHUNK_FIELDS)                         \
  X(kObjLocate, 15, "obj_locate", PA_NET_OBJ_LOCATE_FIELDS)                  \
  X(kXferToken, 16, "xfer_token", PA_NET_XFER_TOKEN_FIELDS)                  \
  X(kPeerOffer, 17, "peer_offer", PA_NET_PEER_OFFER_FIELDS)                  \
  X(kPeerChunk, 18, "peer_chunk", PA_NET_CHUNK_FIELDS)                       \
  X(kPeerDone, 19, "peer_done", PA_NET_PEER_DONE_FIELDS)

/// Wire bodies of the two batch entry types, in wire order.
#define PA_NET_WIRE_UNIT_FIELDS(F)                                    \
  F(unit_id) F(name) F(cores) F(duration) F(input_data) F(output_data) \
  F(attributes) F(has_work)
#define PA_NET_WIRE_UNIT_DONE_FIELDS(F) F(unit_id) F(success) F(timestamp)

/// Values are the stable wire identifiers of PA_NET_MESSAGE_TYPES.
enum class MessageType : std::uint8_t {
#define PA_NET_ENUMERATOR(name, value, str, fields) name = value,
  PA_NET_MESSAGE_TYPES(PA_NET_ENUMERATOR)
#undef PA_NET_ENUMERATOR
};

/// The schema name of a type ("unit_batch"); "unknown" for other values.
const char* to_string(MessageType t);

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
/// fields the active `type`'s schema row names are encoded on the wire,
/// the rest stay default-initialized (and are ignored by operator== via
/// the codec round-trip tests, which compare decoded against freshly-made
/// values). Every field below the header is named by at least one row.
struct Message {
  MessageType type = MessageType::kHeartbeat;
  std::uint64_t seq = 0;
  std::string pilot_id;

  // kStartPilot
  std::string resource_url;
  std::int32_t nodes = 0;
  double walltime = 0.0;
  std::int32_t priority = 0;
  double cost_per_core_hour = 0.0;
  std::string pilot_attributes;  ///< pa::Config::to_string round-trip

  // kPilotActive. `capacity` is the most units the agent holds, waiting
  // and running (queue_factor × cores): the manager reports it to the service as the
  // pilot's size, so the service never has more units in flight on the
  // pilot than the agent can hold.
  std::int32_t total_cores = 0;
  std::int32_t capacity = 0;
  std::string site;

  // kPilotTerminated
  core::PilotState pilot_state = core::PilotState::kNew;

  // kHeartbeat / kHeartbeatAck
  double timestamp = 0.0;

  // kUnitBatch
  std::vector<WireUnitDescription> units;

  // kUnitDoneBatch
  std::vector<WireUnitDone> completions;

  // kObjLocate / kXferToken / kPeerDone: the outcome flag (see below).
  bool success = false;

  // kObjPut / kObjChunk / kPeerChunk: one chunk of a content-addressed
  // object. `transfer_id` correlates every chunk of one transfer (and the kObjGet
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

  // kHello: the dial address of the agent's peer listener, empty when
  // the listener failed to bind (the pilot is then served by the star
  // only). Also rides in a kXferToken grant as the *source's* address.
  std::string peer_endpoint;

  // kStartPilot: the fleet's shared token-MAC secret, handed to each
  // agent once so sources can validate grants offline.
  std::string token_key;

  // kXferToken / kPeerOffer: the signed transfer grant. The token
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
/// framed messages in place. Throws pa::Error when `message.type` is not
/// a schema type.
void encode_message_into(std::string& out, const Message& message);

/// Parses a message body; throws pa::Error on malformed input, unknown
/// type, or a header version other than kProtocolVersion.
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
