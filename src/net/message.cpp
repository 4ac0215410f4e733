#include "pa/net/message.h"

#include <cstring>

#include "pa/common/error.h"
#include "pa/net/wire.h"

namespace pa::net {

namespace {

// Same compact primitives as the journal codec (src/journal/record.cpp):
// fixed-width little-endian integers, u32 length-prefixed strings.

void put_u8(std::string& out, std::uint8_t v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof(v));
}

void put_u16(std::string& out, std::uint16_t v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof(v));
}

void put_u32(std::string& out, std::uint32_t v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof(v));
}

void put_u64(std::string& out, std::uint64_t v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof(v));
}

void put_i32(std::string& out, std::int32_t v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof(v));
}

void put_f64(std::string& out, double v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof(v));
}

void put_string(std::string& out, const std::string& s) {
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  out.append(s);
}

void put_string_list(std::string& out, const std::vector<std::string>& v) {
  put_u32(out, static_cast<std::uint32_t>(v.size()));
  for (const std::string& s : v) {
    put_string(out, s);
  }
}

/// Bounds-checked cursor over a message payload.
struct Cursor {
  const char* data;
  std::size_t size;
  std::size_t pos = 0;

  void need(std::size_t n) const {
    if (pos + n > size) {
      throw Error("net message truncated mid-payload");
    }
  }
  template <typename T>
  T take() {
    need(sizeof(T));
    T v;
    std::memcpy(&v, data + pos, sizeof(T));
    pos += sizeof(T);
    return v;
  }
  std::string take_string() {
    const auto n = take<std::uint32_t>();
    need(n);
    std::string s(data + pos, n);
    pos += n;
    return s;
  }
  std::vector<std::string> take_string_list() {
    const auto n = take<std::uint32_t>();
    // Each entry costs at least its 4-byte length prefix; reject counts
    // the remaining bytes cannot possibly satisfy before reserving.
    if (n > (size - pos) / sizeof(std::uint32_t)) {
      throw Error("net message string list count exceeds payload");
    }
    std::vector<std::string> v;
    v.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      v.push_back(take_string());
    }
    return v;
  }
};

void put_unit(std::string& out, const WireUnitDescription& u) {
  put_string(out, u.unit_id);
  put_string(out, u.name);
  put_i32(out, u.cores);
  put_f64(out, u.duration);
  put_string_list(out, u.input_data);
  put_string_list(out, u.output_data);
  put_string(out, u.attributes);
  put_u8(out, u.has_work ? 1 : 0);
}

WireUnitDescription take_unit(Cursor& c) {
  WireUnitDescription u;
  u.unit_id = c.take_string();
  u.name = c.take_string();
  u.cores = c.take<std::int32_t>();
  u.duration = c.take<double>();
  u.input_data = c.take_string_list();
  u.output_data = c.take_string_list();
  u.attributes = c.take_string();
  u.has_work = c.take<std::uint8_t>() != 0;
  return u;
}

// Smallest possible wire footprint of one entry, used to reject absurd
// batch counts before reserving: 4 strings/lists at 4 bytes of length
// prefix each + cores(4) + duration(8) + attributes prefix(4) + flag(1).
constexpr std::size_t kMinWireUnitBytes = 4 * 4 + 4 + 8 + 4 + 1;
constexpr std::size_t kMinWireUnitDoneBytes = 4 + 1 + 8;

/// Reads a batch count and rejects counts the remaining payload cannot
/// possibly satisfy (same guard as take_string_list, scaled to the
/// entry's minimum encoded size).
std::uint32_t take_batch_count(Cursor& c, std::size_t min_entry_bytes) {
  const auto n = c.take<std::uint32_t>();
  if (n > (c.size - c.pos) / min_entry_bytes) {
    throw Error("net message batch count exceeds payload");
  }
  return n;
}

bool is_batch_type(MessageType t) {
  return t == MessageType::kUnitBatch || t == MessageType::kUnitDoneBatch;
}

bool is_object_type(MessageType t) {
  return t == MessageType::kObjPut || t == MessageType::kObjGet ||
         t == MessageType::kObjChunk || t == MessageType::kObjLocate;
}

}  // namespace

bool is_peer_type(MessageType t) {
  return t == MessageType::kXferToken || t == MessageType::kPeerOffer ||
         t == MessageType::kPeerChunk || t == MessageType::kPeerDone;
}

const char* to_string(MessageType t) {
  switch (t) {
    case MessageType::kHello:
      return "hello";
    case MessageType::kStartPilot:
      return "start_pilot";
    case MessageType::kPilotActive:
      return "pilot_active";
    case MessageType::kPilotTerminated:
      return "pilot_terminated";
    case MessageType::kExecuteUnit:
      return "execute_unit";
    case MessageType::kUnitDone:
      return "unit_done";
    case MessageType::kHeartbeat:
      return "heartbeat";
    case MessageType::kHeartbeatAck:
      return "heartbeat_ack";
    case MessageType::kShutdown:
      return "shutdown";
    case MessageType::kUnitBatch:
      return "unit_batch";
    case MessageType::kUnitDoneBatch:
      return "unit_done_batch";
    case MessageType::kObjPut:
      return "obj_put";
    case MessageType::kObjGet:
      return "obj_get";
    case MessageType::kObjChunk:
      return "obj_chunk";
    case MessageType::kObjLocate:
      return "obj_locate";
    case MessageType::kXferToken:
      return "xfer_token";
    case MessageType::kPeerOffer:
      return "peer_offer";
    case MessageType::kPeerChunk:
      return "peer_chunk";
    case MessageType::kPeerDone:
      return "peer_done";
  }
  return "unknown";
}

std::string encode_message(const Message& m) {
  std::string out;
  encode_message_into(out, m);
  return out;
}

void encode_message_into(std::string& out, const Message& m) {
  if (m.version < kMinProtocolVersion || m.version > kProtocolVersion) {
    throw Error("net message encode at unsupported protocol version " +
                std::to_string(m.version));
  }
  if (is_batch_type(m.type) && m.version < 2) {
    throw Error("net message type " + std::string(to_string(m.type)) +
                " requires protocol version 2, peer negotiated " +
                std::to_string(m.version));
  }
  if (is_object_type(m.type) && m.version < 3) {
    throw Error("net message type " + std::string(to_string(m.type)) +
                " requires protocol version 3, peer negotiated " +
                std::to_string(m.version));
  }
  if (is_peer_type(m.type) && m.version < 4) {
    throw Error("net message type " + std::string(to_string(m.type)) +
                " requires protocol version 4, peer negotiated " +
                std::to_string(m.version));
  }
  put_u8(out, m.version);
  put_u8(out, static_cast<std::uint8_t>(m.type));
  put_u16(out, 0);  // reserved
  put_u64(out, m.seq);
  put_string(out, m.pilot_id);
  switch (m.type) {
    case MessageType::kHello:
      // v3 hellos stay header-only byte-for-byte; v4 appends the agent's
      // peer-listener dial address (empty = cannot serve peer transfers).
      if (m.version >= 4) {
        put_string(out, m.peer_endpoint);
      }
      break;
    case MessageType::kShutdown:
      break;  // header only
    case MessageType::kStartPilot:
      put_string(out, m.resource_url);
      put_i32(out, m.nodes);
      put_f64(out, m.walltime);
      put_i32(out, m.priority);
      put_f64(out, m.cost_per_core_hour);
      put_string(out, m.pilot_attributes);
      // v4 appends the fleet's token-MAC secret for offline grant checks.
      if (m.version >= 4) {
        put_string(out, m.token_key);
      }
      break;
    case MessageType::kPilotActive:
      put_i32(out, m.total_cores);
      put_i32(out, m.capacity);
      put_string(out, m.site);
      break;
    case MessageType::kPilotTerminated:
      put_u16(out, static_cast<std::uint16_t>(m.pilot_state));
      break;
    case MessageType::kExecuteUnit:
      put_unit(out, m.unit);
      break;
    case MessageType::kUnitDone:
      put_string(out, m.unit_id);
      put_u8(out, m.success ? 1 : 0);
      put_f64(out, m.timestamp);
      break;
    case MessageType::kHeartbeat:
    case MessageType::kHeartbeatAck:
      put_f64(out, m.timestamp);
      break;
    case MessageType::kUnitBatch:
      put_u32(out, static_cast<std::uint32_t>(m.units.size()));
      for (const WireUnitDescription& u : m.units) {
        put_unit(out, u);
      }
      break;
    case MessageType::kUnitDoneBatch:
      put_u32(out, static_cast<std::uint32_t>(m.completions.size()));
      for (const WireUnitDone& d : m.completions) {
        put_string(out, d.unit_id);
        put_u8(out, d.success ? 1 : 0);
        put_f64(out, d.timestamp);
      }
      break;
    case MessageType::kObjPut:
    case MessageType::kObjChunk:
    case MessageType::kPeerChunk:
      put_string(out, m.object_id);
      put_u64(out, m.transfer_id);
      put_u32(out, m.chunk_index);
      put_u32(out, m.chunk_count);
      put_u64(out, m.object_bytes);
      put_u32(out, m.chunk_crc);
      put_string(out, m.chunk_data);
      break;
    case MessageType::kObjGet:
      put_string(out, m.object_id);
      put_u64(out, m.transfer_id);
      break;
    case MessageType::kObjLocate:
      put_string(out, m.object_id);
      put_u64(out, m.object_bytes);
      put_u8(out, m.success ? 1 : 0);
      put_string_list(out, m.sites);
      break;
    case MessageType::kXferToken:
      put_string(out, m.object_id);
      put_u64(out, m.transfer_id);
      put_u64(out, m.object_bytes);
      put_string(out, m.source_pilot);
      put_string(out, m.dest_pilot);
      put_u32(out, m.chunk_begin);
      put_u32(out, m.chunk_end);
      put_f64(out, m.deadline);
      put_u64(out, m.nonce);
      put_u64(out, m.mac);
      put_string(out, m.peer_endpoint);
      put_u8(out, m.success ? 1 : 0);
      break;
    case MessageType::kPeerOffer:
      put_string(out, m.object_id);
      put_u64(out, m.transfer_id);
      put_u64(out, m.object_bytes);
      put_string(out, m.source_pilot);
      put_string(out, m.dest_pilot);
      put_u32(out, m.chunk_begin);
      put_u32(out, m.chunk_end);
      put_f64(out, m.deadline);
      put_u64(out, m.nonce);
      put_u64(out, m.mac);
      break;
    case MessageType::kPeerDone:
      put_string(out, m.object_id);
      put_u64(out, m.transfer_id);
      put_u64(out, m.nonce);
      put_u64(out, m.object_bytes);
      put_u8(out, m.success ? 1 : 0);
      break;
  }
}

Message decode_message(const char* data, std::size_t size) {
  Cursor c{data, size};
  const auto version = c.take<std::uint8_t>();
  if (version < kMinProtocolVersion || version > kProtocolVersion) {
    throw Error("net message has unsupported protocol version " +
                std::to_string(version));
  }
  const auto type = c.take<std::uint8_t>();
  if (type < static_cast<std::uint8_t>(MessageType::kHello) ||
      type > static_cast<std::uint8_t>(MessageType::kPeerDone)) {
    throw Error("net message has unknown type " + std::to_string(type));
  }
  if (is_batch_type(static_cast<MessageType>(type)) && version < 2) {
    throw Error("net message type " +
                std::string(to_string(static_cast<MessageType>(type))) +
                " requires protocol version 2, header says " +
                std::to_string(version));
  }
  if (is_object_type(static_cast<MessageType>(type)) && version < 3) {
    throw Error("net message type " +
                std::string(to_string(static_cast<MessageType>(type))) +
                " requires protocol version 3, header says " +
                std::to_string(version));
  }
  if (is_peer_type(static_cast<MessageType>(type)) && version < 4) {
    throw Error("net message type " +
                std::string(to_string(static_cast<MessageType>(type))) +
                " requires protocol version 4, header says " +
                std::to_string(version));
  }
  (void)c.take<std::uint16_t>();  // reserved
  Message m;
  m.type = static_cast<MessageType>(type);
  m.version = version;
  m.seq = c.take<std::uint64_t>();
  m.pilot_id = c.take_string();
  switch (m.type) {
    case MessageType::kHello:
      if (m.version >= 4) {
        m.peer_endpoint = c.take_string();
      }
      break;
    case MessageType::kShutdown:
      break;
    case MessageType::kStartPilot:
      m.resource_url = c.take_string();
      m.nodes = c.take<std::int32_t>();
      m.walltime = c.take<double>();
      m.priority = c.take<std::int32_t>();
      m.cost_per_core_hour = c.take<double>();
      m.pilot_attributes = c.take_string();
      if (m.version >= 4) {
        m.token_key = c.take_string();
      }
      break;
    case MessageType::kPilotActive:
      m.total_cores = c.take<std::int32_t>();
      m.capacity = c.take<std::int32_t>();
      m.site = c.take_string();
      break;
    case MessageType::kPilotTerminated: {
      const auto state = c.take<std::uint16_t>();
      if (state > static_cast<std::uint16_t>(core::PilotState::kCanceled)) {
        throw Error("net message has unknown pilot state " +
                    std::to_string(state));
      }
      m.pilot_state = static_cast<core::PilotState>(state);
      break;
    }
    case MessageType::kExecuteUnit:
      m.unit = take_unit(c);
      break;
    case MessageType::kUnitDone:
      m.unit_id = c.take_string();
      m.success = c.take<std::uint8_t>() != 0;
      m.timestamp = c.take<double>();
      break;
    case MessageType::kHeartbeat:
    case MessageType::kHeartbeatAck:
      m.timestamp = c.take<double>();
      break;
    case MessageType::kUnitBatch: {
      const auto n = take_batch_count(c, kMinWireUnitBytes);
      m.units.reserve(n);
      for (std::uint32_t i = 0; i < n; ++i) {
        m.units.push_back(take_unit(c));
      }
      break;
    }
    case MessageType::kUnitDoneBatch: {
      const auto n = take_batch_count(c, kMinWireUnitDoneBytes);
      m.completions.reserve(n);
      for (std::uint32_t i = 0; i < n; ++i) {
        WireUnitDone d;
        d.unit_id = c.take_string();
        d.success = c.take<std::uint8_t>() != 0;
        d.timestamp = c.take<double>();
        m.completions.push_back(std::move(d));
      }
      break;
    }
    case MessageType::kObjPut:
    case MessageType::kObjChunk:
    case MessageType::kPeerChunk:
      m.object_id = c.take_string();
      m.transfer_id = c.take<std::uint64_t>();
      m.chunk_index = c.take<std::uint32_t>();
      m.chunk_count = c.take<std::uint32_t>();
      m.object_bytes = c.take<std::uint64_t>();
      m.chunk_crc = c.take<std::uint32_t>();
      m.chunk_data = c.take_string();
      break;
    case MessageType::kObjGet:
      m.object_id = c.take_string();
      m.transfer_id = c.take<std::uint64_t>();
      break;
    case MessageType::kObjLocate:
      m.object_id = c.take_string();
      m.object_bytes = c.take<std::uint64_t>();
      m.success = c.take<std::uint8_t>() != 0;
      m.sites = c.take_string_list();
      break;
    case MessageType::kXferToken:
      m.object_id = c.take_string();
      m.transfer_id = c.take<std::uint64_t>();
      m.object_bytes = c.take<std::uint64_t>();
      m.source_pilot = c.take_string();
      m.dest_pilot = c.take_string();
      m.chunk_begin = c.take<std::uint32_t>();
      m.chunk_end = c.take<std::uint32_t>();
      m.deadline = c.take<double>();
      m.nonce = c.take<std::uint64_t>();
      m.mac = c.take<std::uint64_t>();
      m.peer_endpoint = c.take_string();
      m.success = c.take<std::uint8_t>() != 0;
      break;
    case MessageType::kPeerOffer:
      m.object_id = c.take_string();
      m.transfer_id = c.take<std::uint64_t>();
      m.object_bytes = c.take<std::uint64_t>();
      m.source_pilot = c.take_string();
      m.dest_pilot = c.take_string();
      m.chunk_begin = c.take<std::uint32_t>();
      m.chunk_end = c.take<std::uint32_t>();
      m.deadline = c.take<double>();
      m.nonce = c.take<std::uint64_t>();
      m.mac = c.take<std::uint64_t>();
      break;
    case MessageType::kPeerDone:
      m.object_id = c.take_string();
      m.transfer_id = c.take<std::uint64_t>();
      m.nonce = c.take<std::uint64_t>();
      m.object_bytes = c.take<std::uint64_t>();
      m.success = c.take<std::uint8_t>() != 0;
      break;
  }
  if (c.pos != size) {
    throw Error("net message has trailing bytes");
  }
  return m;
}

void append_message_frame(std::string& out, const Message& message) {
  const std::size_t mark = out.size();
  const std::size_t body = begin_frame(out);
  try {
    encode_message_into(out, message);
  } catch (...) {
    out.resize(mark);  // leave the arena frame-aligned for the caller
    throw;
  }
  end_frame(out, body);
}

Message make_start_pilot(const std::string& pilot_id,
                         const core::PilotDescription& description) {
  Message m;
  m.type = MessageType::kStartPilot;
  m.pilot_id = pilot_id;
  m.resource_url = description.resource_url;
  m.nodes = description.nodes;
  m.walltime = description.walltime;
  m.priority = description.priority;
  m.cost_per_core_hour = description.cost_per_core_hour;
  m.pilot_attributes = description.attributes.to_string();
  return m;
}

core::PilotDescription to_pilot_description(const Message& message) {
  core::PilotDescription d;
  d.resource_url = message.resource_url;
  d.nodes = message.nodes;
  d.walltime = message.walltime;
  d.priority = message.priority;
  d.cost_per_core_hour = message.cost_per_core_hour;
  d.attributes = Config::parse(message.pilot_attributes);
  return d;
}

WireUnitDescription to_wire_unit(const std::string& unit_id,
                                 const core::ComputeUnitDescription& d,
                                 bool has_work) {
  WireUnitDescription w;
  w.unit_id = unit_id;
  w.name = d.name;
  w.cores = d.cores;
  w.duration = d.duration;
  w.input_data = d.input_data;
  w.output_data = d.output_data;
  w.attributes = d.attributes.to_string();
  w.has_work = has_work;
  return w;
}

core::ComputeUnitDescription to_unit_description(const WireUnitDescription& w) {
  core::ComputeUnitDescription d;
  d.name = w.name;
  d.cores = w.cores;
  d.duration = w.duration;
  d.input_data = w.input_data;
  d.output_data = w.output_data;
  d.attributes = Config::parse(w.attributes);
  return d;
}

}  // namespace pa::net
