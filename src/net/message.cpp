#include "pa/net/message.h"

#include <cstring>

#include "pa/common/error.h"
#include "pa/net/wire.h"

namespace pa::net {

namespace {

// Wire primitives, selected by the C++ type of the field being coded, in
// the journal codec's format (src/journal/record.cpp): fixed-width
// little-endian integers and doubles, bool as u8, u32 length-prefixed
// strings, u32 count-prefixed lists. A field of any other type does not
// compile until it gets a primitive here.

template <typename T>
void put_raw(std::string& out, T v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof(v));
}

template <typename T>
void put(std::string& out, T v) = delete;  // no silent promotions

void put(std::string& out, std::int32_t v) { put_raw(out, v); }
void put(std::string& out, std::uint32_t v) { put_raw(out, v); }
void put(std::string& out, std::uint64_t v) { put_raw(out, v); }
void put(std::string& out, double v) { put_raw(out, v); }
void put(std::string& out, bool v) {
  put_raw(out, static_cast<std::uint8_t>(v ? 1 : 0));
}
void put(std::string& out, core::PilotState v) {
  put_raw(out, static_cast<std::uint16_t>(v));
}
void put(std::string& out, const std::string& s) {
  put_raw(out, static_cast<std::uint32_t>(s.size()));
  out.append(s);
}
void put(std::string& out, const WireUnitDescription& v);
void put(std::string& out, const WireUnitDone& v);

template <typename T>
void put(std::string& out, const std::vector<T>& list) {
  put_raw(out, static_cast<std::uint32_t>(list.size()));
  for (const T& entry : list) {
    put(out, entry);
  }
}

// The field lists expand into straight-line put/take calls on `v`.
#define PA_NET_PUT(field) put(out, v.field);
#define PA_NET_TAKE(field) take(c, v.field);

void put(std::string& out, const WireUnitDescription& v) {
  PA_NET_WIRE_UNIT_FIELDS(PA_NET_PUT)
}

void put(std::string& out, const WireUnitDone& v) {
  PA_NET_WIRE_UNIT_DONE_FIELDS(PA_NET_PUT)
}

/// Bounds-checked cursor over a message payload.
struct Cursor {
  const char* data;
  std::size_t size;
  std::size_t pos = 0;

  void need(std::size_t n) const {
    if (n > size - pos) {
      throw Error("net message truncated mid-payload");
    }
  }
  template <typename T>
  T raw() {
    need(sizeof(T));
    T v;
    std::memcpy(&v, data + pos, sizeof(T));
    pos += sizeof(T);
    return v;
  }
};

void take(Cursor& c, std::uint64_t& v) { v = c.raw<std::uint64_t>(); }
void take(Cursor& c, std::uint32_t& v) { v = c.raw<std::uint32_t>(); }
void take(Cursor& c, std::int32_t& v) { v = c.raw<std::int32_t>(); }
void take(Cursor& c, double& v) { v = c.raw<double>(); }
void take(Cursor& c, bool& v) { v = c.raw<std::uint8_t>() != 0; }
void take(Cursor& c, core::PilotState& v) {
  const auto state = c.raw<std::uint16_t>();
  if (state > static_cast<std::uint16_t>(core::PilotState::kCanceled)) {
    throw Error("net message has unknown pilot state " +
                std::to_string(state));
  }
  v = static_cast<core::PilotState>(state);
}
void take(Cursor& c, std::string& s) {
  const auto n = c.raw<std::uint32_t>();
  c.need(n);
  s.assign(c.data + c.pos, n);
  c.pos += n;
}
void take(Cursor& c, WireUnitDescription& v);
void take(Cursor& c, WireUnitDone& v);

/// Smallest encoded size of one list entry, from the same field lists:
/// a list count the remaining payload cannot possibly satisfy is
/// rejected before anything is reserved.
template <typename T>
constexpr std::size_t kMinWireBytes = sizeof(T);
template <>
constexpr std::size_t kMinWireBytes<std::string> = sizeof(std::uint32_t);
template <typename T>
constexpr std::size_t kMinWireBytes<std::vector<T>> = sizeof(std::uint32_t);
#define PA_NET_MIN_BYTES(field) +kMinWireBytes<decltype(Entry::field)>
template <>
constexpr std::size_t kMinWireBytes<WireUnitDescription> = [] {
  using Entry = WireUnitDescription;
  return std::size_t{0} PA_NET_WIRE_UNIT_FIELDS(PA_NET_MIN_BYTES);
}();
template <>
constexpr std::size_t kMinWireBytes<WireUnitDone> = [] {
  using Entry = WireUnitDone;
  return std::size_t{0} PA_NET_WIRE_UNIT_DONE_FIELDS(PA_NET_MIN_BYTES);
}();
#undef PA_NET_MIN_BYTES

template <typename T>
void take(Cursor& c, std::vector<T>& list) {
  const auto n = c.raw<std::uint32_t>();
  if (n > (c.size - c.pos) / kMinWireBytes<T>) {
    throw Error("net message list count exceeds payload");
  }
  list.resize(n);
  for (T& entry : list) {
    take(c, entry);
  }
}

void take(Cursor& c, WireUnitDescription& v) {
  PA_NET_WIRE_UNIT_FIELDS(PA_NET_TAKE)
}
void take(Cursor& c, WireUnitDone& v) {
  PA_NET_WIRE_UNIT_DONE_FIELDS(PA_NET_TAKE)
}

}  // namespace

const char* to_string(MessageType t) {
  switch (t) {
#define PA_NET_NAME(name, value, str, fields) \
  case MessageType::name:                     \
    return str;
    PA_NET_MESSAGE_TYPES(PA_NET_NAME)
#undef PA_NET_NAME
  }
  return "unknown";
}

std::string encode_message(const Message& m) {
  std::string out;
  encode_message_into(out, m);
  return out;
}

void encode_message_into(std::string& out, const Message& v) {
  put_raw(out, kProtocolVersion);
  put_raw(out, static_cast<std::uint8_t>(v.type));
  put_raw(out, std::uint16_t{0});  // reserved
  put(out, v.seq);
  put(out, v.pilot_id);
  switch (v.type) {
#define PA_NET_ENCODE(name, value, str, fields) \
  case MessageType::name:                       \
    fields(PA_NET_PUT) return;
    PA_NET_MESSAGE_TYPES(PA_NET_ENCODE)
#undef PA_NET_ENCODE
  }
  throw Error("net message encode of unknown type " +
              std::to_string(static_cast<int>(v.type)));
}

Message decode_message(const char* data, std::size_t size) {
  Cursor c{data, size};
  const auto version = c.raw<std::uint8_t>();
  if (version != kProtocolVersion) {
    throw Error("net message has protocol version " +
                std::to_string(version) + ", this build speaks version " +
                std::to_string(kProtocolVersion));
  }
  Message v;
  v.type = static_cast<MessageType>(c.raw<std::uint8_t>());
  (void)c.raw<std::uint16_t>();  // reserved
  take(c, v.seq);
  take(c, v.pilot_id);
  switch (v.type) {
#define PA_NET_DECODE(name, value, str, fields) \
  case MessageType::name:                       \
    fields(PA_NET_TAKE) break;
    PA_NET_MESSAGE_TYPES(PA_NET_DECODE)
#undef PA_NET_DECODE
    default:
      throw Error("net message has unknown type " +
                  std::to_string(static_cast<int>(v.type)));
  }
  if (c.pos != size) {
    throw Error("net message has trailing bytes");
  }
  return v;
}

#undef PA_NET_PUT
#undef PA_NET_TAKE

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
