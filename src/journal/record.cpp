#include "pa/journal/record.h"

#include <cstring>

#include "pa/common/error.h"
#include "pa/journal/crc32.h"
#include "pa/obs/export.h"

namespace pa::journal {

namespace {

template <typename T>
void put(std::string& out, T v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof(v));
}

void put_string(std::string& out, std::string_view s) {
  put(out, static_cast<std::uint32_t>(s.size()));
  out.append(s);
}

/// Bounds-checked cursor over a payload buffer.
struct Cursor {
  const char* data;
  std::size_t size;
  std::size_t pos = 0;

  void need(std::size_t n) const {
    if (pos + n > size) {
      throw Error("journal record truncated mid-payload");
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
};

}  // namespace

const char* to_string(RecordType t) {
  switch (t) {
    case RecordType::kPilotSubmit:
      return "pilot_submit";
    case RecordType::kPilotState:
      return "pilot_state";
    case RecordType::kUnitSubmit:
      return "unit_submit";
    case RecordType::kUnitBind:
      return "unit_bind";
    case RecordType::kUnitState:
      return "unit_state";
    case RecordType::kUnitRequeue:
      return "unit_requeue";
    case RecordType::kDataPlacement:
      return "data_placement";
    case RecordType::kSnapshotHeader:
      return "snapshot_header";
    case RecordType::kSnapshotPilot:
      return "snapshot_pilot";
    case RecordType::kSnapshotUnit:
      return "snapshot_unit";
  }
  return "unknown";
}

PayloadBuilder::PayloadBuilder(std::string& out, RecordType type,
                               std::uint64_t seq, double time,
                               std::string_view entity)
    : out_(out) {
  put(out_, static_cast<std::uint16_t>(type));
  put(out_, seq);
  put(out_, time);
  put_string(out_, entity);
  count_at_ = out_.size();
  put(out_, std::uint32_t{0});
}

PayloadBuilder& PayloadBuilder::field(std::string_view key,
                                      std::string_view value) {
  put_string(out_, key);
  put_string(out_, value);
  ++count_;
  return *this;
}

void PayloadBuilder::finish() {
  std::memcpy(out_.data() + count_at_, &count_, sizeof(count_));
}

namespace {

void encode_into(std::string& out, const Record& record) {
  PayloadBuilder payload(out, record.type, record.seq, record.time,
                         record.entity);
  for (const auto& [key, value] : record.fields) {
    payload.field(key, value);
  }
  payload.finish();
}

}  // namespace

std::string encode_payload(const Record& record) {
  std::string out;
  encode_into(out, record);
  return out;
}

Record decode_payload(const char* data, std::size_t size) {
  Cursor c{data, size};
  Record r;
  const auto type = c.take<std::uint16_t>();
  if (type < static_cast<std::uint16_t>(RecordType::kPilotSubmit) ||
      type > static_cast<std::uint16_t>(RecordType::kSnapshotUnit)) {
    throw Error("journal record has unknown type " + std::to_string(type));
  }
  r.type = static_cast<RecordType>(type);
  r.seq = c.take<std::uint64_t>();
  r.time = c.take<double>();
  r.entity = c.take_string();
  const auto n_fields = c.take<std::uint32_t>();
  for (std::uint32_t i = 0; i < n_fields; ++i) {
    std::string key = c.take_string();
    std::string value = c.take_string();
    r.fields.emplace(std::move(key), std::move(value));
  }
  if (c.pos != size) {
    throw Error("journal record has trailing bytes");
  }
  return r;
}

void append_frame(std::string& out, const Record& record) {
  const std::size_t header = out.size();
  out.append(kFrameHeaderBytes, '\0');
  encode_into(out, record);
  const std::size_t size = out.size() - header - kFrameHeaderBytes;
  PA_CHECK_MSG(size <= kMaxPayloadBytes,
               "journal record payload too large: " << size);
  const auto length = static_cast<std::uint32_t>(size);
  char* frame = out.data() + header;
  const std::uint32_t crc = crc32(frame + kFrameHeaderBytes, size);
  std::memcpy(frame, &length, sizeof(length));
  std::memcpy(frame + sizeof(length), &crc, sizeof(crc));
}

void write_jsonl(std::ostream& out, const Record& record) {
  out << "{\"type\":" << obs::json_quote(to_string(record.type))
      << ",\"seq\":" << record.seq << ",\"time\":" << record.time
      << ",\"entity\":" << obs::json_quote(record.entity) << ",\"fields\":{";
  bool first = true;
  for (const auto& [key, value] : record.fields) {
    if (!first) {
      out << ",";
    }
    first = false;
    out << obs::json_quote(key) << ":" << obs::json_quote(value);
  }
  out << "}}\n";
}

}  // namespace pa::journal
