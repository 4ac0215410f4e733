#pragma once
/// \file record.h
/// \brief The journal's on-disk vocabulary: one typed, CRC-checked record
/// per validated state-machine transition or scheduler decision.
///
/// Framing (little-endian, native byte order — the journal is a local
/// write-ahead log, not a wire format):
///
///     u32 payload_length | u32 crc32(payload) | payload bytes
///
/// The payload serializes {type, seq, time, entity, fields} with
/// length-prefixed strings, so ids and attribute values may contain any
/// byte (commas, '=', newlines, NUL). A reader that finds a frame whose
/// length runs past EOF, whose CRC mismatches, or whose payload does not
/// decode has found the torn tail of a crashed writer — everything before
/// it is valid by construction (see reader.h).

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <string_view>

namespace pa::journal {

/// What happened. Values are stable on-disk identifiers — append only.
enum class RecordType : std::uint16_t {
  kPilotSubmit = 1,     ///< pilot described + submitted (fields = description)
  kPilotState = 2,      ///< pilot state-machine transition
  kUnitSubmit = 3,      ///< unit described + accepted (fields = description)
  kUnitBind = 4,        ///< scheduler decision: unit bound to a pilot
  kUnitState = 5,       ///< unit state-machine transition
  kUnitRequeue = 6,     ///< in-flight unit reset to PENDING (pilot loss)
  kDataPlacement = 7,   ///< data unit (replica) registered at a site
  kSnapshotHeader = 8,  ///< snapshot files only: {last_seq, counts}
  kSnapshotPilot = 9,   ///< snapshot files only: one pilot image
  kSnapshotUnit = 10,   ///< snapshot files only: one unit image
};

const char* to_string(RecordType t);

/// One journal entry. `seq` is assigned by the writer (strictly
/// monotonically increasing within a journal); `time` is the emitting
/// runtime's clock (simulated seconds on SimRuntime, wall on LocalRuntime).
struct Record {
  RecordType type = RecordType::kPilotSubmit;
  std::uint64_t seq = 0;
  double time = 0.0;
  std::string entity;  ///< pilot / unit / data-unit id
  std::map<std::string, std::string> fields;

  bool operator==(const Record& other) const = default;
};

/// Byte offset of the u64 `seq` inside a payload (right after the u16
/// type): the writer stamps each record's seq there as it queues it.
inline constexpr std::size_t kPayloadSeqOffset = 2;

/// The one payload encoder: appends {type, seq, time, entity, field
/// count, fields} to `out`, behind whatever `out` already holds. `field()`
/// adds one key/value pair; `finish()` writes the field count into its
/// slot. `encode_payload` and the service journal's hooks both encode
/// through it, so a hook writes the bytes of the equivalent `Record` as
/// long as it adds its keys in ascending byte order — the order
/// `Record::fields` iterates in.
class PayloadBuilder {
 public:
  PayloadBuilder(std::string& out, RecordType type, std::uint64_t seq,
                 double time, std::string_view entity);

  PayloadBuilder& field(std::string_view key, std::string_view value);

  /// Writes the field count into its slot.
  void finish();

 private:
  std::string& out_;
  std::size_t count_at_ = 0;  ///< offset of the u32 field count in `out_`
  std::uint32_t count_ = 0;
};

/// Serializes the record body (no frame header).
std::string encode_payload(const Record& record);

/// Parses a record body; throws pa::Error on malformed input.
Record decode_payload(const char* data, std::size_t size);

/// Bytes of the `length | crc` frame header.
inline constexpr std::size_t kFrameHeaderBytes = 8;

/// Upper bound on a sane payload; larger lengths mark a corrupt frame.
inline constexpr std::uint32_t kMaxPayloadBytes = 16U * 1024U * 1024U;

/// Appends `length | crc | payload` for `record` to `out`.
void append_frame(std::string& out, const Record& record);

/// Writes the record as one line of JSON (debug / analysis export; the
/// conventional dump extension is `.jsonl`, one record per line).
void write_jsonl(std::ostream& out, const Record& record);

}  // namespace pa::journal
