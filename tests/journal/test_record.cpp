#include "pa/journal/record.h"

#include <gtest/gtest.h>

#include <cstring>
#include <sstream>
#include <string>

#include "pa/common/error.h"
#include "pa/journal/crc32.h"
#include "pa/journal/reader.h"

namespace pa::journal {
namespace {

Record sample_record() {
  Record r;
  r.type = RecordType::kUnitSubmit;
  r.seq = 42;
  r.time = 1234.5678;
  r.entity = "unit-7";
  r.fields = {{"cores", "4"}, {"duration", "10.5"}, {"name", "stage-a"}};
  return r;
}

TEST(JournalRecord, PayloadRoundTrip) {
  const Record r = sample_record();
  const std::string payload = encode_payload(r);
  const Record back = decode_payload(payload.data(), payload.size());
  EXPECT_EQ(back, r);
}

TEST(JournalRecord, RoundTripsArbitraryBytes) {
  // Ids and field values must survive every byte: NUL, newlines, the k=v
  // separators the Config layer uses, and high bytes.
  Record r;
  r.type = RecordType::kDataPlacement;
  r.seq = 1;
  r.time = -0.0;
  r.entity = std::string("du\0\n=,|\xff\x01", 8);
  r.fields[std::string("k\0ey", 4)] = std::string("v\nal=ue,\0", 9);
  r.fields[""] = "";  // empty key and value are legal
  const std::string payload = encode_payload(r);
  EXPECT_EQ(decode_payload(payload.data(), payload.size()), r);
}

TEST(JournalRecord, RoundTripsExtremeDoubles) {
  for (const double t : {0.0, -1.5e-300, 1.7976931348623157e308,
                         4.9406564584124654e-324, 123456789.123456789}) {
    Record r = sample_record();
    r.time = t;
    const std::string payload = encode_payload(r);
    EXPECT_EQ(decode_payload(payload.data(), payload.size()).time, t);
  }
}

TEST(JournalRecord, DecodeRejectsTruncation) {
  const std::string payload = encode_payload(sample_record());
  for (std::size_t n = 0; n < payload.size(); ++n) {
    EXPECT_THROW(decode_payload(payload.data(), n), pa::Error)
        << "decode accepted a " << n << "-byte prefix";
  }
}

TEST(JournalRecord, DecodeRejectsTrailingGarbage) {
  std::string payload = encode_payload(sample_record());
  payload += '\0';
  EXPECT_THROW(decode_payload(payload.data(), payload.size()), pa::Error);
}

TEST(JournalRecord, DecodeRejectsUnknownType) {
  Record r = sample_record();
  std::string payload = encode_payload(r);
  // Type is serialized first as u16; stamp an out-of-range value.
  payload[0] = static_cast<char>(0xEE);
  payload[1] = static_cast<char>(0xEE);
  EXPECT_THROW(decode_payload(payload.data(), payload.size()), pa::Error);
}

TEST(JournalRecord, FrameScanRoundTrip) {
  std::string bytes;
  std::vector<Record> written;
  for (int i = 0; i < 10; ++i) {
    Record r = sample_record();
    r.seq = static_cast<std::uint64_t>(i + 1);
    r.entity = "unit-" + std::to_string(i);
    written.push_back(r);
    append_frame(bytes, r);
  }
  const ReadResult result = scan(bytes.data(), bytes.size());
  EXPECT_FALSE(result.torn);
  EXPECT_EQ(result.valid_bytes, bytes.size());
  EXPECT_EQ(result.records, written);
}

TEST(JournalRecord, ScanStopsAtNonMonotonicSeq) {
  std::string bytes;
  Record r = sample_record();
  r.seq = 5;
  append_frame(bytes, r);
  append_frame(bytes, r);  // same seq again: stale bytes, not a valid frame
  const ReadResult result = scan(bytes.data(), bytes.size());
  EXPECT_TRUE(result.torn);
  ASSERT_EQ(result.records.size(), 1u);
  EXPECT_EQ(result.records[0].seq, 5u);
}

TEST(JournalRecord, Crc32MatchesKnownVectors) {
  // Standard zlib/PNG CRC-32 check values.
  EXPECT_EQ(crc32("", 0), 0x00000000u);
  EXPECT_EQ(crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(crc32("a", 1), 0xE8B7BE43u);
  const std::string fox = "The quick brown fox jumps over the lazy dog";
  EXPECT_EQ(crc32(fox.data(), fox.size()), 0x414FA339u);
}

TEST(JournalRecord, Crc32SlicingMatchesBytewiseAtEveryLengthAndAlignment) {
  // Slicing-by-8 folds eight bytes per step; it must agree with the
  // byte-at-a-time table walk for every length (full steps, tails, both)
  // at every start offset within an 8-byte word.
  std::string buf(8 + 300, '\0');
  std::uint32_t x = 0x9E3779B9U;
  for (char& c : buf) {
    x = x * 1664525U + 1013904223U;
    c = static_cast<char>(x >> 24);
  }
  const auto* bytes = reinterpret_cast<const unsigned char*>(buf.data());
  for (std::size_t align = 0; align < 8; ++align) {
    for (std::size_t len = 0; len <= 300; ++len) {
      const std::uint32_t reference =
          detail::crc32_bytewise(0xFFFFFFFFU, bytes + align, len) ^
          0xFFFFFFFFU;
      ASSERT_EQ(crc32(bytes + align, len), reference)
          << "align=" << align << " len=" << len;
    }
  }
}

TEST(JournalRecord, PayloadBuilderWritesEncodePayloadBytes) {
  const Record r = sample_record();
  std::string out = "prefix";  // the builder appends behind what is there
  PayloadBuilder payload(out, r.type, r.seq, r.time, r.entity);
  for (const auto& [key, value] : r.fields) {
    payload.field(key, value);
  }
  payload.finish();
  EXPECT_EQ(out, "prefix" + encode_payload(r));
  std::uint64_t seq = 0;
  std::memcpy(&seq, out.data() + 6 + kPayloadSeqOffset, sizeof(seq));
  EXPECT_EQ(seq, r.seq);
}

TEST(JournalRecord, JsonlEscapesAndLabels) {
  Record r = sample_record();
  r.entity = "unit \"7\"\n";
  std::ostringstream out;
  write_jsonl(out, r);
  const std::string line = out.str();
  EXPECT_NE(line.find("\"unit_submit\""), std::string::npos);
  EXPECT_NE(line.find("\\\"7\\\""), std::string::npos);
  EXPECT_NE(line.find("\\n"), std::string::npos);
  EXPECT_EQ(line.back(), '\n');
  // Exactly one line per record.
  EXPECT_EQ(line.find('\n'), line.size() - 1);
}

TEST(JournalRecord, TypeNamesAreStable) {
  EXPECT_STREQ(to_string(RecordType::kPilotSubmit), "pilot_submit");
  EXPECT_STREQ(to_string(RecordType::kUnitRequeue), "unit_requeue");
  EXPECT_STREQ(to_string(RecordType::kSnapshotHeader), "snapshot_header");
}

}  // namespace
}  // namespace pa::journal
