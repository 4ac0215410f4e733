#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "pa/common/error.h"
#include "pa/core/types.h"
#include "pa/net/message.h"
#include "pa/net/wire.h"

namespace pa::net {
namespace {

Message round_trip(const Message& m) {
  std::string bytes = encode_message(m);
  return decode_message(bytes.data(), bytes.size());
}

TEST(Message, HelloRoundTrips) {
  Message m;
  m.type = MessageType::kHello;
  m.seq = 42;
  m.pilot_id = "pilot-7";
  EXPECT_EQ(round_trip(m), m);
}

TEST(Message, StartPilotRoundTrips) {
  Message m;
  m.type = MessageType::kStartPilot;
  m.seq = 1;
  m.pilot_id = "pilot-1";
  m.resource_url = "remote://cluster-a?cores_per_node=8";
  m.nodes = 16;
  m.walltime = 3600.0;
  m.priority = 3;
  m.cost_per_core_hour = 0.021;
  m.pilot_attributes = "queue=debug\nproject=abc";
  EXPECT_EQ(round_trip(m), m);
}

TEST(Message, PilotActiveRoundTrips) {
  // The agent's queue capacity is the pilot's dispatch depth; it must
  // survive the wire at every version a down-level test peer may speak.
  for (std::uint8_t version = kMinProtocolVersion; version <= kProtocolVersion;
       ++version) {
    Message m;
    m.type = MessageType::kPilotActive;
    m.version = version;
    m.seq = 9;
    m.pilot_id = "p";
    m.total_cores = 128;
    m.capacity = 2048;
    m.site = "cluster-a";
    EXPECT_EQ(round_trip(m), m) << int{version};
  }
}

TEST(Message, PilotTerminatedRoundTrips) {
  Message m;
  m.type = MessageType::kPilotTerminated;
  m.pilot_id = "p";
  m.pilot_state = core::PilotState::kFailed;
  EXPECT_EQ(round_trip(m), m);
}

TEST(Message, ExecuteUnitRoundTrips) {
  Message m;
  m.type = MessageType::kExecuteUnit;
  m.seq = 1000;
  m.pilot_id = "pilot-3";
  m.unit.unit_id = "unit-77";
  m.unit.name = "stage-in";
  m.unit.cores = 4;
  m.unit.duration = 2.5;
  m.unit.input_data = {"file://a", "file://b"};
  m.unit.output_data = {"file://out"};
  m.unit.attributes = "locality=preferred";
  m.unit.has_work = true;
  EXPECT_EQ(round_trip(m), m);
}

TEST(Message, UnitDoneRoundTrips) {
  Message m;
  m.type = MessageType::kUnitDone;
  m.seq = 2;
  m.pilot_id = "p";
  m.unit_id = "unit-3";
  m.success = true;
  m.timestamp = 12.75;
  EXPECT_EQ(round_trip(m), m);
}

TEST(Message, HeartbeatAndAckRoundTrip) {
  for (auto type : {MessageType::kHeartbeat, MessageType::kHeartbeatAck}) {
    Message m;
    m.type = type;
    m.seq = 5;
    m.pilot_id = "p";
    m.timestamp = 1234.5678;
    EXPECT_EQ(round_trip(m), m) << to_string(type);
  }
}

TEST(Message, ShutdownRoundTrips) {
  Message m;
  m.type = MessageType::kShutdown;
  m.pilot_id = "p";
  EXPECT_EQ(round_trip(m), m);
}

TEST(Message, UnitBatchRoundTrips) {
  Message m;
  m.type = MessageType::kUnitBatch;
  m.seq = 12;
  m.pilot_id = "pilot-2";
  for (int i = 0; i < 3; ++i) {
    WireUnitDescription u;
    u.unit_id = "unit-" + std::to_string(i);
    u.name = "compute";
    u.cores = 1 + i;
    u.duration = 0.5 * i;
    u.input_data = {"in-" + std::to_string(i)};
    u.attributes = "k=v";
    u.has_work = (i % 2) == 0;
    m.units.push_back(std::move(u));
  }
  EXPECT_EQ(round_trip(m), m);
}

TEST(Message, EmptyUnitBatchRoundTrips) {
  Message m;
  m.type = MessageType::kUnitBatch;
  m.pilot_id = "p";
  EXPECT_EQ(round_trip(m), m);
}

TEST(Message, UnitDoneBatchRoundTrips) {
  Message m;
  m.type = MessageType::kUnitDoneBatch;
  m.seq = 99;
  m.pilot_id = "pilot-2";
  for (int i = 0; i < 4; ++i) {
    m.completions.push_back(
        WireUnitDone{"unit-" + std::to_string(i), (i % 2) == 0, 1.5 * i});
  }
  EXPECT_EQ(round_trip(m), m);
}

TEST(Message, BatchTypesRefuseVersion1Encode) {
  // A manager that negotiated v1 must never emit batch frames; encoding
  // one is a programming error surfaced as a clean pa::Error.
  for (auto type : {MessageType::kUnitBatch, MessageType::kUnitDoneBatch}) {
    Message m;
    m.type = type;
    m.version = 1;
    m.pilot_id = "p";
    EXPECT_THROW(encode_message(m), pa::Error) << to_string(type);
  }
}

TEST(Message, BatchTypesRefuseVersion1Decode) {
  // A v2 batch frame whose header claims v1 (malicious or buggy peer)
  // must be a clean protocol error, not a decode latch or a crash.
  for (auto type : {MessageType::kUnitBatch, MessageType::kUnitDoneBatch}) {
    Message m;
    m.type = type;
    m.pilot_id = "p";
    std::string bytes = encode_message(m);
    ASSERT_GE(bytes[0], 2);  // batch frames always carry v2+
    bytes[0] = 1;
    EXPECT_THROW(decode_message(bytes.data(), bytes.size()), pa::Error)
        << to_string(type);
  }
}

TEST(Message, Version1MessagesStillDecode) {
  // Downgraded streams re-encode classic types with the v1 header byte;
  // both versions of the header must decode identically.
  Message m;
  m.type = MessageType::kUnitDone;
  m.version = 1;
  m.pilot_id = "p";
  m.unit_id = "u";
  m.success = true;
  m.timestamp = 3.5;
  const Message back = round_trip(m);
  EXPECT_EQ(back.version, 1);
  EXPECT_EQ(back.unit_id, "u");
}

TEST(Message, BatchCountCannotExceedPayload) {
  // A kUnitBatch whose count claims more units than the payload could
  // possibly hold must throw before allocating.
  Message m;
  m.type = MessageType::kUnitBatch;
  m.pilot_id = "p";
  WireUnitDescription u;
  u.unit_id = "u";
  m.units.push_back(u);
  std::string bytes = encode_message(m);
  for (std::size_t i = 0; i + 4 <= bytes.size(); ++i) {
    std::string dirty = bytes;
    dirty[i] = '\xff';
    dirty[i + 1] = '\xff';
    dirty[i + 2] = '\xff';
    dirty[i + 3] = '\x7f';
    try {
      (void)decode_message(dirty.data(), dirty.size());
    } catch (const pa::Error&) {
      // expected for most positions; the point is no crash, no OOM
    }
  }
  SUCCEED();
}

TEST(Message, TruncatedBatchRejected) {
  Message m;
  m.type = MessageType::kUnitDoneBatch;
  m.pilot_id = "pilot-1";
  m.completions.push_back(WireUnitDone{"unit-1", true, 1.0});
  m.completions.push_back(WireUnitDone{"unit-2", false, 2.0});
  std::string bytes = encode_message(m);
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    EXPECT_THROW(decode_message(bytes.data(), cut), pa::Error) << cut;
  }
}

TEST(Message, CorruptBatchAtEveryByteNeverCrashes) {
  // The batch analogue of the corrupt-at-every-byte framing suite: flip
  // each byte of an encoded kUnitBatch and require decode to either throw
  // pa::Error or produce a value — never crash or hang.
  Message m;
  m.type = MessageType::kUnitBatch;
  m.pilot_id = "pilot-9";
  for (int i = 0; i < 2; ++i) {
    WireUnitDescription u;
    u.unit_id = "unit-" + std::to_string(i);
    u.input_data = {"a", "b"};
    m.units.push_back(std::move(u));
  }
  const std::string bytes = encode_message(m);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    for (const char flip : {'\x01', '\x80', '\xff'}) {
      std::string dirty = bytes;
      dirty[i] = static_cast<char>(dirty[i] ^ flip);
      try {
        (void)decode_message(dirty.data(), dirty.size());
      } catch (const pa::Error&) {
        // expected for most flips
      }
    }
  }
  SUCCEED();
}

TEST(Message, UnknownVersionRejected) {
  Message m;
  m.type = MessageType::kHello;
  m.pilot_id = "p";
  std::string bytes = encode_message(m);
  bytes[0] = static_cast<char>(kProtocolVersion + 1);
  EXPECT_THROW(decode_message(bytes.data(), bytes.size()), pa::Error);
}

TEST(Message, UnknownTypeRejected) {
  Message m;
  m.type = MessageType::kHello;
  m.pilot_id = "p";
  std::string bytes = encode_message(m);
  bytes[1] = static_cast<char>(200);
  EXPECT_THROW(decode_message(bytes.data(), bytes.size()), pa::Error);
}

TEST(Message, TruncatedBodyRejected) {
  Message start;
  start.type = MessageType::kStartPilot;
  start.pilot_id = "pilot-long-name";
  start.resource_url = "remote://site";
  Message active;
  active.type = MessageType::kPilotActive;
  active.pilot_id = "pilot-long-name";
  active.total_cores = 2;
  active.capacity = 32;
  active.site = "site";
  for (const Message& m : {start, active}) {
    const std::string bytes = encode_message(m);
    for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
      EXPECT_THROW(decode_message(bytes.data(), cut), pa::Error)
          << to_string(m.type) << " cut at " << cut;
    }
  }
}

TEST(Message, TrailingBytesRejected) {
  Message m;
  m.type = MessageType::kHeartbeat;
  m.pilot_id = "p";
  std::string bytes = encode_message(m) + "junk";
  EXPECT_THROW(decode_message(bytes.data(), bytes.size()), pa::Error);
}

TEST(Message, HugeStringCountRejectedWithoutAllocating) {
  // A kExecuteUnit whose input_data list claims 2^31 entries must throw,
  // not attempt the allocation.
  Message m;
  m.type = MessageType::kExecuteUnit;
  m.pilot_id = "p";
  m.unit.unit_id = "u";
  std::string bytes = encode_message(m);
  // input_data count is the first u32 after the unit's duration field;
  // rather than hunt for the offset, corrupt every u32-aligned position
  // and require decode to throw or produce a value — never crash.
  for (std::size_t i = 0; i + 4 <= bytes.size(); ++i) {
    std::string dirty = bytes;
    dirty[i] = '\xff';
    dirty[i + 1] = '\xff';
    dirty[i + 2] = '\xff';
    dirty[i + 3] = '\x7f';
    try {
      (void)decode_message(dirty.data(), dirty.size());
    } catch (const pa::Error&) {
      // expected for most positions
    }
  }
  SUCCEED();
}

TEST(Message, ObjPutAndChunkRoundTrip) {
  for (auto type : {MessageType::kObjPut, MessageType::kObjChunk}) {
    Message m;
    m.type = type;
    m.seq = 31;
    m.pilot_id = "pilot-5";
    m.object_id = "o0123456789abcdef";
    m.transfer_id = 77;
    m.chunk_index = 2;
    m.chunk_count = 5;
    m.object_bytes = 1234567;
    m.chunk_crc = 0xdeadbeef;
    m.chunk_data = std::string(1024, '\x5a');
    EXPECT_EQ(round_trip(m), m) << to_string(type);
  }
}

TEST(Message, ObjGetRoundTrips) {
  Message m;
  m.type = MessageType::kObjGet;
  m.pilot_id = "p";
  m.object_id = "ofedcba9876543210";
  m.transfer_id = 9;
  EXPECT_EQ(round_trip(m), m);
}

TEST(Message, ObjLocateRoundTrips) {
  Message m;
  m.type = MessageType::kObjLocate;
  m.pilot_id = "p";
  m.object_id = "o0000000000000001";
  m.object_bytes = 4096;
  m.success = true;
  m.sites = {"site-a", "site-b"};
  EXPECT_EQ(round_trip(m), m);
}

TEST(Message, NotFoundChunkRoundTrips) {
  // chunk_count = 0 is the soft-miss reply (source no longer holds the
  // object); it must survive the wire with an empty payload.
  Message m;
  m.type = MessageType::kObjChunk;
  m.pilot_id = "p";
  m.object_id = "o00000000000000ff";
  m.transfer_id = 3;
  m.chunk_count = 0;
  EXPECT_EQ(round_trip(m), m);
}

TEST(Message, ObjectTypesRefusePreV3Encode) {
  // A manager that negotiated v2 or v1 must never emit object frames.
  for (auto type : {MessageType::kObjPut, MessageType::kObjGet,
                    MessageType::kObjChunk, MessageType::kObjLocate}) {
    for (std::uint8_t version : {std::uint8_t{1}, std::uint8_t{2}}) {
      Message m;
      m.type = type;
      m.version = version;
      m.pilot_id = "p";
      m.object_id = "o0000000000000001";
      EXPECT_THROW(encode_message(m), pa::Error)
          << to_string(type) << " v" << int(version);
    }
  }
}

TEST(Message, ObjectTypesRefusePreV3Decode) {
  // An object frame whose header claims v2 must be a clean protocol
  // error, not a decode latch.
  Message m;
  m.type = MessageType::kObjLocate;
  m.pilot_id = "p";
  m.object_id = "o0000000000000001";
  std::string bytes = encode_message(m);
  ASSERT_GE(bytes[0], 3);  // object frames always carry v3+
  bytes[0] = 2;
  EXPECT_THROW(decode_message(bytes.data(), bytes.size()), pa::Error);
}

TEST(Message, TruncatedObjChunkRejected) {
  Message m;
  m.type = MessageType::kObjChunk;
  m.pilot_id = "pilot-1";
  m.object_id = "o0123456789abcdef";
  m.transfer_id = 1;
  m.chunk_index = 0;
  m.chunk_count = 1;
  m.object_bytes = 64;
  m.chunk_data = std::string(64, 'x');
  m.chunk_crc = 0x12345678;
  std::string bytes = encode_message(m);
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    EXPECT_THROW(decode_message(bytes.data(), cut), pa::Error) << cut;
  }
}

TEST(Message, HelloV4CarriesPeerEndpoint) {
  Message m;
  m.type = MessageType::kHello;
  m.pilot_id = "pilot-4";
  m.peer_endpoint = "127.0.0.1:45123";
  EXPECT_EQ(round_trip(m), m);
}

TEST(Message, HelloV3StaysByteForByteHeaderOnly) {
  // A v3 fleet must see exactly the pre-v4 hello: the dial address is
  // appended only when the header says v4+, so the v3 encoding of a
  // hello with a populated peer_endpoint is identical to one without.
  Message bare;
  bare.type = MessageType::kHello;
  bare.version = 3;
  bare.pilot_id = "pilot-3";
  Message dialed = bare;
  dialed.peer_endpoint = "127.0.0.1:45123";
  EXPECT_EQ(encode_message(bare), encode_message(dialed));
  const Message back = round_trip(dialed);
  EXPECT_EQ(back.version, 3);
  EXPECT_TRUE(back.peer_endpoint.empty());
}

TEST(Message, StartPilotV4CarriesTokenKey) {
  Message m;
  m.type = MessageType::kStartPilot;
  m.pilot_id = "pilot-1";
  m.resource_url = "remote://site";
  m.nodes = 2;
  m.token_key = "fleet-secret";
  EXPECT_EQ(round_trip(m), m);
}

TEST(Message, StartPilotV3OmitsTokenKey) {
  Message bare;
  bare.type = MessageType::kStartPilot;
  bare.version = 3;
  bare.pilot_id = "p";
  bare.resource_url = "remote://site";
  Message keyed = bare;
  keyed.token_key = "fleet-secret";
  EXPECT_EQ(encode_message(bare), encode_message(keyed));
  EXPECT_TRUE(round_trip(keyed).token_key.empty());
}

TEST(Message, XferTokenRoundTrips) {
  for (const bool grant : {true, false}) {  // false = revocation notice
    Message m;
    m.type = MessageType::kXferToken;
    m.seq = 4;
    m.pilot_id = "pilot-dest";
    m.object_id = "o0123456789abcdef";
    m.transfer_id = 42;
    m.object_bytes = 1 << 20;
    m.source_pilot = "pilot-src";
    m.dest_pilot = "pilot-dest";
    m.chunk_begin = 0;
    m.chunk_end = 5;
    m.deadline = 1234.5;
    m.nonce = 0x1122334455667788ULL;
    m.mac = 0xdeadbeefcafef00dULL;
    m.peer_endpoint = "127.0.0.1:40001";
    m.success = grant;
    EXPECT_EQ(round_trip(m), m) << grant;
  }
}

TEST(Message, PeerOfferRoundTrips) {
  Message m;
  m.type = MessageType::kPeerOffer;
  m.pilot_id = "pilot-dest";
  m.object_id = "ofedcba9876543210";
  m.transfer_id = 7;
  m.object_bytes = 4096;
  m.source_pilot = "pilot-src";
  m.dest_pilot = "pilot-dest";
  m.chunk_begin = 1;
  m.chunk_end = 3;
  m.deadline = 99.25;
  m.nonce = 21;
  m.mac = 0xabcdef;
  EXPECT_EQ(round_trip(m), m);
}

TEST(Message, PeerChunkRoundTrips) {
  Message m;
  m.type = MessageType::kPeerChunk;
  m.pilot_id = "pilot-src";
  m.object_id = "o0123456789abcdef";
  m.transfer_id = 42;
  m.chunk_index = 3;
  m.chunk_count = 5;
  m.object_bytes = 1 << 20;
  m.chunk_crc = 0xfeedface;
  m.chunk_data = std::string(2048, '\x7e');
  EXPECT_EQ(round_trip(m), m);
  // chunk_count = 0 is the token-rejected / no-longer-held NACK.
  Message nack;
  nack.type = MessageType::kPeerChunk;
  nack.pilot_id = "pilot-src";
  nack.object_id = "o0123456789abcdef";
  nack.transfer_id = 42;
  nack.chunk_count = 0;
  EXPECT_EQ(round_trip(nack), nack);
}

TEST(Message, PeerDoneRoundTrips) {
  for (const bool ok : {true, false}) {
    Message m;
    m.type = MessageType::kPeerDone;
    m.pilot_id = "pilot-dest";
    m.object_id = "o00000000000000aa";
    m.transfer_id = 9;
    m.nonce = 77;
    m.object_bytes = 123456;
    m.success = ok;
    EXPECT_EQ(round_trip(m), m) << ok;
  }
}

TEST(Message, PeerTypesRefusePreV4Encode) {
  for (auto type : {MessageType::kXferToken, MessageType::kPeerOffer,
                    MessageType::kPeerChunk, MessageType::kPeerDone}) {
    for (std::uint8_t version : {std::uint8_t{1}, std::uint8_t{2},
                                 std::uint8_t{3}}) {
      Message m;
      m.type = type;
      m.version = version;
      m.pilot_id = "p";
      m.object_id = "o0000000000000001";
      EXPECT_THROW(encode_message(m), pa::Error)
          << to_string(type) << " v" << int(version);
    }
  }
}

TEST(Message, PeerTypesRefusePreV4Decode) {
  // A peer frame whose header claims v3 must be a clean protocol error,
  // not a decode latch.
  Message m;
  m.type = MessageType::kPeerDone;
  m.pilot_id = "p";
  m.object_id = "o0000000000000001";
  m.nonce = 5;
  std::string bytes = encode_message(m);
  ASSERT_GE(bytes[0], 4);  // peer frames always carry v4+
  bytes[0] = 3;
  EXPECT_THROW(decode_message(bytes.data(), bytes.size()), pa::Error);
}

TEST(Message, TruncatedXferTokenRejected) {
  Message m;
  m.type = MessageType::kXferToken;
  m.pilot_id = "pilot-dest";
  m.object_id = "o0123456789abcdef";
  m.source_pilot = "pilot-src";
  m.dest_pilot = "pilot-dest";
  m.peer_endpoint = "127.0.0.1:40001";
  m.nonce = 1;
  m.mac = 2;
  std::string bytes = encode_message(m);
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    EXPECT_THROW(decode_message(bytes.data(), cut), pa::Error) << cut;
  }
}

TEST(Message, FrameHelperRoundTrips) {
  Message m;
  m.type = MessageType::kUnitDone;
  m.pilot_id = "p";
  m.unit_id = "u";
  m.success = true;
  std::string stream;
  append_message_frame(stream, m);
  FrameDecoder decoder;
  decoder.feed(stream.data(), stream.size());
  std::string payload;
  ASSERT_EQ(decoder.next(payload), FrameDecoder::Status::kFrame);
  EXPECT_EQ(decode_message(payload.data(), payload.size()), m);
}

TEST(Message, PilotDescriptionAdapterRoundTrips) {
  core::PilotDescription d;
  d.resource_url = "remote://cluster-b?cores_per_node=4";
  d.nodes = 8;
  d.walltime = 600.0;
  d.priority = 2;
  d.cost_per_core_hour = 1.5;
  d.attributes.set("queue", std::string("normal"));

  Message m = make_start_pilot("pilot-x", d);
  EXPECT_EQ(m.type, MessageType::kStartPilot);
  EXPECT_EQ(m.pilot_id, "pilot-x");

  core::PilotDescription back = to_pilot_description(round_trip(m));
  EXPECT_EQ(back.resource_url, d.resource_url);
  EXPECT_EQ(back.nodes, d.nodes);
  EXPECT_EQ(back.walltime, d.walltime);
  EXPECT_EQ(back.priority, d.priority);
  EXPECT_EQ(back.cost_per_core_hour, d.cost_per_core_hour);
  EXPECT_EQ(back.attributes.get_string("queue", ""), "normal");
}

TEST(Message, UnitDescriptionAdapterRoundTrips) {
  core::ComputeUnitDescription d;
  d.name = "compute";
  d.cores = 2;
  d.duration = 0.25;
  d.input_data = {"in-a"};
  d.output_data = {"out-a", "out-b"};
  d.attributes.set("affinity", std::string("numa0"));
  d.work = []() {};

  WireUnitDescription w = to_wire_unit("unit-1", d, /*has_work=*/true);
  EXPECT_EQ(w.unit_id, "unit-1");
  EXPECT_TRUE(w.has_work);

  core::ComputeUnitDescription back = to_unit_description(w);
  EXPECT_EQ(back.name, d.name);
  EXPECT_EQ(back.cores, d.cores);
  EXPECT_EQ(back.duration, d.duration);
  EXPECT_EQ(back.input_data, d.input_data);
  EXPECT_EQ(back.output_data, d.output_data);
  EXPECT_EQ(back.attributes.get_string("affinity", ""), "numa0");
  EXPECT_FALSE(back.work);  // closures never cross the wire
}

}  // namespace
}  // namespace pa::net
