#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <string>
#include <string_view>
#include <vector>

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

std::string to_hex(const std::string& bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string hex;
  for (const char ch : bytes) {
    const auto byte = static_cast<unsigned char>(ch);
    hex += kDigits[byte >> 4];
    hex += kDigits[byte & 0xf];
  }
  return hex;
}

std::string from_hex(std::string_view hex) {
  std::string bytes;
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2) {
    bytes += static_cast<char>(
        std::stoi(std::string(hex.substr(i, 2)), nullptr, 16));
  }
  return bytes;
}

// --- the schema -------------------------------------------------------------

/// Every type of the wire schema, in table order.
constexpr MessageType kSchemaTypes[] = {
#define PA_TEST_TYPE(name, value, str, fields) MessageType::name,
    PA_NET_MESSAGE_TYPES(PA_TEST_TYPE)
#undef PA_TEST_TYPE
};

/// Member count of an aggregate: the most convertible-to-anything
/// placeholders it can be brace-initialized from.
struct AnyField {
  template <typename T>
  operator T() const;
};

template <typename T, typename... Fields>
constexpr std::size_t member_count() {
  if constexpr (requires { T{Fields{}..., AnyField{}}; }) {
    return member_count<T, Fields..., AnyField>();
  } else {
    return sizeof...(Fields);
  }
}

template <std::size_t N>
constexpr std::size_t distinct(const std::string_view (&names)[N]) {
  std::size_t count = 0;
  for (std::size_t i = 0; i < N; ++i) {
    bool seen = false;
    for (std::size_t j = 0; j < i; ++j) {
      seen = seen || names[j] == names[i];
    }
    count += seen ? 0 : 1;
  }
  return count;
}

#define PA_TEST_NAME(field) #field,
#define PA_TEST_TYPE_FIELDS(name, value, str, fields) fields(PA_TEST_NAME)
constexpr std::string_view kBodyFields[] = {
    PA_NET_MESSAGE_TYPES(PA_TEST_TYPE_FIELDS)};
constexpr std::string_view kUnitFields[] = {
    PA_NET_WIRE_UNIT_FIELDS(PA_TEST_NAME)};
constexpr std::string_view kUnitDoneFields[] = {
    PA_NET_WIRE_UNIT_DONE_FIELDS(PA_TEST_NAME)};
#undef PA_TEST_TYPE_FIELDS
#undef PA_TEST_NAME

// A struct member that no field list names never crosses the wire. The
// header codes Message's first three members: type, seq and pilot_id.
static_assert(member_count<Message>() == 3 + distinct(kBodyFields),
              "a Message member is named by no type's field list");
static_assert(member_count<WireUnitDescription>() == distinct(kUnitFields),
              "a WireUnitDescription member is not in its field list");
static_assert(member_count<WireUnitDone>() == distinct(kUnitDoneFields),
              "a WireUnitDone member is not in its field list");

/// Fails for every field in `m.type`'s list that still holds its default,
/// so a sample's round trip and golden bytes pin every field.
void expect_populated(const Message& m) {
  const Message blank;
  switch (m.type) {
#define PA_TEST_SET(field) \
  EXPECT_NE(m.field, blank.field) << to_string(m.type) << "." #field;
#define PA_TEST_POPULATED(name, value, str, fields) \
  case MessageType::name:                           \
    fields(PA_TEST_SET) break;
    PA_NET_MESSAGE_TYPES(PA_TEST_POPULATED)
#undef PA_TEST_POPULATED
#undef PA_TEST_SET
  }
}

// --- golden bytes -----------------------------------------------------------

struct Golden {
  Message sample;
  std::string_view hex;
};

/// One fully populated message of every schema type and the bytes the
/// hand-paired version-4 codec encoded it to before the schema table
/// replaced that codec: the wire layout must not move.
const std::vector<Golden>& goldens() {
  static const std::vector<Golden> table = [] {
    std::vector<Golden> out;
    auto add = [&out](MessageType type, std::uint64_t seq, const char* pilot,
                      std::string_view hex) {
      Golden g;
      g.sample.type = type;
      g.sample.seq = seq;
      g.sample.pilot_id = pilot;
      g.hex = hex;
      out.push_back(std::move(g));
      return &out.back().sample;
    };
    auto chunk = [](Message* m) {
      m->object_id = "o0123456789abcdef";
      m->transfer_id = 77;
      m->chunk_index = 2;
      m->chunk_count = 5;
      m->object_bytes = 1234567;
      m->chunk_crc = 0xdeadbeef;
      m->chunk_data = "chunk-bytes";
    };
    auto grant = [](Message* m) {
      m->object_id = "o0123456789abcdef";
      m->transfer_id = 42;
      m->object_bytes = 1 << 20;
      m->source_pilot = "pilot-src";
      m->dest_pilot = "pilot-dest";
      m->chunk_begin = 1;
      m->chunk_end = 5;
      m->deadline = 1234.5;
      m->nonce = 0x1122334455667788ULL;
      m->mac = 0xdeadbeefcafef00dULL;
    };

    Message* m = add(MessageType::kHello, 42, "pilot-7",
      "040100002a000000000000000700000070696c6f742d370f0000003132372e30"
      "2e302e313a3435313233");
    m->peer_endpoint = "127.0.0.1:45123";

    m = add(MessageType::kStartPilot, 1, "pilot-1",
      "0402000001000000000000000700000070696c6f742d312300000072656d6f74"
      "653a2f2f636c75737465722d613f636f7265735f7065725f6e6f64653d381000"
      "0000000000000020ac40030000001b2fdd240681953f1700000071756575653d"
      "64656275670a70726f6a6563743d6162630c000000666c6565742d7365637265"
      "74");
    m->resource_url = "remote://cluster-a?cores_per_node=8";
    m->nodes = 16;
    m->walltime = 3600.0;
    m->priority = 3;
    m->cost_per_core_hour = 0.021;
    m->pilot_attributes = "queue=debug\nproject=abc";
    m->token_key = "fleet-secret";

    m = add(MessageType::kPilotActive, 9, "p",
      "0403000009000000000000000100000070800000000008000009000000636c75"
      "737465722d61");
    m->total_cores = 128;
    m->capacity = 2048;
    m->site = "cluster-a";

    m = add(MessageType::kPilotTerminated, 3, "p",
      "04040000030000000000000001000000700400");
    m->pilot_state = core::PilotState::kFailed;

    m = add(MessageType::kHeartbeat, 5, "p",
      "0407000005000000000000000100000070adfa5c6d454a9340");
    m->timestamp = 1234.5678;

    m = add(MessageType::kHeartbeatAck, 6, "p",
      "0408000006000000000000000100000070adfa5c6d454a9340");
    m->timestamp = 1234.5678;

    add(MessageType::kShutdown, 7, "p",
      "0409000007000000000000000100000070");

    m = add(MessageType::kUnitBatch, 12, "pilot-2",
      "040a00000c000000000000000700000070696c6f742d32020000000600000075"
      "6e69742d3007000000636f6d7075746501000000000000000000e03f02000000"
      "04000000696e2d6104000000696e2d6201000000050000006f75742d30030000"
      "006b3d760106000000756e69742d3107000000636f6d70757465020000000000"
      "00000000f83f0200000004000000696e2d6104000000696e2d62010000000500"
      "00006f75742d31030000006b3d7600");
    for (int i = 0; i < 2; ++i) {
      WireUnitDescription u;
      u.unit_id = "unit-" + std::to_string(i);
      u.name = "compute";
      u.cores = 1 + i;
      u.duration = 0.5 + i;
      u.input_data = {"in-a", "in-b"};
      u.output_data = {"out-" + std::to_string(i)};
      u.attributes = "k=v";
      u.has_work = i == 0;
      m->units.push_back(u);
    }

    m = add(MessageType::kUnitDoneBatch, 99, "pilot-2",
      "040b000063000000000000000700000070696c6f742d32020000000600000075"
      "6e69742d3001000000000000f83f06000000756e69742d310000000000000008"
      "40");
    m->completions = {WireUnitDone{"unit-0", true, 1.5},
                      WireUnitDone{"unit-1", false, 3.0}};

    chunk(add(MessageType::kObjPut, 31, "pilot-5",
      "040c00001f000000000000000700000070696c6f742d35110000006f30313233"
      "3435363738396162636465664d00000000000000020000000500000087d61200"
      "00000000efbeadde0b0000006368756e6b2d6279746573"));

    m = add(MessageType::kObjGet, 8, "p",
      "040d000008000000000000000100000070110000006f66656463626139383736"
      "3534333231300900000000000000");
    m->object_id = "ofedcba9876543210";
    m->transfer_id = 9;

    chunk(add(MessageType::kObjChunk, 31, "pilot-5",
      "040e00001f000000000000000700000070696c6f742d35110000006f30313233"
      "3435363738396162636465664d00000000000000020000000500000087d61200"
      "00000000efbeadde0b0000006368756e6b2d6279746573"));

    m = add(MessageType::kObjLocate, 10, "p",
      "040f00000a000000000000000100000070110000006f30303030303030303030"
      "3030303030310010000000000000010200000006000000736974652d61060000"
      "00736974652d62");
    m->object_id = "o0000000000000001";
    m->object_bytes = 4096;
    m->success = true;
    m->sites = {"site-a", "site-b"};

    m = add(MessageType::kXferToken, 4, "pilot-dest",
      "0410000004000000000000000a00000070696c6f742d64657374110000006f30"
      "3132333435363738396162636465662a00000000000000000010000000000009"
      "00000070696c6f742d7372630a00000070696c6f742d64657374010000000500"
      "000000000000004a934088776655443322110df0fecaefbeadde0f0000003132"
      "372e302e302e313a343030303101");
    grant(m);
    m->peer_endpoint = "127.0.0.1:40001";
    m->success = true;

    grant(add(MessageType::kPeerOffer, 4, "pilot-dest",
      "0411000004000000000000000a00000070696c6f742d64657374110000006f30"
      "3132333435363738396162636465662a00000000000000000010000000000009"
      "00000070696c6f742d7372630a00000070696c6f742d64657374010000000500"
      "000000000000004a934088776655443322110df0fecaefbeadde"));

    chunk(add(MessageType::kPeerChunk, 31, "pilot-5",
      "041200001f000000000000000700000070696c6f742d35110000006f30313233"
      "3435363738396162636465664d00000000000000020000000500000087d61200"
      "00000000efbeadde0b0000006368756e6b2d6279746573"));

    m = add(MessageType::kPeerDone, 11, "pilot-dest",
      "041300000b000000000000000a00000070696c6f742d64657374110000006f30"
      "30303030303030303030303030616109000000000000004d0000000000000040"
      "e201000000000001");
    m->object_id = "o00000000000000aa";
    m->transfer_id = 9;
    m->nonce = 77;
    m->object_bytes = 123456;
    m->success = true;
    return out;
  }();
  return table;
}

const Golden& golden(MessageType type) {
  for (const Golden& g : goldens()) {
    if (g.sample.type == type) {
      return g;
    }
  }
  throw Error(std::string("no golden sample for ") + to_string(type));
}

const Message& sample(MessageType type) { return golden(type).sample; }

/// The sample encodes to its golden bytes and the golden bytes decode
/// back to the sample.
void expect_golden(MessageType type) {
  const Golden& g = golden(type);
  EXPECT_EQ(to_hex(encode_message(g.sample)), g.hex) << to_string(type);
  const std::string bytes = from_hex(g.hex);
  EXPECT_EQ(decode_message(bytes.data(), bytes.size()), g.sample)
      << to_string(type);
}

TEST(Message, HelloRoundTrips) { expect_golden(MessageType::kHello); }

TEST(Message, StartPilotRoundTrips) {
  expect_golden(MessageType::kStartPilot);
}

TEST(Message, PilotActiveRoundTrips) {
  expect_golden(MessageType::kPilotActive);
}

TEST(Message, PilotTerminatedRoundTrips) {
  expect_golden(MessageType::kPilotTerminated);
}

TEST(Message, HeartbeatAndAckRoundTrip) {
  expect_golden(MessageType::kHeartbeat);
  expect_golden(MessageType::kHeartbeatAck);
}

TEST(Message, ShutdownRoundTrips) { expect_golden(MessageType::kShutdown); }

TEST(Message, UnitBatchRoundTrips) { expect_golden(MessageType::kUnitBatch); }

TEST(Message, UnitDoneBatchRoundTrips) {
  expect_golden(MessageType::kUnitDoneBatch);
}

TEST(Message, ObjPutAndChunkRoundTrip) {
  expect_golden(MessageType::kObjPut);
  expect_golden(MessageType::kObjChunk);
}

TEST(Message, ObjGetRoundTrips) { expect_golden(MessageType::kObjGet); }

TEST(Message, ObjLocateRoundTrips) { expect_golden(MessageType::kObjLocate); }

TEST(Message, XferTokenRoundTrips) {
  expect_golden(MessageType::kXferToken);
  Message revoke = sample(MessageType::kXferToken);
  revoke.success = false;  // a revocation notice
  EXPECT_EQ(round_trip(revoke), revoke);
}

TEST(Message, PeerOfferRoundTrips) { expect_golden(MessageType::kPeerOffer); }

TEST(Message, PeerChunkRoundTrips) { expect_golden(MessageType::kPeerChunk); }

TEST(Message, PeerDoneRoundTrips) { expect_golden(MessageType::kPeerDone); }

/// Every strict prefix of `m`'s encoding must fail to decode.
void expect_every_cut_rejected(const Message& m) {
  const std::string bytes = encode_message(m);
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    EXPECT_THROW(decode_message(bytes.data(), cut), pa::Error)
        << to_string(m.type) << " cut at " << cut;
  }
}

/// Flips bits of every byte of `m`'s encoding: decode must throw
/// pa::Error or produce a value — never crash, hang or over-allocate.
void corrupt_every_byte(const Message& m) {
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
}

TEST(Message, EveryTypeRoundTripsAndSurvivesCutAndCorruptBytes) {
  ASSERT_EQ(goldens().size(), std::size(kSchemaTypes));
  for (const MessageType type : kSchemaTypes) {
    const Message& m = sample(type);
    expect_populated(m);
    EXPECT_EQ(round_trip(m), m) << to_string(type);
    expect_every_cut_rejected(m);
    corrupt_every_byte(m);
  }
}

TEST(Message, TruncatedBodyRejected) {
  // Sparsely populated control messages: the cut must still land on a
  // missing field, whatever the field lengths.
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
  for (const Message& m : {start, active}) expect_every_cut_rejected(m);
}

TEST(Message, TruncatedBatchRejected) {
  Message m;
  m.type = MessageType::kUnitDoneBatch;
  m.pilot_id = "pilot-1";
  m.completions.push_back(WireUnitDone{"unit-1", true, 1.0});
  m.completions.push_back(WireUnitDone{"unit-2", false, 2.0});
  expect_every_cut_rejected(m);
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
  expect_every_cut_rejected(m);
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
  expect_every_cut_rejected(m);
}

TEST(Message, CorruptBatchAtEveryByteNeverCrashes) {
  // A two-unit batch with list fields, so flips land in nested counts.
  Message m;
  m.type = MessageType::kUnitBatch;
  m.pilot_id = "pilot-9";
  for (int i = 0; i < 2; ++i) {
    WireUnitDescription u;
    u.unit_id = "unit-" + std::to_string(i);
    u.input_data = {"a", "b"};
    m.units.push_back(std::move(u));
  }
  corrupt_every_byte(m);
}

TEST(Message, EmptyUnitBatchRoundTrips) {
  Message m;
  m.type = MessageType::kUnitBatch;
  m.pilot_id = "p";
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

TEST(Message, HelloV4CarriesPeerEndpoint) {
  Message m;
  m.type = MessageType::kHello;
  m.pilot_id = "pilot-4";
  m.peer_endpoint = "127.0.0.1:45123";
  EXPECT_EQ(round_trip(m), m);
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

TEST(Message, HugeStringCountRejectedWithoutAllocating) {
  // A kObjLocate whose sites list claims 2^31 entries must throw, not
  // attempt the allocation. Rather than hunt for the count's offset,
  // write the huge count at every position and require decode to throw
  // or produce a value — never crash.
  Message m;
  m.type = MessageType::kObjLocate;
  m.pilot_id = "p";
  m.object_id = "o";
  m.sites = {"a", "b"};
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
      // expected for most positions
    }
  }
  SUCCEED();
}

TEST(Message, UnknownVersionRejected) {
  // One wire version: a header naming any other fails with an error that
  // names both, so a mismatched peer's first kHello is a clear error.
  const std::string hello = encode_message(sample(MessageType::kHello));
  for (const int version : {1, 2, 3, 5}) {
    std::string bytes = hello;
    bytes[0] = static_cast<char>(version);
    try {
      (void)decode_message(bytes.data(), bytes.size());
      ADD_FAILURE() << "version " << version << " decoded";
    } catch (const pa::Error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("version " + std::to_string(version)),
                std::string::npos)
          << what;
      EXPECT_NE(what.find("version " + std::to_string(kProtocolVersion)),
                std::string::npos)
          << what;
    }
  }
}

/// Encodes `m`, rewrites the header's version byte to `version` and
/// requires a clean protocol error rather than a decode latch or a crash.
void expect_version_refused(const Message& m, int version) {
  std::string bytes = encode_message(m);
  ASSERT_EQ(static_cast<std::uint8_t>(bytes[0]), kProtocolVersion);
  bytes[0] = static_cast<char>(version);
  EXPECT_THROW(decode_message(bytes.data(), bytes.size()), pa::Error)
      << to_string(m.type) << " at version " << version;
}

TEST(Message, BatchTypesRefuseVersion1Decode) {
  for (auto type : {MessageType::kUnitBatch, MessageType::kUnitDoneBatch}) {
    Message m;
    m.type = type;
    m.pilot_id = "p";
    expect_version_refused(m, 1);
  }
}

TEST(Message, ObjectTypesRefusePreV3Decode) {
  Message m;
  m.type = MessageType::kObjLocate;
  m.pilot_id = "p";
  m.object_id = "o0000000000000001";
  expect_version_refused(m, 2);
}

TEST(Message, PeerTypesRefusePreV4Decode) {
  Message m;
  m.type = MessageType::kPeerDone;
  m.pilot_id = "p";
  m.object_id = "o0000000000000001";
  m.nonce = 5;
  expect_version_refused(m, 3);
}

TEST(Message, UnknownTypeRejected) {
  // 5 and 6 are the retired single-unit types; 0, 20 and 200 were never
  // assigned.
  const std::string hello = encode_message(sample(MessageType::kHello));
  for (const int type : {0, 5, 6, 20, 200}) {
    std::string bytes = hello;
    bytes[1] = static_cast<char>(type);
    EXPECT_THROW(decode_message(bytes.data(), bytes.size()), pa::Error)
        << type;
  }
}

TEST(Message, TrailingBytesRejected) {
  Message m;
  m.type = MessageType::kHeartbeat;
  m.pilot_id = "p";
  std::string bytes = encode_message(m) + "junk";
  EXPECT_THROW(decode_message(bytes.data(), bytes.size()), pa::Error);
}

TEST(Message, FrameHelperRoundTrips) {
  const Message& m = sample(MessageType::kUnitDoneBatch);
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
