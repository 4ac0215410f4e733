#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "pa/common/time_utils.h"
#include "pa/net/message.h"
#include "pa/store/agent.h"
#include "pa/store/chunking.h"
#include "pa/store/token.h"

namespace pa::store {
namespace {

std::string pattern_bytes(std::size_t n, char seed) {
  std::string s(n, '\0');
  for (std::size_t i = 0; i < n; ++i) {
    s[i] = static_cast<char>((seed + i * 131) & 0xff);
  }
  return s;
}

TransferToken sample_token() {
  TransferToken t;
  t.object_id = "o0123456789abcdef";
  t.transfer_id = 42;
  t.object_bytes = 1000;
  t.source_pilot = "p-src";
  t.dest_pilot = "p-dst";
  t.chunk_begin = 0;
  t.chunk_end = 0;  // through the last chunk
  t.deadline = 12345.5;
  t.nonce = 7;
  return t;
}

TEST(TransferTokenTest, MacChangesWithEveryFieldAndTheKey) {
  const TransferToken base = sample_token();
  const std::uint64_t mac = token_mac(base, "key");
  EXPECT_EQ(mac, token_mac(base, "key"));  // deterministic
  EXPECT_NE(mac, token_mac(base, "other-key"));

  std::vector<TransferToken> mutants(8, base);
  mutants[0].object_id = "o0123456789abcdee";
  mutants[1].transfer_id = 43;
  mutants[2].object_bytes = 1001;
  mutants[3].source_pilot = "p-src2";
  mutants[4].dest_pilot = "p-dst2";
  mutants[5].chunk_begin = 1;
  mutants[6].deadline = 12345.6;
  mutants[7].nonce = 8;
  for (std::size_t i = 0; i < mutants.size(); ++i) {
    EXPECT_NE(token_mac(mutants[i], "key"), mac) << "field " << i;
    EXPECT_FALSE(token_valid(mutants[i], "key", mac)) << "field " << i;
  }
  EXPECT_TRUE(token_valid(base, "key", mac));
  EXPECT_FALSE(token_valid(base, "wrong", mac));
}

TEST(TransferTokenTest, MessageRoundTripPreservesEveryField) {
  const TransferToken t = sample_token();
  const std::uint64_t mac = token_mac(t, "key");
  net::Message m;
  m.type = net::MessageType::kXferToken;
  m.pilot_id = "p-dst";
  token_to_message(t, mac, m);
  m.peer_endpoint = "inproc://peer-src";
  m.success = true;

  const std::string wire = net::encode_message(m);
  const net::Message back = net::decode_message(wire.data(), wire.size());
  EXPECT_EQ(token_from_message(back), t);
  EXPECT_EQ(back.mac, mac);
  EXPECT_EQ(back.peer_endpoint, "inproc://peer-src");
  EXPECT_TRUE(token_valid(token_from_message(back), "key", back.mac));
}

/// Harness for source-side token validation: a StoreAgent holding one
/// object, presented with crafted kPeerOffer frames.
struct SourceFixture {
  SourceFixture() {
    agent.set_identity("p-src");
    agent.set_token_key("fleet-key");
    const PutResult r = agent.shard().put(bytes);
    object_id = r.object_id;
  }

  TransferToken grant(std::uint64_t nonce) {
    TransferToken t;
    t.object_id = object_id;
    t.transfer_id = 100 + nonce;
    t.object_bytes = bytes.size();
    t.source_pilot = "p-src";
    t.dest_pilot = "p-dst";
    t.deadline = pa::wall_seconds() + 30.0;
    t.nonce = nonce;
    return t;
  }

  static net::Message offer_of(const TransferToken& t, std::uint64_t mac) {
    net::Message m;
    m.type = net::MessageType::kPeerOffer;
    m.pilot_id = "p-dst";  // the presenter's header stamp
    token_to_message(t, mac, m);
    return m;
  }

  PeerResult present(const TransferToken& t, std::uint64_t mac,
                     const std::string& presenter = "p-dst") {
    return agent.handle_peer(offer_of(t, mac), presenter);
  }

  static bool is_nack(const PeerResult& r) {
    return r.to_peer.size() == 1 && r.to_peer[0].chunk_count == 0;
  }

  const std::string bytes = pattern_bytes(3000, 5);
  std::string object_id;
  StoreAgent agent;
};

TEST(TokenCheck, ValidTokenStreamsTheChunkRange) {
  SourceFixture fx;
  const TransferToken t = fx.grant(1);
  const PeerResult r = fx.present(t, token_mac(t, "fleet-key"));
  ASSERT_FALSE(r.to_peer.empty());
  EXPECT_GT(r.to_peer[0].chunk_count, 0u);
  std::string assembled;
  for (const net::Message& c : r.to_peer) {
    EXPECT_EQ(c.type, net::MessageType::kPeerChunk);
    EXPECT_EQ(c.object_id, fx.object_id);
    EXPECT_EQ(c.chunk_crc, chunk_crc(c.chunk_data));
    assembled += c.chunk_data;
  }
  EXPECT_EQ(assembled, fx.bytes);
  EXPECT_TRUE(r.to_manager.empty());
  EXPECT_EQ(fx.agent.token_stats().validated, 1u);
}

TEST(TokenCheck, ExpiredTokenRejected) {
  SourceFixture fx;
  TransferToken t = fx.grant(2);
  t.deadline = pa::wall_seconds() - 1.0;  // already dead
  const PeerResult r = fx.present(t, token_mac(t, "fleet-key"));
  EXPECT_TRUE(SourceFixture::is_nack(r));
  EXPECT_EQ(fx.agent.token_stats().rejected_expired, 1u);
  EXPECT_EQ(fx.agent.token_stats().validated, 0u);
}

TEST(TokenCheck, TamperedTokenRejected) {
  SourceFixture fx;
  TransferToken t = fx.grant(3);
  const std::uint64_t mac = token_mac(t, "fleet-key");
  t.object_bytes += 1;  // tamper after signing
  const PeerResult r = fx.present(t, mac);
  EXPECT_TRUE(SourceFixture::is_nack(r));
  EXPECT_EQ(fx.agent.token_stats().rejected_mac, 1u);
}

TEST(TokenCheck, WrongPresenterAndWrongSourceRejected) {
  SourceFixture fx;
  const TransferToken t = fx.grant(4);
  const std::uint64_t mac = token_mac(t, "fleet-key");
  // A pilot the token does not name presents it (stolen token).
  PeerResult r = fx.present(t, mac, "p-eve");
  EXPECT_TRUE(SourceFixture::is_nack(r));
  // A token naming a different source lands here by mistake.
  TransferToken other = fx.grant(5);
  other.source_pilot = "p-elsewhere";
  r = fx.present(other, token_mac(other, "fleet-key"));
  EXPECT_TRUE(SourceFixture::is_nack(r));
  EXPECT_EQ(fx.agent.token_stats().rejected_dest, 2u);
}

TEST(TokenCheck, ReplayAfterUseRejected) {
  SourceFixture fx;
  const TransferToken t = fx.grant(6);
  const std::uint64_t mac = token_mac(t, "fleet-key");
  EXPECT_FALSE(SourceFixture::is_nack(fx.present(t, mac)));
  // Same nonce again: the ledger burns it on first use.
  EXPECT_TRUE(SourceFixture::is_nack(fx.present(t, mac)));
  EXPECT_EQ(fx.agent.token_stats().validated, 1u);
  EXPECT_EQ(fx.agent.token_stats().rejected_replayed, 1u);
}

TEST(TokenCheck, RevokedTokenRejectedEvenBeforeFirstUse) {
  SourceFixture fx;
  const TransferToken t = fx.grant(7);
  fx.agent.revoke_token(t.nonce);
  const PeerResult r = fx.present(t, token_mac(t, "fleet-key"));
  EXPECT_TRUE(SourceFixture::is_nack(r));
  EXPECT_EQ(fx.agent.token_stats().rejected_replayed, 1u);
}

TEST(TokenCheck, UnsetKeyValidatesNothing) {
  SourceFixture fx;
  fx.agent.set_token_key("");
  const TransferToken t = fx.grant(8);
  const PeerResult r = fx.present(t, token_mac(t, "fleet-key"));
  EXPECT_TRUE(SourceFixture::is_nack(r));
  EXPECT_EQ(fx.agent.token_stats().rejected_mac, 1u);
}

TEST(TokenCheck, EvictedObjectNacksAndAnnouncesLoss) {
  SourceFixture fx;
  ASSERT_TRUE(fx.agent.shard().erase(fx.object_id));
  const TransferToken t = fx.grant(9);
  const PeerResult r = fx.present(t, token_mac(t, "fleet-key"));
  EXPECT_TRUE(SourceFixture::is_nack(r));
  // The manager's directory entry is stale; the source says so.
  ASSERT_EQ(r.to_manager.size(), 1u);
  EXPECT_EQ(r.to_manager[0].type, net::MessageType::kObjLocate);
  EXPECT_FALSE(r.to_manager[0].success);
  // The nonce still burned: a retry of the same token is a replay.
  EXPECT_TRUE(SourceFixture::is_nack(fx.present(t, token_mac(t, "fleet-key"))));
  EXPECT_EQ(fx.agent.token_stats().rejected_replayed, 1u);
}

TEST(TokenCheck, DestAssemblesPeerChunksAndReportsDone) {
  SourceFixture src;
  StoreAgent dst;
  dst.set_identity("p-dst");
  dst.set_token_key("fleet-key");

  // The manager's grant arrives at the destination as kXferToken.
  const TransferToken t = src.grant(10);
  const std::uint64_t mac = token_mac(t, "fleet-key");
  net::Message grant_msg;
  grant_msg.type = net::MessageType::kXferToken;
  grant_msg.pilot_id = "p-dst";
  token_to_message(t, mac, grant_msg);
  grant_msg.success = true;
  const auto offer = dst.begin_peer_pull(grant_msg);
  ASSERT_TRUE(offer.has_value());
  EXPECT_EQ(offer->type, net::MessageType::kPeerOffer);

  // Source serves the offer; dest assembles the stream.
  const PeerResult served = src.agent.handle_peer(*offer, "p-dst");
  ASSERT_FALSE(served.to_peer.empty());
  PeerResult last;
  for (const net::Message& chunk : served.to_peer) {
    last = dst.handle_peer(chunk, "p-src");
  }
  ASSERT_EQ(last.to_manager.size(), 1u);
  const net::Message& done = last.to_manager[0];
  EXPECT_EQ(done.type, net::MessageType::kPeerDone);
  EXPECT_TRUE(done.success);
  EXPECT_EQ(done.nonce, t.nonce);
  EXPECT_EQ(done.object_bytes, src.bytes.size());
  EXPECT_EQ(dst.shard().get(src.object_id).value_or(""), src.bytes);
}

TEST(TokenCheck, TokenForAnotherDestinationIsNotPulled) {
  StoreAgent dst;
  dst.set_identity("p-dst");
  TransferToken t;
  t.object_id = "o0123456789abcdef";
  t.transfer_id = 1;
  t.dest_pilot = "p-other";
  net::Message grant_msg;
  grant_msg.type = net::MessageType::kXferToken;
  token_to_message(t, 0, grant_msg);
  grant_msg.success = true;
  EXPECT_FALSE(dst.begin_peer_pull(grant_msg).has_value());
}

}  // namespace
}  // namespace pa::store
