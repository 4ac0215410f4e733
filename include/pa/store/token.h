#pragma once
/// \file token.h
/// \brief Signed, expiring transfer grants for the brokered data plane.
///
/// The manager is the sole placement authority but no longer relays
/// bytes: it mints a TransferToken naming exactly one transfer — object,
/// source, dest, chunk range, absolute deadline, single-use nonce — MACs
/// it under a fleet-wide secret, and hands it to the *destination* pilot
/// (kXferToken). The dest presents the token to the source over the peer
/// channel (kPeerOffer); the source validates the MAC offline with the
/// secret it received in kStartPilot and serves the chunks directly. No
/// agent can originate a transfer the manager did not grant, a grant dies
/// at its deadline, and a nonce replayed after use or revocation is
/// rejected at the source.
///
/// The MAC is keyed FNV-1a-64 over a canonical serialization — like the
/// content hash (chunking.h) it defends against confusion and stale
/// grants inside a cooperating fleet, not cryptographic adversaries.

#include <cstdint>
#include <string>

#include "pa/net/message.h"

namespace pa::store {

/// One transfer grant. `deadline` is absolute pa::wall_seconds; a token
/// presented after it is dead. `chunk_end` is exclusive; a whole-object
/// grant spans [0, chunk_count).
struct TransferToken {
  std::string object_id;
  std::uint64_t transfer_id = 0;
  std::uint64_t object_bytes = 0;
  std::string source_pilot;
  std::string dest_pilot;
  std::uint32_t chunk_begin = 0;
  std::uint32_t chunk_end = 0;
  double deadline = 0.0;
  std::uint64_t nonce = 0;

  bool operator==(const TransferToken&) const = default;
};

/// Keyed FNV-1a-64 over the key bytes followed by the token's canonical
/// field serialization (length-prefixed strings, fixed-width integers,
/// the deadline's bit pattern). Any field or key change changes the MAC.
std::uint64_t token_mac(const TransferToken& token, const std::string& key);

/// True when `mac` is exactly token_mac(token, key).
bool token_valid(const TransferToken& token, const std::string& key,
                 std::uint64_t mac);

/// Stamps the token fields (plus its MAC) onto a kXferToken / kPeerOffer
/// message body. Leaves type, pilot_id, seq and peer_endpoint alone.
void token_to_message(const TransferToken& token, std::uint64_t mac,
                      net::Message& m);

/// Reads the token fields back off a kXferToken / kPeerOffer message.
TransferToken token_from_message(const net::Message& m);

}  // namespace pa::store
