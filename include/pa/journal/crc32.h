#pragma once
/// \file crc32.h
/// \brief CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) used to
/// checksum journal record payloads, wire frames and store chunks.
///
/// Self-contained so the journal has no dependency on zlib; the tables are
/// built once, on first use. The algorithm matches zlib's `crc32`, which
/// keeps journals inspectable with standard tooling.
///
/// `crc32` runs slicing-by-8: eight 256-entry tables fold eight input
/// bytes per step instead of one, with the same polynomial and therefore
/// bit-identical results to the byte-at-a-time loop (kept as
/// `detail::crc32_bytewise`, which also finishes the sub-8-byte tail).
/// Input bytes are assembled explicitly, so any start alignment and either
/// host byte order give the same checksum.

#include <array>
#include <cstddef>
#include <cstdint>

namespace pa::journal {

namespace detail {

using Crc32Tables = std::array<std::array<std::uint32_t, 256>, 8>;

/// `t[0]` is the classic byte table; `t[k][i]` advances `t[k-1][i]` by
/// one more zero byte, so `t[k]` folds a byte that sits k bytes deeper.
inline const Crc32Tables& crc32_tables() {
  static const Crc32Tables tables = [] {
    Crc32Tables t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1U) != 0 ? 0xEDB88320U ^ (c >> 1) : c >> 1;
      }
      t[0][i] = c;
    }
    for (std::size_t k = 1; k < 8; ++k) {
      for (std::size_t i = 0; i < 256; ++i) {
        const std::uint32_t prev = t[k - 1][i];
        t[k][i] = (prev >> 8) ^ t[0][prev & 0xFFU];
      }
    }
    return t;
  }();
  return tables;
}

/// Byte-at-a-time update of the running (pre-inverted) register `c`.
inline std::uint32_t crc32_bytewise(std::uint32_t c, const unsigned char* bytes,
                                    std::size_t size) {
  const auto& t0 = crc32_tables()[0];
  for (std::size_t i = 0; i < size; ++i) {
    c = t0[(c ^ bytes[i]) & 0xFFU] ^ (c >> 8);
  }
  return c;
}

inline std::uint32_t load_le32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

}  // namespace detail

/// CRC-32 of `size` bytes at `data` (zlib-compatible).
inline std::uint32_t crc32(const void* data, std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  const auto& t = detail::crc32_tables();
  std::uint32_t c = 0xFFFFFFFFU;
  for (; size >= 8; bytes += 8, size -= 8) {
    const std::uint32_t lo = c ^ detail::load_le32(bytes);
    const std::uint32_t hi = detail::load_le32(bytes + 4);
    c = t[7][lo & 0xFFU] ^ t[6][(lo >> 8) & 0xFFU] ^
        t[5][(lo >> 16) & 0xFFU] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFU] ^
        t[2][(hi >> 8) & 0xFFU] ^ t[1][(hi >> 16) & 0xFFU] ^ t[0][hi >> 24];
  }
  return detail::crc32_bytewise(c, bytes, size) ^ 0xFFFFFFFFU;
}

}  // namespace pa::journal
