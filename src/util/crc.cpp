#include "util/crc.h"

#include <array>
#include <cstddef>

namespace distscroll::util {

namespace {

// Entry i is the register after shifting byte i through eight steps of
// the bitwise algorithm, so one lookup replaces the inner bit loop.
constexpr std::array<std::uint8_t, 256> make_crc8_table() {
  std::array<std::uint8_t, 256> table{};
  for (unsigned i = 0; i < 256; ++i) {
    auto crc = static_cast<std::uint8_t>(i);
    for (int bit = 0; bit < 8; ++bit) {
      crc = static_cast<std::uint8_t>((crc & 0x80u) ? (crc << 1) ^ 0x31u : crc << 1);
    }
    table[i] = crc;
  }
  return table;
}

constexpr std::array<std::uint32_t, 256> make_crc32_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) crc = (crc >> 1) ^ (0xEDB88320u & (0u - (crc & 1u)));
    table[i] = crc;
  }
  return table;
}

// Slice tables: slice[k][x] is the register after byte x followed by k
// zero bytes. With init 0 and no xorout the byte step c' = T[c ^ b] is
// linear, so four bytes fold as
//   T4[c ^ b0] ^ T3[b1] ^ T2[b2] ^ T1[b3]
// where Tk = slice[k - 1] — four independent lookups instead of a chain
// of four dependent ones.
constexpr std::array<std::array<std::uint8_t, 256>, 4> make_crc8_slices() {
  std::array<std::array<std::uint8_t, 256>, 4> slice{};
  slice[0] = make_crc8_table();
  for (std::size_t k = 1; k < slice.size(); ++k) {
    for (unsigned i = 0; i < 256; ++i) slice[k][i] = slice[0][slice[k - 1][i]];
  }
  return slice;
}

// Reflected CRC-32 slicing-by-8: slice[k][x] advances slice[k - 1][x]
// through one more zero byte, so eight bytes fold in eight independent
// lookups (the low four xored with the register first).
constexpr std::array<std::array<std::uint32_t, 256>, 8> make_crc32_slices() {
  std::array<std::array<std::uint32_t, 256>, 8> slice{};
  slice[0] = make_crc32_table();
  for (std::size_t k = 1; k < slice.size(); ++k) {
    for (unsigned i = 0; i < 256; ++i) {
      slice[k][i] = (slice[k - 1][i] >> 8) ^ slice[0][slice[k - 1][i] & 0xFFu];
    }
  }
  return slice;
}

constexpr auto kCrc8 = make_crc8_slices();
constexpr auto kCrc32 = make_crc32_slices();

}  // namespace

std::uint8_t crc8(std::span<const std::uint8_t> data) {
  std::uint8_t crc = 0x00;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  for (; n >= 4; n -= 4, p += 4) {
    crc = kCrc8[3][crc ^ p[0]] ^ kCrc8[2][p[1]] ^ kCrc8[1][p[2]] ^ kCrc8[0][p[3]];
  }
  for (; n > 0; --n) crc = kCrc8[0][crc ^ *p++];
  return crc;
}

std::uint32_t crc32(std::span<const std::uint8_t> data) {
  std::uint32_t crc = 0xFFFFFFFFu;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  for (; n >= 8; n -= 8, p += 8) {
    // Little-endian assembly independent of host byte order; compilers
    // fold it to one load.
    const std::uint32_t lo = crc ^ (static_cast<std::uint32_t>(p[0]) |
                                    static_cast<std::uint32_t>(p[1]) << 8 |
                                    static_cast<std::uint32_t>(p[2]) << 16 |
                                    static_cast<std::uint32_t>(p[3]) << 24);
    crc = kCrc32[7][lo & 0xFFu] ^ kCrc32[6][(lo >> 8) & 0xFFu] ^ kCrc32[5][(lo >> 16) & 0xFFu] ^
          kCrc32[4][lo >> 24] ^ kCrc32[3][p[4]] ^ kCrc32[2][p[5]] ^ kCrc32[1][p[6]] ^
          kCrc32[0][p[7]];
  }
  for (; n > 0; --n) crc = (crc >> 8) ^ kCrc32[0][(crc ^ *p++) & 0xFFu];
  return crc ^ 0xFFFFFFFFu;
}

}  // namespace distscroll::util
