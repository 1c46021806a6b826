#include "util/crc.h"

#include <array>

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

constexpr auto kCrc8Table = make_crc8_table();
constexpr auto kCrc32Table = make_crc32_table();

}  // namespace

std::uint8_t crc8(std::span<const std::uint8_t> data) {
  std::uint8_t crc = 0x00;
  for (const std::uint8_t byte : data) crc = kCrc8Table[crc ^ byte];
  return crc;
}

std::uint32_t crc32(std::span<const std::uint8_t> data) {
  std::uint32_t crc = 0xFFFFFFFFu;
  for (const std::uint8_t byte : data) crc = (crc >> 8) ^ kCrc32Table[(crc ^ byte) & 0xFFu];
  return crc ^ 0xFFFFFFFFu;
}

}  // namespace distscroll::util
