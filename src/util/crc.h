// Table-driven CRCs: CRC-8 guards the wireless frames between the
// DistScroll prototype and the logging PC and the calibration EEPROM
// record; CRC-32 guards fleet checkpoints and DSTL containers.
//
// Both are sliced lookups over tables built at compile time from the
// polynomials below: crc8 folds 4 bytes per step (slicing-by-4), crc32
// folds 8 (slicing-by-8), and each finishes the tail a byte at a time.
// tests/util_test.cpp pins them against the bitwise reference loops at
// every length 0-40 and start offset 0-7.
#pragma once

#include <cstdint>
#include <span>

namespace distscroll::util {

/// CRC-8, non-reflected: poly 0x31, init 0x00, no final xor, MSB first.
/// Check value ("123456789") 0xA2. (Not the reflected Dallas/Maxim
/// variant, whose check value is 0xA1.)
[[nodiscard]] std::uint8_t crc8(std::span<const std::uint8_t> data);

/// CRC-32 (IEEE 802.3, reflected poly 0xEDB88320, init/xorout
/// 0xFFFFFFFF). Check value ("123456789") 0xCBF43926.
[[nodiscard]] std::uint32_t crc32(std::span<const std::uint8_t> data);

}  // namespace distscroll::util
