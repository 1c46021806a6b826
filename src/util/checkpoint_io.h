// Versioned binary checkpoint files for interruptible fleet studies.
//
// Format (little-endian throughout):
//   u32 magic      caller-chosen file type tag
//   u32 version    caller-chosen payload schema version
//   u64 payload_size
//   u8  payload[payload_size]
//   u32 crc32      over magic..payload (everything before this field)
//
// Writes go through a ".tmp" sibling plus rename, so an interrupted
// writer never leaves a torn checkpoint behind — the previous intact one
// survives. Readers validate magic, version, size and CRC; any mismatch
// is reported as a typed error, never a partially-restored state.
//
// ByteWriter/ByteReader are the little-endian encoding helpers the
// fleet aggregates use to build the payload (and the quantile sketch's
// serialize() uses the same byte order, so checkpoint bytes are
// platform-stable on all little-endian hosts).
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace distscroll::util {

/// Append-only little-endian encoder over a byte vector.
class ByteWriter {
 public:
  explicit ByteWriter(std::vector<std::uint8_t>& out) : out_(out) {}

  void u8(std::uint8_t v) { out_.push_back(v); }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) out_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) out_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }

 private:
  std::vector<std::uint8_t>& out_;
};

/// Bounds-checked little-endian decoder; every getter returns false on
/// truncation and leaves the output untouched.
class ByteReader {
 public:
  explicit ByteReader(const std::vector<std::uint8_t>& in) : in_(in) {}

  [[nodiscard]] bool u8(std::uint8_t& v) {
    if (cursor_ + 1 > in_.size()) return false;
    v = in_[cursor_++];
    return true;
  }
  [[nodiscard]] bool u32(std::uint32_t& v) {
    if (cursor_ + 4 > in_.size()) return false;
    v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(in_[cursor_++]) << (8 * i);
    return true;
  }
  [[nodiscard]] bool u64(std::uint64_t& v) {
    if (cursor_ + 8 > in_.size()) return false;
    v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(in_[cursor_++]) << (8 * i);
    return true;
  }
  [[nodiscard]] bool f64(double& v) {
    std::uint64_t bits = 0;
    if (!u64(bits)) return false;
    std::memcpy(&v, &bits, sizeof v);
    return true;
  }

  [[nodiscard]] std::size_t cursor() const { return cursor_; }
  [[nodiscard]] bool exhausted() const { return cursor_ == in_.size(); }
  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const { return in_; }

 private:
  const std::vector<std::uint8_t>& in_;
  std::size_t cursor_ = 0;
};

enum class CheckpointStatus : std::uint8_t {
  Ok,
  IoError,        // file EXISTS but can't be read (perms, not a regular
                  // file, transient FS error) — or can't be written
  BadMagic,       // not this kind of checkpoint
  BadVersion,     // schema mismatch
  Corrupt,        // truncated frame or CRC mismatch
  Mismatch,       // intact checkpoint for a DIFFERENT run configuration
  Missing,        // file does not exist (the only "start fresh" signal)
};

[[nodiscard]] const char* to_string(CheckpointStatus status);

/// The frame above around `payload`: the exact bytes
/// write_checkpoint_file puts on disk.
[[nodiscard]] std::vector<std::uint8_t> encode_checkpoint_frame(
    std::uint32_t magic, std::uint32_t version, const std::vector<std::uint8_t>& payload);

/// Validates a frame (size, CRC, magic, version, payload size); on Ok,
/// `payload` holds the frame payload bytes exactly as written.
[[nodiscard]] CheckpointStatus decode_checkpoint_frame(const std::vector<std::uint8_t>& frame,
                                                       std::uint32_t magic,
                                                       std::uint32_t version,
                                                       std::vector<std::uint8_t>& payload);

/// Atomically (tmp + rename) writes `payload` framed as above.
[[nodiscard]] CheckpointStatus write_checkpoint_file(const std::string& path,
                                                     std::uint32_t magic, std::uint32_t version,
                                                     const std::vector<std::uint8_t>& payload);

/// Reads and validates a checkpoint; on Ok, `payload` holds the frame
/// payload bytes exactly as written.
[[nodiscard]] CheckpointStatus read_checkpoint_file(const std::string& path,
                                                    std::uint32_t magic, std::uint32_t version,
                                                    std::vector<std::uint8_t>& payload);

}  // namespace distscroll::util
