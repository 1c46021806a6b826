#include "util/checkpoint_io.h"

#include <sys/stat.h>

#include <cerrno>
#include <cstdio>
#include <fstream>

#include "util/crc.h"

namespace distscroll::util {

const char* to_string(CheckpointStatus status) {
  switch (status) {
    case CheckpointStatus::Ok: return "ok";
    case CheckpointStatus::IoError: return "io error";
    case CheckpointStatus::BadMagic: return "bad magic (not a checkpoint of this type)";
    case CheckpointStatus::BadVersion: return "unsupported checkpoint version";
    case CheckpointStatus::Corrupt: return "corrupt checkpoint (truncated or CRC mismatch)";
    case CheckpointStatus::Mismatch: return "checkpoint belongs to a different run configuration";
    case CheckpointStatus::Missing: return "no checkpoint file";
  }
  return "unknown";
}

std::vector<std::uint8_t> encode_checkpoint_frame(std::uint32_t magic, std::uint32_t version,
                                                  const std::vector<std::uint8_t>& payload) {
  std::vector<std::uint8_t> frame;
  frame.reserve(payload.size() + 20);
  ByteWriter writer(frame);
  writer.u32(magic);
  writer.u32(version);
  writer.u64(payload.size());
  frame.insert(frame.end(), payload.begin(), payload.end());
  const std::uint32_t crc = crc32({frame.data(), frame.size()});
  writer.u32(crc);
  return frame;
}

CheckpointStatus decode_checkpoint_frame(const std::vector<std::uint8_t>& frame,
                                         std::uint32_t magic, std::uint32_t version,
                                         std::vector<std::uint8_t>& payload) {
  if (frame.size() < 20) return CheckpointStatus::Corrupt;

  const std::size_t crc_at = frame.size() - 4;
  const std::uint32_t stored_crc = static_cast<std::uint32_t>(frame[crc_at]) |
                                   static_cast<std::uint32_t>(frame[crc_at + 1]) << 8 |
                                   static_cast<std::uint32_t>(frame[crc_at + 2]) << 16 |
                                   static_cast<std::uint32_t>(frame[crc_at + 3]) << 24;
  if (crc32({frame.data(), crc_at}) != stored_crc) return CheckpointStatus::Corrupt;

  ByteReader reader(frame);
  std::uint32_t file_magic = 0, file_version = 0;
  std::uint64_t payload_size = 0;
  if (!reader.u32(file_magic) || !reader.u32(file_version) || !reader.u64(payload_size)) {
    return CheckpointStatus::Corrupt;
  }
  if (file_magic != magic) return CheckpointStatus::BadMagic;
  if (file_version != version) return CheckpointStatus::BadVersion;
  if (payload_size != frame.size() - 20) return CheckpointStatus::Corrupt;
  payload.assign(frame.begin() + 16, frame.begin() + 16 + static_cast<std::ptrdiff_t>(payload_size));
  return CheckpointStatus::Ok;
}

CheckpointStatus write_checkpoint_file(const std::string& path, std::uint32_t magic,
                                       std::uint32_t version,
                                       const std::vector<std::uint8_t>& payload) {
  const std::vector<std::uint8_t> frame = encode_checkpoint_frame(magic, version, payload);
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return CheckpointStatus::IoError;
    out.write(reinterpret_cast<const char*>(frame.data()),
              static_cast<std::streamsize>(frame.size()));
    if (!out) return CheckpointStatus::IoError;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return CheckpointStatus::IoError;
  }
  return CheckpointStatus::Ok;
}

CheckpointStatus read_checkpoint_file(const std::string& path, std::uint32_t magic,
                                      std::uint32_t version,
                                      std::vector<std::uint8_t>& payload) {
  // Missing vs unreadable matters to callers: a resume may start fresh
  // on Missing, but must NOT silently restart over a file that exists
  // yet can't be read (permissions, transient FS error, wrong type).
  struct stat st{};
  if (::stat(path.c_str(), &st) != 0) {
    return errno == ENOENT ? CheckpointStatus::Missing : CheckpointStatus::IoError;
  }
  if (!S_ISREG(st.st_mode)) return CheckpointStatus::IoError;
  std::ifstream in(path, std::ios::binary);
  if (!in) return CheckpointStatus::IoError;
  const std::vector<std::uint8_t> frame((std::istreambuf_iterator<char>(in)),
                                        std::istreambuf_iterator<char>());
  return decode_checkpoint_frame(frame, magic, version, payload);
}

}  // namespace distscroll::util
