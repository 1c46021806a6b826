// Fuzzing the DSFL fleet checkpoint and the DSTR trace container
// (seeded, deterministic — the same structural fuzz host_fuzz_test.cpp
// gives DSTL).
//
// Obligation: totality. Every input is either rejected with a typed
// status / nullopt, or decodes into a state that can be used — never a
// crash, hang, over-read or runaway allocation (asan-verified under
// scripts/check.sh). Inputs: byte mutations (for DSFL with the frame's
// CRC-32 recomputed, so the structural checks behind the checksum are
// what must hold), truncations and extensions of valid containers, and
// random blobs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "obs/trace_io.h"
#include "sim/random.h"
#include "study/fleet_study.h"
#include "util/checkpoint_io.h"
#include "util/crc.h"

namespace {

using namespace distscroll;

// --- DSFL: fleet checkpoints ---------------------------------------------------

constexpr std::size_t kFrameHeader = 16;  // magic, version, payload size
constexpr std::size_t kFrameTrailer = 4;  // CRC-32

study::FleetStudyConfig small_fleet() {
  study::FleetStudyConfig config;
  config.participants = 96;
  config.chunk = 32;
  config.threads = 1;
  return config;
}

/// A real mid-run checkpoint frame: two of three chunks folded, so every
/// aggregate (moments, histogram, sketch levels) carries data.
struct FleetFrame {
  std::vector<std::uint8_t> bytes;
  std::size_t aggregates_at = 0;  // first byte of the serialized aggregates
};

FleetFrame fleet_frame(const study::FleetStudyConfig& config) {
  const auto partial = study::run_fleet(config, 64);
  EXPECT_EQ(partial.cursor, 64u);
  FleetFrame frame;
  frame.bytes = util::encode_checkpoint_frame(
      study::kFleetCheckpointMagic, study::kFleetCheckpointVersion,
      study::encode_fleet_checkpoint(config, partial.cursor, partial.aggregates));
  frame.aggregates_at = frame.bytes.size() - kFrameTrailer - partial.aggregates.to_bytes().size();
  return frame;
}

std::vector<std::uint8_t> head(const std::vector<std::uint8_t>& bytes, std::size_t n) {
  return {bytes.begin(), bytes.begin() + static_cast<std::ptrdiff_t>(n)};
}

/// Overwrite `width` bytes at `at` with `value`, little-endian.
void put_le(std::vector<std::uint8_t>& bytes, std::size_t at, std::uint64_t value,
            std::size_t width) {
  for (std::size_t b = 0; b < width; ++b) {
    bytes[at + b] = static_cast<std::uint8_t>(value >> (8 * b));
  }
}

void refix_crc(std::vector<std::uint8_t>& frame) {
  const std::size_t crc_at = frame.size() - kFrameTrailer;
  put_le(frame, crc_at, util::crc32({frame.data(), crc_at}), kFrameTrailer);
}

/// Decodes a frame the way run_fleet's resume does. On success the state
/// must re-encode to the same payload bytes and survive use: quantile
/// queries, a merge and a fold through the sketch's compaction.
util::CheckpointStatus decode_and_use(const std::vector<std::uint8_t>& frame,
                                      const study::FleetStudyConfig& config) {
  std::vector<std::uint8_t> payload;
  const auto frame_status = util::decode_checkpoint_frame(
      frame, study::kFleetCheckpointMagic, study::kFleetCheckpointVersion, payload);
  if (frame_status != util::CheckpointStatus::Ok) return frame_status;
  std::uint64_t cursor = 0;
  study::FleetAggregates aggregates;
  const auto status = study::decode_fleet_checkpoint(payload, config, cursor, aggregates);
  if (status != util::CheckpointStatus::Ok) return status;
  EXPECT_LE(cursor, config.participants);
  EXPECT_EQ(study::encode_fleet_checkpoint(config, cursor, aggregates), payload);
  static_cast<void>(aggregates.time_sketch().quantile(0.5));
  static_cast<void>(aggregates.time_sketch().quantile(0.99));
  study::FleetAggregates merged;
  merged.merge(aggregates);
  study::TrialRecord record;
  record.outcome.success = true;
  record.outcome.time_s = 1.5;
  record.outcome.id_bits = 2.0;
  for (int i = 0; i < 300; ++i) merged.fold_trial(record);
  static_cast<void>(merged.time_sketch().quantile(0.5));
  return status;
}

TEST(CheckpointFuzz, ValidFrameRoundTrips) {
  const auto config = small_fleet();
  const auto frame = fleet_frame(config).bytes;
  EXPECT_EQ(decode_and_use(frame, config), util::CheckpointStatus::Ok);
}

TEST(CheckpointFuzz, CrcFixedMutationsDecodeOrRejectCleanly) {
  const auto config = small_fleet();
  const auto [frame, aggregates_at] = fleet_frame(config);
  // The identity block opens the payload; mutations there end in
  // Mismatch, so half the iterations aim past it at the aggregates.
  sim::Rng rng(0xD5F1);
  int ok = 0;
  for (int iteration = 0; iteration < 3000; ++iteration) {
    auto mutated = frame;
    const std::size_t lo = iteration % 2 == 0 ? 0 : aggregates_at;
    const int mutations = rng.uniform_int(1, 6);
    for (int m = 0; m < mutations; ++m) {
      const auto at = static_cast<std::size_t>(rng.uniform_int(
          static_cast<int>(lo), static_cast<int>(mutated.size() - kFrameTrailer) - 1));
      mutated[at] = static_cast<std::uint8_t>(rng.uniform_int(0, 0xFF));
    }
    refix_crc(mutated);
    if (decode_and_use(mutated, config) == util::CheckpointStatus::Ok) ++ok;
  }
  // Mutated doubles and counters still decode (the checksum, not the
  // structure, is what guards values): the fuzz reached the state's use.
  EXPECT_GT(ok, 0);
}

TEST(CheckpointFuzz, UnfixedMutationsFailTheCrc) {
  const auto config = small_fleet();
  const auto frame = fleet_frame(config).bytes;
  sim::Rng rng(0xC4C);
  for (int iteration = 0; iteration < 1000; ++iteration) {
    auto mutated = frame;
    const auto at = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<int>(mutated.size()) - 1));
    mutated[at] ^= static_cast<std::uint8_t>(rng.uniform_int(1, 0xFF));
    EXPECT_EQ(decode_and_use(mutated, config), util::CheckpointStatus::Corrupt);
  }
}

TEST(CheckpointFuzz, TruncationsAndExtensionsAlwaysRejectCleanly) {
  const auto config = small_fleet();
  const auto frame = fleet_frame(config).bytes;
  for (std::size_t n = 0; n < frame.size(); ++n) {
    ASSERT_NE(decode_and_use(head(frame, n), config), util::CheckpointStatus::Ok) << "prefix " << n;
  }
  // Payload-level truncation and extension behind a valid CRC: the
  // frame is intact, the fleet decoder must reject.
  std::vector<std::uint8_t> payload;
  ASSERT_EQ(util::decode_checkpoint_frame(frame, study::kFleetCheckpointMagic,
                                          study::kFleetCheckpointVersion, payload),
            util::CheckpointStatus::Ok);
  for (std::size_t n = 0; n < payload.size(); ++n) {
    const auto reframed = util::encode_checkpoint_frame(
        study::kFleetCheckpointMagic, study::kFleetCheckpointVersion, head(payload, n));
    ASSERT_NE(decode_and_use(reframed, config), util::CheckpointStatus::Ok) << "payload " << n;
  }
  for (const std::size_t extra : {1u, 7u, 64u}) {
    auto longer = payload;
    longer.resize(payload.size() + extra, 0);
    const auto reframed = util::encode_checkpoint_frame(
        study::kFleetCheckpointMagic, study::kFleetCheckpointVersion, longer);
    EXPECT_EQ(decode_and_use(reframed, config), util::CheckpointStatus::Corrupt) << extra;
    auto frame_longer = frame;
    frame_longer.resize(frame.size() + extra, 0);
    EXPECT_EQ(decode_and_use(frame_longer, config), util::CheckpointStatus::Corrupt) << extra;
  }
}

TEST(CheckpointFuzz, RandomBlobsNeverCrashTheDecoder) {
  const auto config = small_fleet();
  const auto [frame, aggregates_at] = fleet_frame(config);
  sim::Rng rng(0xB10C);
  std::vector<std::uint8_t> blob;
  for (int iteration = 0; iteration < 3000; ++iteration) {
    blob.resize(static_cast<std::size_t>(rng.uniform_int(0, 2 * static_cast<int>(frame.size()))));
    for (auto& byte : blob) byte = static_cast<std::uint8_t>(rng.uniform_int(0, 0xFF));
    // A quarter get the real header, identity block and cursor, a
    // matching payload size and a valid CRC, so random bytes reach the
    // aggregate parser.
    if (iteration % 4 == 0 && blob.size() >= aggregates_at + kFrameTrailer) {
      std::copy(frame.begin(), frame.begin() + static_cast<std::ptrdiff_t>(aggregates_at),
                blob.begin());
      put_le(blob, 8, blob.size() - kFrameHeader - kFrameTrailer, 8);
      refix_crc(blob);
    }
    static_cast<void>(decode_and_use(blob, config));
  }
}

// --- DSTR: trace containers ----------------------------------------------------

obs::Trace random_trace(sim::Rng& rng, int events) {
  obs::Trace trace;
  trace.session_id = static_cast<std::uint16_t>(rng.uniform_int(0, 0xFFFF));
  trace.category_mask = static_cast<std::uint32_t>(rng.next_u64());
  trace.dropped = rng.next_u64();
  for (int i = 0; i < events; ++i) {
    obs::TraceEvent event;
    event.time_s = 0.004 * i;
    event.kind = static_cast<obs::EventKind>(rng.uniform_int(1, 13));
    event.a = static_cast<std::uint32_t>(rng.next_u64());
    event.b = static_cast<std::uint32_t>(rng.next_u64());
    trace.events.push_back(event);
  }
  return trace;
}

/// A decoded trace must re-serialize to the input and render as JSONL.
void expect_usable(const std::vector<std::uint8_t>& bytes) {
  const auto decoded = obs::deserialize(bytes);
  if (!decoded) return;
  EXPECT_EQ(obs::serialize(*decoded), bytes);
  std::ostringstream jsonl;
  obs::write_jsonl(jsonl, *decoded);
  const std::string lines = jsonl.str();
  EXPECT_EQ(static_cast<std::size_t>(std::count(lines.begin(), lines.end(), '\n')),
            decoded->events.size());
}

TEST(TraceFuzz, RoundTripArbitraryTraces) {
  sim::Rng rng(0x75A);
  for (int iteration = 0; iteration < 200; ++iteration) {
    const auto trace = random_trace(rng, rng.uniform_int(0, 80));
    const auto decoded = obs::deserialize(obs::serialize(trace));
    ASSERT_TRUE(decoded.has_value());
    ASSERT_EQ(*decoded, trace);
  }
}

TEST(TraceFuzz, MutatedContainersDecodeOrRejectCleanly) {
  sim::Rng rng(0xD57);
  const auto bytes = obs::serialize(random_trace(rng, 60));
  for (int iteration = 0; iteration < 3000; ++iteration) {
    auto mutated = bytes;
    const int mutations = rng.uniform_int(1, 8);
    for (int m = 0; m < mutations; ++m) {
      // Bias toward the header, where the count and version live.
      const int hi = iteration % 2 == 0 ? 23 : static_cast<int>(mutated.size()) - 1;
      mutated[static_cast<std::size_t>(rng.uniform_int(0, hi))] =
          static_cast<std::uint8_t>(rng.uniform_int(0, 0xFF));
    }
    expect_usable(mutated);
  }
}

TEST(TraceFuzz, TruncationsAndExtensionsAlwaysRejectCleanly) {
  sim::Rng rng(0x7C);
  const auto bytes = obs::serialize(random_trace(rng, 20));
  for (std::size_t n = 0; n < bytes.size(); ++n) {
    ASSERT_FALSE(obs::deserialize(head(bytes, n)).has_value()) << "prefix " << n;
  }
  for (const std::size_t extra : {1u, 16u, 17u, 18u}) {
    auto longer = bytes;
    longer.resize(bytes.size() + extra, 0);
    EXPECT_FALSE(obs::deserialize(longer).has_value()) << extra;
  }
}

TEST(TraceFuzz, RandomBlobsNeverCrashTheDecoder) {
  sim::Rng rng(0xB10D);
  std::vector<std::uint8_t> blob;
  for (int iteration = 0; iteration < 4000; ++iteration) {
    blob.resize(static_cast<std::size_t>(rng.uniform_int(0, 600)));
    for (auto& byte : blob) byte = static_cast<std::uint8_t>(rng.uniform_int(0, 0xFF));
    // Half get the magic, version and a count that matches the length,
    // so the event parser runs on random event bytes.
    if (iteration % 2 == 0 && blob.size() >= 24) {
      blob.resize(24 + 17 * ((blob.size() - 24) / 17));
      blob[0] = 'D'; blob[1] = 'S'; blob[2] = 'T'; blob[3] = 'R';
      blob[4] = 1; blob[5] = 0;
      put_le(blob, 12, (blob.size() - 24) / 17, 4);
    }
    expect_usable(blob);
  }
}

}  // namespace
