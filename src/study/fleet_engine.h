// Streaming fleet engine: sweeps over populations too large to store.
//
// SweepRunner pre-sizes one result slot per cell, so study size is
// capped by memory. FleetEngine removes the cap: participants are
// generated on the fly from their index, folded CHUNK by chunk into
// mergeable online aggregates, and only the aggregates survive. Memory
// is O(window_chunks × (|Agg| + chunk × |Record|)): one window of
// per-participant results plus one aggregate slot per chunk, independent
// of the participant count.
//
// Each window of `window_chunks` chunks runs in two phases:
//  1. SIMULATE ANYWHERE — the window's participants are cut into blocks
//     of kBlock, claimed dynamically by any pool thread; a block writes
//     each participant's Record into the store slot `participant % span`
//     (span = min(window_chunks × chunk, participants), sized once per
//     run). Small blocks keep every thread busy until the window ends,
//     instead of waiting on the slowest whole chunk.
//  2. FOLD IN ORDER — each chunk is folded SEQUENTIALLY, in participant
//     order, into a fresh aggregate slot; the slots then merge into the
//     global aggregate in ascending chunk-index order and the window
//     hook fires.
//
// Determinism contract (extends DESIGN.md §7; details in §12):
//  * participant k's randomness is Rng(base_seed).fork(k) — identical
//    to SweepRunner's per-cell streams, never keyed on thread/schedule —
//    so which thread simulated k, and in which block, never shows;
//  * a chunk ([first, first+chunk) participants) is folded SEQUENTIALLY
//    into a fresh aggregate by one worker;
//  * chunk aggregates merge into the global aggregate in ascending
//    chunk-index order, always. Floating-point merge maths doesn't
//    commute, so the fixed order — not just the formulas — is what
//    makes the merged result bit-identical at ANY thread count and at
//    ANY checkpoint boundary. Enforced by tests/fleet_test.cpp and by
//    exp_fleet_population on every run.
//
// After each window the cursor advances to the window's end — a
// chunk-aligned cut point where the caller may checkpoint (serialise
// the global aggregate + cursor) or stop. Resuming from such a cut
// replays the identical fold/merge sequence, so full == stop+resume
// down to the serialised bytes.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/random.h"
#include "sim/thread_pool.h"
#include "study/sweep_runner.h"

namespace distscroll::study {

struct FleetConfig {
  std::uint64_t participants = 0;
  /// 0 resolves like SweepConfig::threads ($DISTSCROLL_THREADS /
  /// available CPUs).
  std::size_t threads = 0;
  /// Participants folded per chunk — the merge granularity. Part of the
  /// result's identity: changing it changes merge order, so it is
  /// recorded in checkpoints and must match on resume.
  std::uint64_t chunk = 256;
  std::uint64_t base_seed = 0;
  /// Chunks per window — the memory bound (one aggregate slot per chunk
  /// plus window_chunks × chunk per-participant records). NOT part of
  /// the result's identity (merge order is chunk order regardless), so
  /// it may differ between a run and its resume.
  std::size_t window_chunks = 32;
};

/// The per-participant result of the chunk-body run(), which simulates
/// inside the fold and stores nothing.
struct NoRecord {};

/// Agg requirements: default-constructible, clear() (reset keeping
/// capacity), merge(const Agg&). Record: default-constructible; one
/// window's worth is allocated once per engine.
template <typename Agg, typename Record = NoRecord>
class FleetEngine {
 public:
  /// Participants per simulate-phase block: the unit of work pool
  /// threads claim. Results never depend on it.
  static constexpr std::uint64_t kBlock = 16;

  explicit FleetEngine(const FleetConfig& config)
      : config_(config), root_(config.base_seed),
        threads_(resolve_sweep_threads(config.threads)) {
    if (config_.chunk == 0) config_.chunk = 1;
    if (config_.window_chunks == 0) config_.window_chunks = 1;
    if (threads_ > 1) pool_.emplace(threads_);
    slots_.resize(config_.window_chunks);
    span_ = std::max<std::uint64_t>(
        1, std::min<std::uint64_t>(config_.window_chunks * config_.chunk, config_.participants));
    records_.resize(static_cast<std::size_t>(span_));
  }

  [[nodiscard]] const FleetConfig& config() const { return config_; }
  [[nodiscard]] std::size_t threads() const { return threads_; }

  /// Participant k's private stream (same derivation as
  /// SweepRunner::cell_rng).
  [[nodiscard]] sim::Rng participant_rng(std::uint64_t index) const {
    return root_.fork(index);
  }

  /// Store size: min(window_chunks × chunk, participants), at least 1.
  [[nodiscard]] std::uint64_t span() const { return span_; }
  /// Participant k's store index, k % span(). Within one window no two
  /// participants share a slot, and a slot is valid from k's simulate
  /// block until the window's fold phase ends.
  [[nodiscard]] std::size_t slot(std::uint64_t participant) const {
    return static_cast<std::size_t>(participant % span_);
  }
  [[nodiscard]] Record& record(std::uint64_t participant) { return records_[slot(participant)]; }
  [[nodiscard]] const Record& record(std::uint64_t participant) const {
    return records_[slot(participant)];
  }

  /// Fold participants [cursor, min(stop_after, participants)) into
  /// `global`, advancing `cursor` window by window.
  ///
  /// Simulate: void(uint64 first, uint64 count, FleetEngine& engine)
  ///   — runs one block (count <= kBlock) on any thread: writes each
  ///   participant i in [first, first+count) to engine.record(i),
  ///   drawing only from engine.participant_rng(i).
  /// Fold: void(uint64 first, uint64 count, Agg& out,
  ///            const FleetEngine& engine)
  ///   — must fold participants [first, first+count) (one whole chunk)
  ///   sequentially into `out`.
  /// WindowHook: void(const Agg& global, uint64 cursor) — called after
  ///   each merged window at a chunk-aligned cursor (checkpoint point).
  ///
  /// `cursor` must be a value previously produced by run() or 0 —
  /// chunk-aligned, except that a finished run's cursor is
  /// `participants` (possibly mid-chunk), which resumes as a no-op;
  /// `stop_after` is rounded UP to the next chunk boundary so
  /// interruption never splits a chunk's fold.
  template <typename Simulate, typename Fold, typename WindowHook>
  void run(Agg& global, std::uint64_t& cursor, std::uint64_t stop_after, Simulate&& simulate,
           Fold&& fold, WindowHook&& window_hook) {
    const std::uint64_t chunk = config_.chunk;
    const std::uint64_t total_chunks = (config_.participants + chunk - 1) / chunk;
    // Ceiling, not floor: a COMPLETE run's cursor == participants, which
    // is not chunk-aligned when participants % chunk != 0. Flooring would
    // re-fold the final partial chunk into the already-complete aggregate
    // on a no-op resume (silent double-count).
    std::uint64_t next_chunk = (cursor + chunk - 1) / chunk;
    const std::uint64_t stop_chunk =
        std::min(total_chunks, stop_after >= config_.participants
                                   ? total_chunks
                                   : (stop_after + chunk - 1) / chunk);
    while (next_chunk < stop_chunk) {
      const std::uint64_t window =
          std::min<std::uint64_t>(config_.window_chunks, stop_chunk - next_chunk);
      const std::uint64_t window_first = next_chunk * chunk;
      const std::uint64_t window_end =
          std::min((next_chunk + window) * chunk, config_.participants);
      if constexpr (!std::is_same_v<std::decay_t<Simulate>, NoSimulate>) {
        const std::uint64_t blocks = (window_end - window_first + kBlock - 1) / kBlock;
        for_each(blocks, [&](std::size_t b) {
          const std::uint64_t first = window_first + b * kBlock;
          simulate(first, std::min(kBlock, window_end - first), *this);
        });
      }
      for_each(window, [&](std::size_t i) {
        const std::uint64_t first = window_first + i * chunk;
        slots_[i].clear();
        fold(first, std::min(chunk, config_.participants - first), slots_[i],
             std::as_const(*this));
      });
      // The fixed-order merge: ascending chunk index, every run.
      for (std::size_t i = 0; i < window; ++i) global.merge(slots_[i]);
      next_chunk += window;
      cursor = window_end;
      window_hook(global, cursor);
    }
  }

  /// The chunk-body form: no simulate phase, and `body` (the Fold
  /// signature) both simulates and folds its chunk.
  template <typename ChunkBody, typename WindowHook>
  void run(Agg& global, std::uint64_t& cursor, std::uint64_t stop_after, ChunkBody&& body,
           WindowHook&& window_hook) {
    run(global, cursor, stop_after, NoSimulate{}, body, window_hook);
  }

  /// run() without a window hook.
  template <typename ChunkBody>
  void run(Agg& global, std::uint64_t& cursor, std::uint64_t stop_after, ChunkBody&& body) {
    run(global, cursor, stop_after, body, [](const Agg&, std::uint64_t) {});
  }

 private:
  struct NoSimulate {};

  template <typename Body>
  void for_each(std::uint64_t count, Body&& body) {
    if (pool_) {
      pool_->parallel_for(static_cast<std::size_t>(count), body);
    } else {
      for (std::size_t i = 0; i < count; ++i) body(i);
    }
  }

  FleetConfig config_;
  sim::Rng root_;
  std::size_t threads_;
  std::optional<sim::ThreadPool> pool_;
  std::vector<Agg> slots_;  // one fold slot per chunk of the window
  std::uint64_t span_ = 1;
  std::vector<Record> records_;  // one window of per-participant results
};

}  // namespace distscroll::study
