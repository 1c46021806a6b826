// Batched DistScroll session kernel: the data plane of the batched
// trial path (ROADMAP item 2).
//
// Advances N device sessions — lanes — through the full sensing chain:
// distance samples through the Gp2d120 transfer curve with gaussian
// noise, ADC quantisation with gaussian LSB noise, the 1024-entry island
// LUT, and the scroll-controller FSM. A control phase runs as one block.
// While the caller walks the phase's dense planner steps, the kernel
// applies only the firmware-tick and sample-and-hold schedule (both pure
// functions of the time grid) and the caller stages the hand position at
// the ticks alone — the firmware never reads the other steps. Closing
// the block pre-draws every noise value it will consume with ONE batched
// RNG fill per stream, then sweeps the numeric stages over the staged
// ticks instead of re-entering the scalar virtual-call chain per step.
//
// It is the data plane behind a channel and knows nothing of the
// participant. The hand that feeds it is human::acquire_absolute
// (absolute_reach.h), the one planner body the scalar path runs on a
// DistanceScroll; BatchTrialRunner adapts a lane into that body's
// channel, and the lane's geometry (control range, target position and
// width, glove sensitivity) comes from DistanceScroll's own static
// functions of the lane's config, island table and level size. What is
// left to match the scalar technique is the sensing chain, which
// tests/batch_test.cpp pins BIT-IDENTICAL over the full sweep-config
// suite. Two contracts make that possible:
//
//  * the sensor/ADC/LUT expressions have the scalar code's shape (same
//    operations, same order; the build compiles ISO C++ with FP
//    contraction off, so identical op sequences give identical bits);
//  * all pre-drawn noise goes through sim::Rng::fill_gaussian, whose
//    engine consumption is defined to equal N sequential gaussian()
//    calls — including the cached Box–Muller spare — so hoisting the
//    draws out of the per-sample loop cannot shift any stream (see the
//    draw-order contract note in random.h and DESIGN.md §11).
//
// Lanes are independent sessions: each keeps its own technique RNG,
// sensor RNG, sample-and-hold state and controller FSM, exactly as N
// separate DistanceScroll objects would. Island tables are pure
// functions of (curve, entries, island config), so lanes share them
// through a cache instead of rebuilding per lane.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "baselines/distance_scroll.h"
#include "core/island_mapper.h"
#include "core/scroll_controller.h"
#include "sensors/gp2d120.h"
#include "sensors/surface.h"
#include "sim/random.h"

namespace distscroll::study {

// The kernel models the scalar ranger's default-constructed surface and
// has no specular-glitch path: its sensor stream draws gaussians only.
static_assert(sensors::SurfaceProfile{}.specular_glitch_probability == 0.0,
              "BatchSessionKernel assumes the default surface never glitches");

class BatchSessionKernel {
 public:
  /// Start a fresh group of `lanes` sessions (each still to be bound by
  /// init_lane). Lane slots are never freed: a group smaller than an
  /// earlier one leaves the trailing slots in place, so a warmed kernel
  /// re-groups at any size up to its largest without allocating. The
  /// island-table cache persists too (tables are pure functions of
  /// their key).
  void begin_group(std::size_t lanes);

  /// Lane <- a fresh session, mirroring DistanceScroll(config, rng):
  /// the sensor stream forks off tag 1, the ADC stream is the technique
  /// RNG itself, and the session starts reset to a 1-entry level.
  void init_lane(std::size_t lane, const baselines::DistanceScroll::Config& config,
                 sim::Rng technique_rng);

  /// Mirror of DistanceScroll::reset(level_size, start_index): clears
  /// the sample-and-hold and firmware-tick clocks (NOT the RNG streams),
  /// rebinds the island table for the level, reinitialises the
  /// controller FSM, places the cursor.
  void reset_lane(std::size_t lane, std::size_t level_size, std::size_t start_index);

  // --- lane state the trial driver reads -------------------------------
  /// The cursor as of the last end_block(): inside an open block it is
  /// still the cursor from before the block.
  [[nodiscard]] std::size_t cursor(std::size_t lane) const { return lanes_[lane].cursor; }
  [[nodiscard]] std::size_t level_size(std::size_t lane) const { return lanes_[lane].level_size; }
  [[nodiscard]] const baselines::DistanceScroll::Config& config(std::size_t lane) const {
    return lanes_[lane].config;
  }
  [[nodiscard]] const core::IslandMapper& mapper(std::size_t lane) const {
    return *lanes_[lane].mapper;
  }

  /// One control phase of one lane, fed step by step:
  ///
  ///   begin_block(lane);
  ///   for each dense planner step, in time order:
  ///     if (tick(now_s)) stage(u);   // hand position at now_s
  ///   for (cursor : end_block()) observe(cursor);
  ///
  /// tick() applies DistanceScroll's firmware-tick test and the ranger's
  /// sample-and-hold schedule, so the caller computes the hand position
  /// only where the firmware reads it. end_block() runs noise,
  /// sensor/ADC and LUT/FSM over the staged ticks and returns the
  /// cursor after each tick, in tick order. Allocation-free once
  /// scratch is warm (DS_ASSERT_NO_ALLOC-pinned).
  void begin_block(std::size_t lane);

  [[nodiscard]] bool tick(double now_s) {
    Lane& L = *block_.lane;
    if (now_s < L.next_tick_s) return false;
    L.next_tick_s = now_s + L.config.firmware_tick.value;
    std::uint8_t remeasure = 0;
    if (!L.ever_measured || now_s >= L.next_measurement_s) {
      remeasure = 1;
      L.ever_measured = true;
      // Align the next measurement to the sensor's own internal grid.
      const double period = L.config.sensor.measurement_period.value;
      if (now_s >= L.next_measurement_s + period) {
        L.next_measurement_s = now_s + period;  // resync after a long gap
      } else {
        L.next_measurement_s += period;
      }
      ++block_.remeasures;
    }
    remeasured_.push_back(remeasure);
    return true;
  }

  /// The hand position at the step tick() just accepted.
  void stage(double u) { tick_u_.push_back(u); }

  [[nodiscard]] std::span<const std::uint32_t> end_block();

 private:
  struct Lane {
    baselines::DistanceScroll::Config config;
    sim::Rng adc_rng{0};              // the technique's own stream (ADC noise)
    sim::Rng sensor_rng{0};           // technique_rng.fork(1), as the ranger gets
    std::optional<sensors::Gp2d120Model> model;  // transfer curve only; draws no noise
    const core::IslandMapper* mapper = nullptr;
    std::optional<core::ScrollController> controller;
    // Sample-and-hold + firmware-tick state (the ranger's and
    // DistanceScroll's per-session clocks).
    double held_volts = 0.0;
    double next_measurement_s = 0.0;
    bool ever_measured = false;
    double next_tick_s = 0.0;
    std::size_t level_size = 1;
    std::size_t cursor = 0;
  };

  const core::IslandMapper* cached_mapper(const baselines::DistanceScroll::Config& config,
                                          std::size_t entries);

  std::vector<Lane> lanes_;  // every slot ever used; only grows

  // Island-table cache, keyed on everything rebuild() reads. unique_ptr
  // slots: controllers hold the mapper by address, so entries must not
  // move when the cache grows.
  struct MapperEntry {
    core::SensorCurve::Params curve;
    core::IslandMapper::Config islands;
    std::size_t entries;
    std::unique_ptr<core::IslandMapper> mapper;
  };
  std::vector<MapperEntry> mappers_;

  // The open block: its lane, whose tick and sample-and-hold clocks
  // tick() advances in place, and what end_block() needs besides the
  // staged ticks.
  struct Block {
    Lane* lane = nullptr;
    std::size_t remeasures = 0;
  };
  Block block_;

  // Block scratch, SoA along the tick axis; grown outside the DS_HOT
  // region, reused across blocks.
  std::vector<std::uint8_t> remeasured_;   // per tick: S&H remeasure fired
  std::vector<double> tick_u_;             // per tick: staged hand position
  std::vector<double> sensor_noise_;       // per remeasure, pre-drawn
  std::vector<double> adc_noise_;          // per tick, pre-drawn
  std::vector<std::uint32_t> cursors_;     // per tick: end_block()'s cursors
};

}  // namespace distscroll::study
