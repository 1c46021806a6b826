#include "study/batch_kernel.h"

#include <algorithm>
#include <cmath>

#include "util/hot_path.h"

namespace distscroll::study {

void BatchSessionKernel::begin_group(std::size_t lanes) {
  if (lanes_.size() < lanes) lanes_.resize(lanes);
}

const core::IslandMapper* BatchSessionKernel::cached_mapper(
    const baselines::DistanceScroll::Config& config, std::size_t entries) {
  const core::SensorCurve::Params& curve = config.curve.params();
  const core::IslandMapper::Config& islands = config.islands;
  for (const MapperEntry& entry : mappers_) {
    if (entry.entries == entries && entry.curve.a == curve.a && entry.curve.k == curve.k &&
        entry.curve.c == curve.c && entry.curve.vref == curve.vref &&
        entry.islands.near.value == islands.near.value &&
        entry.islands.far.value == islands.far.value &&
        entry.islands.coverage == islands.coverage &&
        entry.islands.hysteresis_counts == islands.hysteresis_counts) {
      return entry.mapper.get();
    }
  }
  MapperEntry entry{curve, islands, entries,
                    std::make_unique<core::IslandMapper>(config.curve, entries, islands)};
  mappers_.push_back(std::move(entry));
  return mappers_.back().mapper.get();
}

void BatchSessionKernel::init_lane(std::size_t lane,
                                   const baselines::DistanceScroll::Config& config,
                                   sim::Rng technique_rng) {
  Lane& L = lanes_[lane];
  L.config = config;
  L.sensor_rng = technique_rng.fork(1);   // the ranger's stream, as in the scalar ctor
  L.adc_rng = technique_rng;              // ADC noise draws from the technique RNG itself
  L.model.emplace(config.sensor, sim::Rng(0));  // ideal_output only; its RNG is never drawn
  reset_lane(lane, 1, 0);                 // the scalar ctor ends in reset(1, 0)
}

void BatchSessionKernel::reset_lane(std::size_t lane, std::size_t level_size,
                                    std::size_t start_index) {
  Lane& L = lanes_[lane];
  // ranger_.reset(): trial clocks restart at zero, noise stream persists.
  L.ever_measured = false;
  L.next_measurement_s = 0.0;
  L.held_volts = 0.0;
  L.level_size = std::max<std::size_t>(1, level_size);
  L.mapper = cached_mapper(L.config, L.level_size);
  // Fresh construction == reinitialize(): selection, smoothing state and
  // stream statistics all start over (the scalar reset() reinitialises
  // unconditionally, so a level-size change rebinding the table here is
  // indistinguishable from the in-place rebuild).
  L.controller.emplace(*L.mapper, L.config.scroll);
  L.cursor = std::min(start_index, L.level_size - 1);
  L.next_tick_s = 0.0;
}

void BatchSessionKernel::begin_block(std::size_t lane) {
  block_ = {&lanes_[lane], 0};
  remeasured_.clear();
  tick_u_.clear();
}

std::span<const std::uint32_t> BatchSessionKernel::end_block() {
  Lane& L = *block_.lane;
  const std::size_t ticks = tick_u_.size();
  const std::size_t remeasures = block_.remeasures;
  sensor_noise_.resize(remeasures);
  adc_noise_.resize(ticks);
  cursors_.resize(ticks);

  DS_HOT_BEGIN
  // --- noise stage: one fill per stream. fill_gaussian consumes the
  // engine identically to the per-sample gaussian() calls it replaces
  // (spare cache included), so per-stream draw order is untouched.
  L.sensor_rng.fill_gaussian({sensor_noise_.data(), remeasures}, 0.0,
                             L.config.sensor.output_noise_volts);
  L.adc_rng.fill_gaussian({adc_noise_.data(), ticks}, 0.0, L.config.adc_noise_lsb);

  // --- sensor + ADC, then LUT + FSM, per tick: expression shapes equal
  // Gp2d120Model::remeasure's and DistanceScroll::on_control's. The
  // FSM is sequential by nature (each sample's hysteresis depends on
  // the previous selection).
  const double refl_shift = (sensors::SurfaceProfile{}.reflectivity - 1.0) *
                            L.config.sensor.reflectivity_sensitivity;
  const double vref = L.config.curve.params().vref;
  const std::size_t last = L.level_size - 1;
  double held = L.held_volts;
  std::size_t cursor = L.cursor;
  std::size_t m = 0;
  for (std::size_t j = 0; j < ticks; ++j) {
    if (remeasured_[j]) {
      double v = L.model->ideal_output(util::Centimeters{tick_u_[j]}).value * (1.0 + refl_shift);
      v += sensor_noise_[m++];
      held = std::clamp(v, 0.0, 3.3);
    }
    double counts = held / vref * 1023.0;
    counts += adc_noise_[j];
    counts = std::clamp(counts, 0.0, 1023.0);
    const auto sampled = static_cast<std::uint16_t>(std::lround(counts));
    const auto update = L.controller->on_sample(util::AdcCounts{sampled});
    if (update.menu_index) cursor = std::min(*update.menu_index, last);
    cursors_[j] = static_cast<std::uint32_t>(cursor);
  }
  L.held_volts = held;
  L.cursor = cursor;
  DS_HOT_END
  return cursors_;
}

}  // namespace distscroll::study
