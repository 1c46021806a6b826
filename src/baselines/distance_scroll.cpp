#include "baselines/distance_scroll.h"

#include <algorithm>
#include <cmath>

#include "obs/stage_timer.h"

namespace distscroll::baselines {

DistanceScroll::DistanceScroll(Config config, sim::Rng rng)
    : config_(config),
      rng_(rng),
      ranger_(config_.sensor, rng_.fork(1)),
      mapper_(config_.curve, 1, config_.islands),
      controller_(mapper_, config_.scroll) {
  reset(1, 0);
}

ControlSpec DistanceScroll::spec() const { return spec(config_); }

ControlSpec DistanceScroll::spec(const Config& config) {
  ControlSpec spec;
  spec.style = ControlStyle::AbsolutePosition;
  spec.u_min = 2.0;
  spec.u_max = 40.0;
  spec.u_neutral = (config.islands.near.value + config.islands.far.value) / 2.0;
  spec.unit = "cm";
  return spec;
}

void DistanceScroll::reset(std::size_t level_size, std::size_t start_index) {
  ranger_.reset();  // trial clocks restart at zero
  level_size_ = std::max<std::size_t>(1, level_size);
  // The island table is a pure function of (curve, level size, config):
  // reuse it across same-size trials instead of recomputing per trial.
  if (mapper_.entries() != level_size_) {
    mapper_.rebuild(config_.curve, level_size_, config_.islands);
  }
  controller_.reinitialize(config_.scroll);
  cursor_ = std::min(start_index, level_size_ - 1);
  next_tick_s_ = 0.0;
}

void DistanceScroll::on_control(util::Seconds now, double u) {
  if (!tick_due(now.value)) return;
  next_tick_s_ = now.value + config_.firmware_tick.value;

  util::AdcCounts sampled{0};
  {
    DS_STAGE(AdcSample);
    const util::Volts v = ranger_.output(util::Centimeters{u}, now);
    double counts = v.value / config_.curve.params().vref * 1023.0;
    counts += rng_.gaussian(0.0, config_.adc_noise_lsb);
    counts = std::clamp(counts, 0.0, 1023.0);
    sampled = util::AdcCounts{static_cast<std::uint16_t>(std::lround(counts))};
  }
  DS_STAGE(Controller);
  const auto update = controller_.on_sample(sampled);
  if (update.menu_index) cursor_ = std::min(*update.menu_index, level_size_ - 1);
}

std::size_t DistanceScroll::island_of_menu_index(const Config& config, std::size_t level_size,
                                                 std::size_t menu_index) {
  if (config.scroll.direction == core::ScrollDirection::TowardUserScrollsDown) {
    return level_size - 1 - menu_index;
  }
  return menu_index;
}

std::optional<double> DistanceScroll::target_u(std::size_t target) const {
  return target_u(config_, mapper_, level_size_, target);
}

std::optional<double> DistanceScroll::target_u(const Config& config,
                                               const core::IslandMapper& mapper,
                                               std::size_t level_size, std::size_t target) {
  if (target >= level_size) return std::nullopt;
  return mapper.centre_distance(island_of_menu_index(config, level_size, target)).value;
}

double DistanceScroll::target_width_u(std::size_t target) const {
  return target_width_u(config_, mapper_, level_size_, target);
}

double DistanceScroll::target_width_u(const Config& config, const core::IslandMapper& mapper,
                                      std::size_t level_size, std::size_t target) {
  if (target >= level_size) return 0.1;
  const auto& island = mapper.islands()[island_of_menu_index(config, level_size, target)];
  // Convert the island's count bounds back to distances; the width in cm
  // is what the user must hit.
  const double d_low = config.curve.distance_at(util::AdcCounts{island.high}).value;
  const double d_high = config.curve.distance_at(util::AdcCounts{island.low}).value;
  return std::max(0.05, d_high - d_low);
}

}  // namespace distscroll::baselines
