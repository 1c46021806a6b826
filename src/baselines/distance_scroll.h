// DistScroll as a ScrollTechnique: the full sensing path (GP2D120 model,
// ADC quantisation, island mapping, scroll controller) behind the
// generic technique interface so it competes on equal terms with the
// baselines in the Q1 study.
#pragma once

#include <memory>

#include "baselines/scroll_technique.h"
#include "core/island_mapper.h"
#include "core/scroll_controller.h"
#include "core/sensor_curve.h"
#include "sensors/gp2d120.h"
#include "sim/random.h"

namespace distscroll::baselines {

class DistanceScroll final : public ScrollTechnique {
 public:
  struct Config {
    core::SensorCurve curve{};
    core::IslandMapper::Config islands{};
    core::ScrollController::Config scroll{};
    sensors::Gp2d120Model::Config sensor{};
    util::Seconds firmware_tick{20e-3};
    double adc_noise_lsb = 0.5;
  };

  DistanceScroll(Config config, sim::Rng rng);

  [[nodiscard]] std::string name() const override { return "DistScroll"; }
  [[nodiscard]] ControlSpec spec() const override;
  void reset(std::size_t level_size, std::size_t start_index) override;
  [[nodiscard]] std::size_t cursor() const override { return cursor_; }
  [[nodiscard]] std::size_t level_size() const override { return level_size_; }
  void on_control(util::Seconds now, double u) override;
  /// Only firmware ticks sample the sensor; between them on_control is a
  /// no-op.
  [[nodiscard]] bool reads_control_at(double now_s) const override { return tick_due(now_s); }
  [[nodiscard]] std::optional<double> target_u(std::size_t target) const override;
  [[nodiscard]] double target_width_u(std::size_t target) const override;
  /// Gross arm movement + one thumb button: nearly glove-insensitive.
  [[nodiscard]] double glove_sensitivity() const override { return kGloveSensitivity; }

  // The channel's geometry as functions of a session's config, island
  // table and level size. The members above answer with them, and a
  // study::BatchSessionKernel lane, which has no technique object, is
  // driven through them too.
  static constexpr double kGloveSensitivity = 0.15;
  [[nodiscard]] static ControlSpec spec(const Config& config);
  [[nodiscard]] static std::optional<double> target_u(const Config& config,
                                                      const core::IslandMapper& mapper,
                                                      std::size_t level_size, std::size_t target);
  [[nodiscard]] static double target_width_u(const Config& config,
                                             const core::IslandMapper& mapper,
                                             std::size_t level_size, std::size_t target);

  [[nodiscard]] const core::IslandMapper& mapper() const { return mapper_; }

 private:
  /// The firmware samples at its own tick, regardless of how densely the
  /// planner integrates the hand position: the one schedule both
  /// on_control and reads_control_at follow.
  [[nodiscard]] bool tick_due(double now_s) const { return !(now_s < next_tick_s_); }
  [[nodiscard]] static std::size_t island_of_menu_index(const Config& config,
                                                        std::size_t level_size,
                                                        std::size_t menu_index);

  Config config_;
  sim::Rng rng_;
  // Direct members, rebuilt in place by reset(): run_trial() resets the
  // technique before EVERY trial, and three heap reconstructions per
  // trial dominated the per-trial setup cost. The island table is only
  // recomputed when the level size actually changes.
  sensors::Gp2d120Model ranger_;
  core::IslandMapper mapper_;
  core::ScrollController controller_;
  std::size_t level_size_ = 1;
  std::size_t cursor_ = 0;
  double next_tick_s_ = 0.0;
};

}  // namespace distscroll::baselines
