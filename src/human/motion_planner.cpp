#include "human/motion_planner.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "baselines/button_scroll.h"
#include "baselines/distance_scroll.h"
#include "baselines/radial_scroll.h"
#include "baselines/tilt_scroll.h"
#include "baselines/wheel_scroll.h"
#include "human/absolute_reach.h"
#include "human/fitts.h"
#include "human/hand_model.h"

namespace distscroll::human {

namespace {

/// Perceived-cursor buffer: the user reacts to where the cursor WAS
/// reaction_time ago, not where it is.
///
/// Inline fixed ring instead of std::deque: one of these is constructed
/// per rate/unbounded trial, and the deque's chunk-map allocation plus
/// teardown showed up at ~8% of exp_scroll_comparison's flat profile.
/// Capacity covers reaction_time/dt with 1.7x headroom (worst profile:
/// 0.30 s at 4 ms steps = 75 live samples); if a configuration ever
/// exceeds it, the oldest sample is dropped — which only shortens the
/// perceived delay for windows that could not fit anyway.
class DelayedPerception {
 public:
  explicit DelayedPerception(double delay_s) : delay_s_(delay_s) {}

  void observe(double t, long cursor) {
    if (size_ == kCapacity) {
      head_ = (head_ + 1) & kMask;
      --size_;
    }
    buffer_[(head_ + size_) & kMask] = {t, cursor};
    ++size_;
  }

  [[nodiscard]] long perceived(double t) {
    const double cutoff = t - delay_s_;
    while (size_ > 1 && buffer_[(head_ + 1) & kMask].t <= cutoff) {
      head_ = (head_ + 1) & kMask;
      --size_;
    }
    return size_ == 0 ? 0 : buffer_[head_].cursor;
  }

 private:
  struct Sample {
    double t;
    long cursor;
  };
  static constexpr std::size_t kCapacity = 128;
  static constexpr std::size_t kMask = kCapacity - 1;
  double delay_s_;
  std::array<Sample, kCapacity> buffer_{};
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

/// The commit press of the styles that leave the channel alone during it.
constexpr auto kNoHold = [](double, double) {};

/// Run `body` on the technique as its `Final` type when it is one (the
/// per-step calls inside are then direct), else on the base class.
template <class Final, class Body>
AcquisitionOutcome as_final(baselines::ScrollTechnique& t, Body&& body) {
  if (auto* concrete = dynamic_cast<Final*>(&t)) return body(*concrete);
  return body(t);
}

}  // namespace

AcquisitionOutcome MotionPlanner::acquire(baselines::ScrollTechnique& technique,
                                          std::size_t target, const UserProfile& profile) {
  const std::size_t start = technique.cursor();
  // One type test per trial picks the devirtualized instantiation of the
  // step loop; any other technique runs the same body through the base.
  const auto absolute = [&](auto& t) {
    TechniqueChannel channel(t);
    return acquire_absolute(channel, target, profile, rng_, config_);
  };
  const auto rate = [&](auto& t) { return run_rate(t, target, profile); };
  const auto unbounded = [&](auto& t) { return run_unbounded(t, target, profile); };
  AcquisitionOutcome outcome;
  switch (technique.spec().style) {
    case baselines::ControlStyle::AbsolutePosition:
      outcome = as_final<baselines::DistanceScroll>(technique, absolute);
      break;
    case baselines::ControlStyle::RateControl:
      outcome = as_final<baselines::TiltScroll>(technique, rate);
      break;
    case baselines::ControlStyle::RelativeStroke:
      outcome = run_stroke(technique, target, profile);
      break;
    case baselines::ControlStyle::RelativeUnbounded:
      outcome = as_final<baselines::RadialScroll>(technique, unbounded);
      break;
    case baselines::ControlStyle::DiscreteSteps:
      outcome = run_discrete(technique, target, profile);
      break;
  }
  outcome.id_bits = scroll_id_bits(start, target);
  return outcome;
}

template <class Technique>
AcquisitionOutcome MotionPlanner::run_rate(Technique& t, std::size_t target,
                                           const UserProfile& p) {
  AcquisitionOutcome outcome;
  const auto spec = t.spec();
  DelayedPerception perception(p.reaction_time_s);
  OvershootCounter overshoots(static_cast<long>(target));
  const double penalty = effective_fine_penalty(t.glove_sensitivity(), p);

  double u = spec.u_neutral;
  double now = 0.0;
  double on_target_since = -1.0;

  while (now < config_.timeout_s) {
    perception.observe(now, static_cast<long>(t.cursor()));
    const long perceived = perception.perceived(now);
    const long err = static_cast<long>(target) - perceived;

    // Proportional zone of ~6 entries, saturating to full deflection.
    double desired =
        spec.u_max * std::clamp(static_cast<double>(err) / 6.0, -1.0, 1.0);
    if (err == 0) desired = spec.u_neutral;
    // Wrist moves toward the desired angle at a limited (glove-scaled)
    // angular speed, with motor wobble.
    const double max_step = (p.tilt_speed_rad_s / penalty) * config_.dt_s;
    const double delta = std::clamp(desired - u, -max_step, max_step);
    u += delta + rng_.gaussian(0.0, 0.008 * penalty);
    u = std::clamp(u, spec.u_min, spec.u_max);

    t.on_control(util::Seconds{now}, u);
    overshoots.observe(static_cast<long>(t.cursor()));
    now += config_.dt_s;

    if (t.cursor() == target && std::abs(u) < 0.5 * spec.u_max) {
      if (on_target_since < 0.0) on_target_since = now;
      if (now - on_target_since >= config_.settle_dwell_s + p.reaction_time_s) {
        now += p.verification_time_s;
        outcome.time_s = now;
        if (commit_selection(t, target, p, rng_, outcome, kNoHold)) {
          outcome.success = true;
          outcome.overshoots = overshoots.count();
          return outcome;
        }
        now = outcome.time_s;
        on_target_since = -1.0;
        ++outcome.corrective_movements;
      }
    } else {
      on_target_since = -1.0;
    }
  }
  outcome.time_s = now;
  outcome.overshoots = overshoots.count();
  return outcome;
}

AcquisitionOutcome MotionPlanner::run_stroke(baselines::ScrollTechnique& t, std::size_t target,
                                             const UserProfile& p) {
  AcquisitionOutcome outcome;
  auto* wheel = dynamic_cast<baselines::WheelScroll*>(&t);
  OvershootCounter overshoots(static_cast<long>(target));
  const double gain = wheel ? wheel->gain() : 1.0;
  const double stroke_max = wheel ? wheel->stroke_max_cm() : t.spec().u_max;

  double now = 0.0;
  bool first = true;
  while (now < config_.timeout_s) {
    const long err = static_cast<long>(target) - static_cast<long>(t.cursor());
    if (err == 0) {
      now += p.verification_time_s;
      outcome.time_s = now;
      if (commit_selection(t, target, p, rng_, outcome, kNoHold)) {
        outcome.success = true;
        outcome.overshoots = overshoots.count();
        return outcome;
      }
      now = outcome.time_s;
      continue;
    }
    if (!first) ++outcome.corrective_movements;
    first = false;

    // One clutched stroke: pull out, freewheel back.
    const double desired_entries = std::min<double>(std::abs(err), gain * stroke_max);
    double length = desired_entries / gain;
    length *= 1.0 + rng_.gaussian(0.0, 0.06);  // pull-length scatter
    length = std::clamp(length, 0.3, stroke_max);
    if (wheel) {
      wheel->set_direction(err > 0 ? 1 : -1);
    }
    t.set_engaged(true);
    const util::Seconds pull_time =
        movement_time(p.reach_fitts, length, std::max(0.3, 1.0 / gain));
    const double t0 = now;
    while (now < t0 + pull_time.value) {
      const double u = min_jerk(0.0, length, now - t0, pull_time.value);
      t.on_control(util::Seconds{now}, u);
      overshoots.observe(static_cast<long>(t.cursor()));
      now += config_.dt_s;
    }
    t.set_engaged(false);
    if (wheel && wheel->jammed(util::Seconds{now})) {
      now += wheel->jam_recovery().value;  // shake the mechanism loose
    }
    // Spring retraction (~0.25 s), then perceive the result.
    const double r0 = now;
    while (now < r0 + 0.25) {
      const double u = min_jerk(length, 0.0, now - r0, 0.25);
      t.on_control(util::Seconds{now}, u);
      now += config_.dt_s;
    }
    now += p.reaction_time_s;
  }
  outcome.time_s = now;
  outcome.overshoots = overshoots.count();
  return outcome;
}

template <class Technique>
AcquisitionOutcome MotionPlanner::run_unbounded(Technique& t, std::size_t target,
                                                const UserProfile& p) {
  AcquisitionOutcome outcome;
  const auto spec = t.spec();
  DelayedPerception perception(p.reaction_time_s);
  OvershootCounter overshoots(static_cast<long>(target));
  const double penalty = effective_fine_penalty(t.glove_sensitivity(), p);
  // Thick gloves on a touch surface: gestures intermittently fail to
  // register at all.
  const double dropout_per_s = (p.glove == Glove::Thick) ? 0.8 : (p.glove == Glove::Thin ? 0.1 : 0.0);

  double u = 0.0;
  double now = 0.0;
  double on_target_since = -1.0;
  bool touching = true;

  while (now < config_.timeout_s) {
    perception.observe(now, static_cast<long>(t.cursor()));
    const long err = static_cast<long>(target) - perception.perceived(now);

    if (touching && rng_.bernoulli(dropout_per_s * config_.dt_s)) {
      // Touch lost: lift, re-place the finger (costs time, no motion).
      touching = false;
      now += 0.5 * penalty;
      touching = true;
      continue;
    }

    // Circle speed proportional to remaining error, capped by the
    // comfortable gesture rate (slower with gloves/stylus problems).
    const double max_rate = spec.max_rate / penalty;
    const double rate =
        std::clamp(static_cast<double>(err) * 0.25, -max_rate, max_rate);
    u += rate * config_.dt_s + rng_.gaussian(0.0, 0.002 * penalty);
    t.on_control(util::Seconds{now}, u);
    overshoots.observe(static_cast<long>(t.cursor()));
    now += config_.dt_s;

    if (t.cursor() == target) {
      if (on_target_since < 0.0) on_target_since = now;
      if (now - on_target_since >= config_.settle_dwell_s + p.reaction_time_s) {
        now += p.verification_time_s;
        outcome.time_s = now;
        if (commit_selection(t, target, p, rng_, outcome, kNoHold)) {
          outcome.success = true;
          outcome.overshoots = overshoots.count();
          return outcome;
        }
        now = outcome.time_s;
        on_target_since = -1.0;
        ++outcome.corrective_movements;
      }
    } else {
      on_target_since = -1.0;
    }
  }
  outcome.time_s = now;
  outcome.overshoots = overshoots.count();
  return outcome;
}

AcquisitionOutcome MotionPlanner::run_discrete(baselines::ScrollTechnique& t, std::size_t target,
                                               const UserProfile& p) {
  AcquisitionOutcome outcome;
  auto* buttons = dynamic_cast<baselines::ButtonScroll*>(&t);
  OvershootCounter overshoots(static_cast<long>(target));
  const double penalty = effective_fine_penalty(t.glove_sensitivity(), p);
  const double miss_p = effective_miss_probability(t.glove_sensitivity(), p);

  double now = 0.0;
  while (now < config_.timeout_s) {
    const long err = static_cast<long>(target) - static_cast<long>(t.cursor());
    if (err == 0) {
      now += p.verification_time_s;
      outcome.time_s = now;
      if (commit_selection(t, target, p, rng_, outcome, kNoHold)) {
        outcome.success = true;
        outcome.overshoots = overshoots.count();
        return outcome;
      }
      now = outcome.time_s;
      continue;
    }

    if (buttons && std::abs(err) >= config_.hold_threshold) {
      // Hold for auto-repeat; release is late by the reaction time, so
      // overshoot is built in.
      buttons->begin_hold(util::Seconds{now}, err > 0 ? 1 : -1);
      while (static_cast<long>(t.cursor()) != static_cast<long>(target) &&
             now < config_.timeout_s) {
        buttons->poll_hold(util::Seconds{now});
        overshoots.observe(static_cast<long>(t.cursor()));
        // Stop condition is evaluated on the *perceived* (delayed)
        // cursor: keep holding a little past the target.
        const long c = static_cast<long>(t.cursor());
        if ((err > 0 && c >= static_cast<long>(target)) ||
            (err < 0 && c <= static_cast<long>(target))) {
          break;
        }
        now += config_.dt_s;
      }
      now += p.reaction_time_s;  // late release
      buttons->end_hold(util::Seconds{now});
      overshoots.observe(static_cast<long>(t.cursor()));
      ++outcome.corrective_movements;
      continue;
    }

    // Single deliberate press.
    now += p.button_press_s * penalty;
    if (!rng_.bernoulli(miss_p)) {
      t.on_step(util::Seconds{now}, err > 0 ? 1 : -1);
    }
    overshoots.observe(static_cast<long>(t.cursor()));
    // Short inter-press gap.
    now += 0.06 * penalty;
  }
  outcome.time_s = now;
  outcome.overshoots = overshoots.count();
  return outcome;
}

}  // namespace distscroll::human
