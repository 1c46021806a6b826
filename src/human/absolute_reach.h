// The absolute-position acquisition, written once.
//
// A participant acquires a target on an absolute channel (the paper's
// distance -> island mapping) with one simulated reach: an aimed
// minimum-jerk movement timed by Fitts' law with tremor riding on it, a
// settle for the reaction time, then a commit press that holds the hand
// steady. acquire_absolute() is that loop, a template over the *channel*
// the hand drives and whose cursor it reads. It has two instantiations:
//
//  * TechniqueChannel<T> below wraps a baselines::ScrollTechnique.
//    MotionPlanner::acquire instantiates it on DistanceScroll (direct,
//    inlinable calls) and on the ScrollTechnique base (any other
//    absolute technique, through the vtable).
//  * study::BatchTrialRunner's lane channel feeds one
//    study::BatchSessionKernel lane, one control phase per kernel block.
//
// A channel provides
//
//   baselines::ControlSpec spec() const;
//   std::optional<double> target_u(std::size_t target) const;
//   double target_width_u(std::size_t target) const;
//   double glove_sensitivity() const;
//   std::size_t cursor() const;
//   void begin_phase();
//   bool tick(double now_s);    // does the channel read the hand at now_s?
//   void stage(double now_s, double u, observe);   // the hand at that tick
//   void end_phase(observe);
//
// and calls observe(cursor) with the cursor after each tick, in tick
// order, by the time end_phase() returns: at stage() when it knows the
// cursor at once, else at end_phase(). The cursor changes only at
// ticks, so the one overshoot rule is: observe the pre-phase cursor
// when the phase's first step is not a tick (acquire_absolute does, and
// cursor() still returns it then), then the cursor after each tick.
// That is the dense per-step cursor sequence with repeats dropped, and
// repeats never add a sign change.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <optional>

#include "baselines/scroll_technique.h"
#include "human/fitts.h"
#include "human/hand_model.h"
#include "human/motion_planner.h"
#include "human/user_profile.h"
#include "sim/random.h"

namespace distscroll::human {

/// Glove factors as a technique with `glove_sensitivity` feels them.
[[nodiscard]] inline double effective_fine_penalty(double glove_sensitivity,
                                                   const UserProfile& p) {
  return 1.0 + (p.fine_motor_penalty - 1.0) * glove_sensitivity;
}
[[nodiscard]] inline double effective_miss_probability(double glove_sensitivity,
                                                       const UserProfile& p) {
  return std::min(0.7, p.button_miss_probability * glove_sensitivity);
}

/// Counts sign changes of (cursor - target): each full crossing is an
/// overshoot.
class OvershootCounter {
 public:
  explicit OvershootCounter(long target) : target_(target) {}

  void observe(long cursor) {
    const int sign = cursor > target_ ? 1 : (cursor < target_ ? -1 : 0);
    if (sign != 0 && last_sign_ != 0 && sign != last_sign_) ++count_;
    if (sign != 0) last_sign_ = sign;
  }

  [[nodiscard]] int count() const { return count_; }

 private:
  long target_;
  int last_sign_ = 0;
  int count_ = 0;
};

/// Commit phase: press select. A slip (the glove-scaled miss
/// probability) or an off-target press returns false and charges the
/// time. `hold(t0, press_time)` runs for the press itself; absolute
/// channels feed the held hand through it, other styles pass a no-op.
template <class Device, class Hold>
bool commit_selection(Device& device, std::size_t target, const UserProfile& p, sim::Rng& rng,
                      AcquisitionOutcome& outcome, Hold&& hold) {
  const double glove = device.glove_sensitivity();
  const double press_time = p.button_press_s * effective_fine_penalty(glove, p);
  if (rng.bernoulli(effective_miss_probability(glove, p))) {
    outcome.time_s += press_time * 1.5;  // failed press + noticing
    return false;
  }
  hold(outcome.time_s, press_time);
  outcome.time_s += press_time;
  if (device.cursor() != target) {
    ++outcome.wrong_selections;
    return false;
  }
  return true;
}

/// A ScrollTechnique as a channel: a tick is a step the technique reads
/// (reads_control_at), and staging it is one on_control call, after
/// which the cursor is known at once.
template <class Technique>
class TechniqueChannel {
 public:
  explicit TechniqueChannel(Technique& technique) : technique_(technique) {}

  [[nodiscard]] baselines::ControlSpec spec() const { return technique_.spec(); }
  [[nodiscard]] std::optional<double> target_u(std::size_t target) const {
    return technique_.target_u(target);
  }
  [[nodiscard]] double target_width_u(std::size_t target) const {
    return technique_.target_width_u(target);
  }
  [[nodiscard]] double glove_sensitivity() const { return technique_.glove_sensitivity(); }
  [[nodiscard]] std::size_t cursor() const { return technique_.cursor(); }

  void begin_phase() {}
  [[nodiscard]] bool tick(double now_s) const { return technique_.reads_control_at(now_s); }
  template <class Observe>
  void stage(double now_s, double u, Observe&& observe) {
    technique_.on_control(util::Seconds{now_s}, u);
    observe(technique_.cursor());
  }
  template <class Observe>
  void end_phase(Observe&& /*observe*/) {}

 private:
  Technique& technique_;
};

/// Acquire `target` on an absolute channel and commit with a select
/// press. The channel must already be reset to the trial's level; `rng`
/// is the trial's planner stream. Leaves id_bits to the caller, which
/// knows the start cursor.
template <class Channel>
AcquisitionOutcome acquire_absolute(Channel& channel, std::size_t target, const UserProfile& p,
                                    sim::Rng& rng, const MotionPlanner::Config& cfg) {
  AcquisitionOutcome outcome;
  const auto spec = channel.spec();
  const auto maybe_target_u = channel.target_u(target);
  if (!maybe_target_u) return outcome;
  const double goal_u = *maybe_target_u;
  const double width_u = channel.target_width_u(target);

  Tremor tremor(p.tremor, rng.fork(1));
  OvershootCounter overshoots(static_cast<long>(target));
  double u = spec.u_neutral;
  double now = 0.0;
  bool first_move = true;

  // One observed control phase over the dense planner steps from `now`
  // to `end`. The tremor stream advances at every step (its draws stay
  // in step with time); the hand position, hand(now) plus tremor, is
  // synthesized only at the ticks the channel reads.
  const auto observe = [&](std::size_t cursor) { overshoots.observe(static_cast<long>(cursor)); };
  const auto phase = [&](double end, const auto& hand) {
    channel.begin_phase();
    bool first_step = true;
    while (now < end) {
      tremor.advance(now);
      if (channel.tick(now)) {
        channel.stage(now, hand(now) + tremor.value_at(now), observe);
      } else if (first_step) {
        observe(channel.cursor());
      }
      first_step = false;
      now += cfg.dt_s;
    }
    channel.end_phase(observe);
  };

  while (now < cfg.timeout_s) {
    // Aim with amplitude-proportional scatter; corrective movements aim
    // tighter (shorter amplitude => smaller sigma by Schmidt's law).
    const double amplitude = std::abs(goal_u - u);
    const double sigma = p.aim_w0_cm + p.aim_w1 * amplitude;
    double aim = goal_u + rng.gaussian(0.0, sigma);
    aim = std::clamp(aim, spec.u_min, spec.u_max);
    const util::Seconds reach_time = movement_time(p.reach_fitts, amplitude, width_u);

    if (!first_move) ++outcome.corrective_movements;
    first_move = false;

    const double t0 = now;
    const double u0 = u;
    phase(t0 + reach_time.value,
          [&](double at) { return min_jerk(u0, aim, at - t0, reach_time.value); });
    u = aim;

    // Settle & perceive: hold, then check after the reaction time.
    phase(now + (p.reaction_time_s + cfg.settle_dwell_s), [&](double) { return u; });

    if (channel.cursor() == target) {
      // Verify the label, then commit. Holding the hand steady during
      // the press: tremor may push it across an island boundary.
      now += p.verification_time_s;
      outcome.time_s = now;
      const auto hold = [&](double t0_press, double press_time) {
        // The press is not observed for overshoots.
        const auto unobserved = [](std::size_t) {};
        Tremor hold_tremor(p.tremor, rng.fork(777));
        channel.begin_phase();
        for (double dt = 0.0; dt < press_time; dt += cfg.dt_s) {
          const double at = t0_press + dt;
          hold_tremor.advance(at);
          if (channel.tick(at)) channel.stage(at, u + hold_tremor.value_at(at), unobserved);
        }
        channel.end_phase(unobserved);
      };
      if (commit_selection(channel, target, p, rng, outcome, hold)) {
        outcome.success = true;
        outcome.overshoots = overshoots.count();
        return outcome;
      }
      now = outcome.time_s;
      continue;  // slipped or drifted: re-settle and retry
    }
  }
  outcome.time_s = now;
  outcome.overshoots = overshoots.count();
  return outcome;
}

}  // namespace distscroll::human
