// Tests for the scrolling-technique implementations the comparison
// study pits against DistScroll.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <vector>

#include "baselines/button_scroll.h"
#include "baselines/distance_scroll.h"
#include "baselines/radial_scroll.h"
#include "baselines/tilt_scroll.h"
#include "baselines/wheel_scroll.h"

namespace distscroll::baselines {
namespace {

// --- DistanceScroll -----------------------------------------------------------

struct DistanceFixture : ::testing::Test {
  DistanceScroll technique{{}, sim::Rng(1)};

  /// Drive the control channel steadily for `seconds` at distance `u`.
  void hold(double u, double seconds, double t0 = 0.0) {
    for (double t = t0; t < t0 + seconds; t += 0.005) {
      technique.on_control(util::Seconds{t}, u);
    }
  }
};

TEST_F(DistanceFixture, AbsoluteSpecInCentimeters) {
  const auto spec = technique.spec();
  EXPECT_EQ(spec.style, ControlStyle::AbsolutePosition);
  EXPECT_EQ(spec.unit, "cm");
  EXPECT_LT(spec.u_min, 4.0);
  EXPECT_GT(spec.u_max, 30.0);
}

TEST_F(DistanceFixture, TargetUAcquiresTarget) {
  technique.reset(8, 0);
  const auto u = technique.target_u(5);
  ASSERT_TRUE(u.has_value());
  hold(*u, 0.5);
  EXPECT_EQ(technique.cursor(), 5u);
}

TEST_F(DistanceFixture, AllTargetsReachable) {
  // At the far end of the range islands are only a few ADC counts wide,
  // so with sensor + ADC noise the cursor can flicker off a far target
  // between samples; "reachable" means the cursor lands on the target
  // at some point while the hand holds its centre distance.
  technique.reset(10, 0);
  double t = 0.0;
  for (std::size_t target = 0; target < 10; ++target) {
    const double u = *technique.target_u(target);
    bool reached = false;
    for (double tt = t; tt < t + 0.4; tt += 0.005) {
      technique.on_control(util::Seconds{tt}, u);
      reached |= technique.cursor() == target;
    }
    t += 0.4;
    EXPECT_TRUE(reached) << target;
  }
}

TEST_F(DistanceFixture, WidthsNarrowerWithMoreEntries) {
  technique.reset(5, 0);
  const double w5 = technique.target_width_u(2);
  technique.reset(25, 0);
  const double w25 = technique.target_width_u(12);
  EXPECT_GT(w5, w25 * 2);
}

TEST_F(DistanceFixture, DirectionMappingMatchesDevice) {
  // Default: toward user scrolls down => target 0 is the FARTHEST.
  technique.reset(6, 0);
  EXPECT_GT(*technique.target_u(0), *technique.target_u(5));
}

TEST_F(DistanceFixture, NearlyGloveInsensitive) {
  EXPECT_LT(technique.glove_sensitivity(), 0.3);
}

// --- TiltScroll ------------------------------------------------------------------

struct TiltFixture : ::testing::Test {
  TiltScroll technique{{}, sim::Rng(2)};

  void hold_tilt(double rad, double seconds, double& t) {
    for (double end = t + seconds; t < end; t += 0.005) {
      technique.on_control(util::Seconds{t}, rad);
    }
  }
};

TEST_F(TiltFixture, DeadbandHoldsStill) {
  technique.reset(20, 10);
  double t = 0.0;
  hold_tilt(0.03, 2.0, t);  // inside deadband
  EXPECT_EQ(technique.cursor(), 10u);
}

TEST_F(TiltFixture, PositiveTiltScrollsDown) {
  technique.reset(20, 0);
  double t = 0.0;
  hold_tilt(0.5, 1.0, t);
  EXPECT_GT(technique.cursor(), 5u);
}

TEST_F(TiltFixture, NegativeTiltScrollsUp) {
  technique.reset(20, 19);
  double t = 0.0;
  hold_tilt(-0.5, 1.0, t);
  EXPECT_LT(technique.cursor(), 15u);
}

TEST_F(TiltFixture, VelocityProportionalToTilt) {
  technique.reset(200, 0);
  double t = 0.0;
  hold_tilt(0.2, 1.0, t);
  const auto gentle = technique.cursor();
  technique.reset(200, 0);
  t = 0.0;
  hold_tilt(0.55, 1.0, t);
  const auto steep = technique.cursor();
  EXPECT_GT(steep, gentle * 2);
}

TEST_F(TiltFixture, ClampsAtEnds) {
  technique.reset(5, 4);
  double t = 0.0;
  hold_tilt(0.55, 5.0, t);
  EXPECT_EQ(technique.cursor(), 4u);
}

// --- WheelScroll -------------------------------------------------------------------

struct WheelFixture : ::testing::Test {
  WheelScroll::Config config{9.0, 1.1, /*jam_probability=*/0.0, util::Seconds{1.5}};
  WheelScroll technique{config, sim::Rng(3)};

  void stroke(double length, int direction, double& t) {
    technique.set_direction(direction);
    technique.set_engaged(true);
    for (double u = 0.0; u <= length; u += 0.05) {
      technique.on_control(util::Seconds{t}, u);
      t += 0.002;
    }
    technique.set_engaged(false);
    for (double u = length; u >= 0.0; u -= 0.1) {
      technique.on_control(util::Seconds{t}, u);  // retraction
      t += 0.002;
    }
  }
};

TEST_F(WheelFixture, PullMovesCursorByGain) {
  technique.reset(50, 0);
  double t = 0.0;
  stroke(5.0, +1, t);
  EXPECT_NEAR(static_cast<double>(technique.cursor()), 5.0 * 1.1, 1.0);
}

TEST_F(WheelFixture, RetractionFreewheels) {
  technique.reset(50, 0);
  double t = 0.0;
  stroke(5.0, +1, t);
  const auto after_stroke = technique.cursor();
  // Another full retract cycle with no pull: no motion.
  technique.set_engaged(false);
  for (double u = 0.0; u <= 3.0; u += 0.1) technique.on_control(util::Seconds{t}, u);
  EXPECT_EQ(technique.cursor(), after_stroke);
}

TEST_F(WheelFixture, DirectionReverses) {
  technique.reset(50, 30);
  double t = 0.0;
  stroke(5.0, -1, t);
  EXPECT_LT(technique.cursor(), 28u);
}

TEST_F(WheelFixture, DisengagedPullDoesNothing) {
  technique.reset(50, 10);
  technique.set_direction(1);
  for (double u = 0.0; u <= 5.0; u += 0.1) technique.on_control(util::Seconds{0.0}, u);
  EXPECT_EQ(technique.cursor(), 10u);
}

TEST(WheelScrollJam, JamBlocksInputForRecoveryTime) {
  WheelScroll::Config config;
  config.jam_probability = 1.0;  // always jams
  WheelScroll technique(config, sim::Rng(4));
  technique.reset(50, 0);
  technique.set_direction(1);
  technique.set_engaged(true);
  double t = 0.0;
  for (double u = 0.0; u <= 5.0; u += 0.1) {
    technique.on_control(util::Seconds{t}, u);
    t += 0.002;
  }
  EXPECT_EQ(technique.cursor(), 0u);  // jam ate the stroke
  EXPECT_TRUE(technique.jammed(util::Seconds{t}));
  EXPECT_FALSE(technique.jammed(util::Seconds{t + 2.0}));
}

// --- ButtonScroll -------------------------------------------------------------------

TEST(ButtonScroll, SingleStepsClamped) {
  ButtonScroll technique;
  technique.reset(5, 0);
  technique.on_step(util::Seconds{0.0}, -1);
  EXPECT_EQ(technique.cursor(), 0u);
  technique.on_step(util::Seconds{0.1}, 1);
  technique.on_step(util::Seconds{0.2}, 1);
  EXPECT_EQ(technique.cursor(), 2u);
  for (int i = 0; i < 10; ++i) technique.on_step(util::Seconds{0.3}, 1);
  EXPECT_EQ(technique.cursor(), 4u);
}

TEST(ButtonScroll, HoldRepeatsAfterDelay) {
  ButtonScroll technique;
  technique.reset(100, 0);
  technique.begin_hold(util::Seconds{0.0}, 1);
  EXPECT_EQ(technique.cursor(), 1u);  // initial press
  technique.poll_hold(util::Seconds{0.4});
  EXPECT_EQ(technique.cursor(), 1u);  // still inside repeat delay
  technique.poll_hold(util::Seconds{0.5 + 0.08 * 5});
  EXPECT_EQ(technique.cursor(), 1u + 5u + 1u);  // delay + 5 periods (first fires at 0.5)
  technique.end_hold(util::Seconds{1.5});
  EXPECT_FALSE(technique.holding());
}

TEST(ButtonScroll, EndHoldAppliesDueRepeats) {
  ButtonScroll technique;
  technique.reset(100, 0);
  technique.begin_hold(util::Seconds{0.0}, 1);
  technique.end_hold(util::Seconds{0.5 + 0.08 * 3});
  // 1 initial + repeats at 0.5, 0.58, 0.66, 0.74.
  EXPECT_EQ(technique.cursor(), 5u);
}

TEST(ButtonScroll, MaximallyGloveSensitive) {
  ButtonScroll technique;
  EXPECT_DOUBLE_EQ(technique.glove_sensitivity(), 1.0);
}

// --- RadialScroll ---------------------------------------------------------------------

TEST(RadialScroll, AngleMapsToEntries) {
  RadialScroll technique;
  technique.reset(50, 0);
  technique.on_control(util::Seconds{0.0}, 0.0);
  technique.on_control(util::Seconds{0.5}, 1.0);  // one revolution
  EXPECT_EQ(technique.cursor(), 8u);
}

TEST(RadialScroll, ReverseCircling) {
  RadialScroll technique;
  technique.reset(50, 20);
  technique.on_control(util::Seconds{0.0}, 0.0);
  technique.on_control(util::Seconds{0.5}, -1.0);
  EXPECT_EQ(technique.cursor(), 12u);
}

TEST(RadialScroll, UnboundedAccumulation) {
  RadialScroll technique;
  technique.reset(100, 0);
  technique.on_control(util::Seconds{0.0}, 0.0);
  for (int rev = 1; rev <= 20; ++rev) {
    technique.on_control(util::Seconds{rev * 0.5}, static_cast<double>(rev));
  }
  EXPECT_EQ(technique.cursor(), 99u);  // clamped at the end
}

TEST(RadialScroll, TwoHandedAndGloveHostile) {
  RadialScroll technique;
  EXPECT_FALSE(technique.one_handed());
  EXPECT_GT(technique.glove_sensitivity(), 1.0);
}

// --- reads_control_at contract ---------------------------------------------------

/// Feeds `a` a random walk of the control channel at 4 ms steps (the
/// planner's integration step) and `b` the same walk, except that on
/// steps where b.reads_control_at is false it gets a wildly different
/// value and `c` gets no call at all (what the planner does). The three
/// cursor sequences must agree. Returns how many steps were unread.
std::size_t expect_unread_steps_ignore_u(ScrollTechnique& a, ScrollTechnique& b,
                                         ScrollTechnique& c, std::size_t level, sim::Rng walk) {
  const auto spec = a.spec();
  for (ScrollTechnique* t : {&a, &b, &c}) {
    t->reset(level, level / 2);
    t->set_engaged(true);
  }
  const double lo = std::max(spec.u_min, -50.0);
  const double hi = std::min(spec.u_max, 50.0);
  double u = spec.u_neutral;
  std::size_t unread = 0;
  for (int step = 0; step < 3000; ++step) {
    const double now = 0.004 * step;
    u = std::clamp(u + walk.gaussian(0.0, 0.02 * (hi - lo)), lo, hi);
    const bool reads = b.reads_control_at(now);
    EXPECT_EQ(a.reads_control_at(now), reads) << a.name() << " step " << step;
    EXPECT_EQ(c.reads_control_at(now), reads) << a.name() << " step " << step;
    a.on_control(util::Seconds{now}, u);
    if (reads) {
      b.on_control(util::Seconds{now}, u);
      c.on_control(util::Seconds{now}, u);
    } else {
      ++unread;
      b.on_control(util::Seconds{now}, u + 1e3 * (step % 2 == 0 ? 1.0 : -1.0));
    }
    EXPECT_EQ(b.cursor(), a.cursor()) << a.name() << " step " << step;
    EXPECT_EQ(c.cursor(), a.cursor()) << a.name() << " step " << step;
  }
  return unread;
}

TEST(ReadsControlAt, UnreadStepsIgnoreTheChannelOnEveryTechnique) {
  using Factory = std::function<std::unique_ptr<ScrollTechnique>()>;
  const sim::Rng seed(0x7EC4);
  const std::vector<std::pair<Factory, bool>> techniques = {
      {[&] { return std::make_unique<DistanceScroll>(DistanceScroll::Config{}, seed); }, true},
      {[&] { return std::make_unique<TiltScroll>(TiltScroll::Config{}, seed); }, false},
      {[&] { return std::make_unique<WheelScroll>(WheelScroll::Config{}, seed); }, false},
      {[] { return std::make_unique<ButtonScroll>(); }, false},
      {[] { return std::make_unique<RadialScroll>(); }, false},
  };
  for (const auto& [make, gated] : techniques) {
    for (const std::size_t level : {5u, 40u}) {
      auto a = make(), b = make(), c = make();
      const std::size_t unread =
          expect_unread_steps_ignore_u(*a, *b, *c, level, sim::Rng(level));
      if (gated) {
        // The 20 ms firmware tick reads about one 4 ms step in five
        // (rounding in the step clock lets a tick slip by one step).
        EXPECT_NEAR(static_cast<double>(unread), 2400.0, 30.0) << a->name();
      } else {
        EXPECT_EQ(unread, 0u) << a->name();
      }
    }
  }
}

/// Overrides nothing but the pure virtuals: the default reads every step.
class EveryStep final : public ScrollTechnique {
 public:
  std::string name() const override { return "every-step"; }
  ControlSpec spec() const override { return {}; }
  void reset(std::size_t level_size, std::size_t start) override {
    level_size_ = level_size;
    cursor_ = start;
  }
  std::size_t cursor() const override { return cursor_; }
  std::size_t level_size() const override { return level_size_; }
  void on_control(util::Seconds, double u) override {
    cursor_ = static_cast<std::size_t>(std::clamp(u, 0.0, 1.0) * (level_size_ - 1));
  }

 private:
  std::size_t level_size_ = 1;
  std::size_t cursor_ = 0;
};

TEST(ReadsControlAt, DefaultReadsEveryStep) {
  EveryStep a, b, c;
  EXPECT_EQ(expect_unread_steps_ignore_u(a, b, c, 10, sim::Rng(3)), 0u);
  for (const double now : {0.0, 0.004, 0.0199, 1e6}) EXPECT_TRUE(a.reads_control_at(now));
}

/// The cached cursor of the continuous-position techniques is exactly
/// the rounded, clamped position after every kind of state change.
template <class Technique>
void expect_cursor_is_rounded_position(Technique& t, sim::Rng walk) {
  const auto spec = t.spec();
  for (const std::size_t level : {1u, 5u, 40u}) {
    t.reset(level, level / 3);
    const auto expected = [&] {
      const double clamped = std::clamp(t.position(), 0.0, static_cast<double>(level - 1));
      return static_cast<std::size_t>(std::lround(clamped));
    };
    EXPECT_EQ(t.cursor(), expected()) << t.name();
    double u = spec.u_neutral;
    const double lo = std::max(spec.u_min, -50.0);
    const double hi = std::min(spec.u_max, 50.0);
    for (int step = 0; step < 4000; ++step) {
      if (step % 250 == 0) t.set_engaged(step % 500 == 0);
      u = std::clamp(u + walk.gaussian(0.0, 0.03 * (hi - lo)), lo, hi);
      t.on_control(util::Seconds{0.004 * step}, u);
      ASSERT_EQ(t.cursor(), expected()) << t.name() << " level " << level << " step " << step;
    }
  }
}

TEST(CachedCursor, EqualsRoundedClampedPositionOverARandomWalk) {
  TiltScroll tilt({}, sim::Rng(11));
  expect_cursor_is_rounded_position(tilt, sim::Rng(12));
  RadialScroll radial;
  expect_cursor_is_rounded_position(radial, sim::Rng(13));
  WheelScroll wheel({}, sim::Rng(14));
  expect_cursor_is_rounded_position(wheel, sim::Rng(15));
}

}  // namespace
}  // namespace distscroll::baselines
