// Closed-loop simulated participant.
//
// Drives a baselines::ScrollTechnique's control channel the way a human
// would: aimed minimum-jerk reaches timed by Fitts' law for absolute
// channels, delayed-feedback proportional control for rate channels,
// clutched strokes for pull-wheels, key presses with auto-repeat for
// buttons — all with tremor, aim scatter, perception/reaction delays and
// glove penalties from the UserProfile. This is the substitution for the
// paper's human participants (see DESIGN.md): every Section 6/7
// experiment runs through this planner.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdlib>

#include "baselines/scroll_technique.h"
#include "human/user_profile.h"
#include "sim/random.h"

namespace distscroll::human {

struct AcquisitionOutcome {
  bool success = false;
  double time_s = 0.0;           // start of movement to committed selection
  int corrective_movements = 0;  // re-aims after the first movement
  int overshoots = 0;            // cursor crossed the target and came back
  int wrong_selections = 0;      // select pressed while off target
  double id_bits = 0.0;          // scrolling ID: log2(|start-target| + 1)

  friend bool operator==(const AcquisitionOutcome&, const AcquisitionOutcome&) = default;
};

/// AcquisitionOutcome::id_bits of a trial from `start` to `target`.
[[nodiscard]] inline double scroll_id_bits(std::size_t start, std::size_t target) {
  return std::log2(std::abs(static_cast<long>(start) - static_cast<long>(target)) + 1.0);
}

class MotionPlanner {
 public:
  struct Config {
    double dt_s = 0.004;            // control-loop integration step
    double timeout_s = 40.0;        // trial abort
    double settle_dwell_s = 0.20;   // time on target before trusting it
    /// Discrete techniques hold the key (auto-repeat) above this
    /// distance instead of single presses.
    int hold_threshold = 6;
  };

  MotionPlanner(Config config, sim::Rng rng) : config_(config), rng_(rng) {}

  /// Acquire `target` in the technique's current level and commit with a
  /// select press. The technique must already be reset() to the level.
  AcquisitionOutcome acquire(baselines::ScrollTechnique& technique, std::size_t target,
                             const UserProfile& profile);

 private:
  // The step loops are templates over the technique type, defined in
  // motion_planner.cpp: acquire() instantiates them once for each
  // `final` technique it dispatches to (direct, inlinable per-step
  // calls) and once for the ScrollTechnique base (every other
  // technique, through the vtable). One body serves both. The
  // absolute-position loop is human::acquire_absolute
  // (absolute_reach.h), which the batched trial runner shares.
  template <class Technique>
  AcquisitionOutcome run_rate(Technique& t, std::size_t target, const UserProfile& p);
  AcquisitionOutcome run_stroke(baselines::ScrollTechnique& t, std::size_t target,
                                const UserProfile& p);
  template <class Technique>
  AcquisitionOutcome run_unbounded(Technique& t, std::size_t target, const UserProfile& p);
  AcquisitionOutcome run_discrete(baselines::ScrollTechnique& t, std::size_t target,
                                  const UserProfile& p);

  Config config_;
  sim::Rng rng_;
};

}  // namespace distscroll::human
