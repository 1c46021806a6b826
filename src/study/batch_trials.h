// Batched trial execution over BatchSessionKernel lanes.
//
// BatchTrialRunner is the bit-identical batched counterpart of the
// scalar cell body every DistScroll bench runs:
//
//   baselines::DistanceScroll technique(config, technique_rng);
//   auto records = run_trials(technique, tasks, profile, trials_rng);
//
// It is a lane driver. A group's cells become kernel lanes; run()
// advances all lanes in lockstep at trial granularity (lane-major
// within each trial round). Each trial runs human::acquire_absolute,
// the one absolute-reach planner body MotionPlanner runs on the scalar
// technique, on a channel that feeds the lane: every control phase
// (reach, settle, commit press) is one kernel block, and the hand
// position is staged only at the firmware ticks. The planner's draw
// streams and FP sequences are therefore the scalar ones by
// construction; the kernel's sensing chain is what batch_test pins.
//
// Trials within a cell stay sequential ON PURPOSE: the technique's RNG
// streams persist across trials (reset() does not reseed), so trials
// are stream-dependent and only whole CELLS are independent lanes.
#pragma once

#include <span>
#include <vector>

#include "baselines/distance_scroll.h"
#include "human/motion_planner.h"
#include "human/user_profile.h"
#include "sim/random.h"
#include "study/batch_kernel.h"
#include "study/metrics.h"
#include "study/task.h"

namespace distscroll::study {

class BatchTrialRunner {
 public:
  /// One runner (kernel + scratch) per worker thread, like
  /// DevicePool::local_session: grouped sweeps on a pool stay inside
  /// the determinism contract because lane state never crosses threads
  /// and is fully re-initialised per cell.
  static BatchTrialRunner& local();

  /// Start a group of up to `lanes` cells. Clears previous lanes and
  /// records; keeps warmed capacity and the kernel's island-table cache.
  /// Cell slots are never freed, so a warmed runner re-groups at any
  /// size up to its largest without allocating.
  void begin_group(std::size_t lanes);

  /// Bind lane <- one sweep cell. Tasks are copied; profile/config by
  /// value. Mirrors constructing DistanceScroll(config, technique_rng)
  /// and queuing run_trials(tasks, profile, trials_rng, planner).
  void init_cell(std::size_t lane, const baselines::DistanceScroll::Config& config,
                 sim::Rng technique_rng, std::span<const SelectionTask> tasks,
                 const human::UserProfile& profile, sim::Rng trials_rng,
                 human::MotionPlanner::Config planner = {});

  /// Run every bound cell to completion, lanes advancing in lockstep
  /// trial-by-trial (trial t of every lane before trial t+1 of any).
  void run();

  /// Lane's records after run(); bit-identical to the scalar
  /// run_trials() vector for the same cell inputs.
  [[nodiscard]] std::span<const TrialRecord> records(std::size_t lane) const {
    return cells_[lane].records;
  }

 private:
  struct Cell {
    bool active = false;
    std::vector<SelectionTask> tasks;
    human::UserProfile profile;
    sim::Rng trials_rng{0};
    human::MotionPlanner::Config planner;
    std::vector<TrialRecord> records;
  };

  TrialRecord run_one_trial(std::size_t lane, const Cell& cell, const SelectionTask& task,
                            sim::Rng rng);
  BatchSessionKernel kernel_;
  std::vector<Cell> cells_;     // every slot ever used; only grows
  std::size_t group_cells_ = 0;  // slots in the current group
};

}  // namespace distscroll::study
