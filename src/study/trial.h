// Single-trial execution over the abstract-technique interface.
#pragma once

#include "baselines/scroll_technique.h"
#include "human/motion_planner.h"
#include "study/metrics.h"
#include "study/task.h"

namespace distscroll::study {

/// The record of `task` acquired with `outcome`; both trial engines
/// (run_trial and the batched BatchTrialRunner) build theirs here.
[[nodiscard]] TrialRecord trial_record(const SelectionTask& task,
                                       const human::AcquisitionOutcome& outcome);

/// Run one selection task with one participant on one technique.
[[nodiscard]] TrialRecord run_trial(baselines::ScrollTechnique& technique,
                                    const SelectionTask& task,
                                    const human::UserProfile& profile, sim::Rng rng,
                                    human::MotionPlanner::Config planner_config = {});

/// Run a batch of tasks, reusing the technique.
[[nodiscard]] std::vector<TrialRecord> run_trials(baselines::ScrollTechnique& technique,
                                                  std::span<const SelectionTask> tasks,
                                                  const human::UserProfile& profile, sim::Rng rng,
                                                  human::MotionPlanner::Config planner_config = {});

}  // namespace distscroll::study
