#include "study/trial.h"

#include <cstdlib>
#include <optional>

#include "obs/stage_timer.h"

namespace distscroll::study {

TrialRecord trial_record(const SelectionTask& task, const human::AcquisitionOutcome& outcome) {
  TrialRecord record;
  record.outcome = outcome;
  record.level_size = task.level_size;
  record.scroll_distance = task.target_index > task.start_index
                               ? task.target_index - task.start_index
                               : task.start_index - task.target_index;
  return record;
}

TrialRecord run_trial(baselines::ScrollTechnique& technique, const SelectionTask& task,
                      const human::UserProfile& profile, sim::Rng rng,
                      human::MotionPlanner::Config planner_config) {
  std::optional<human::MotionPlanner> planner;
  {
    DS_STAGE(TrialSetup);  // technique reset + planner construction
    technique.reset(task.level_size, task.start_index);
    planner.emplace(planner_config, rng);
  }
  return trial_record(task, planner->acquire(technique, task.target_index, profile));
}

std::vector<TrialRecord> run_trials(baselines::ScrollTechnique& technique,
                                    std::span<const SelectionTask> tasks,
                                    const human::UserProfile& profile, sim::Rng rng,
                                    human::MotionPlanner::Config planner_config) {
  std::vector<TrialRecord> records;
  records.reserve(tasks.size());
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    records.push_back(run_trial(technique, tasks[i], profile, rng.fork(i), planner_config));
  }
  return records;
}

}  // namespace distscroll::study
