#include "study/batch_trials.h"

#include <algorithm>
#include <cstdint>
#include <optional>

#include "human/absolute_reach.h"
#include "obs/stage_timer.h"
#include "study/trial.h"

namespace distscroll::study {

namespace {

/// One kernel lane as a human::acquire_absolute channel: a control
/// phase is one kernel block, and the cursors after its ticks are
/// observed when the block closes. The geometry is DistanceScroll's,
/// evaluated on the lane's config and island table.
class LaneChannel {
 public:
  LaneChannel(BatchSessionKernel& kernel, std::size_t lane) : kernel_(kernel), lane_(lane) {}

  [[nodiscard]] baselines::ControlSpec spec() const {
    return baselines::DistanceScroll::spec(kernel_.config(lane_));
  }
  [[nodiscard]] std::optional<double> target_u(std::size_t target) const {
    return baselines::DistanceScroll::target_u(kernel_.config(lane_), kernel_.mapper(lane_),
                                               kernel_.level_size(lane_), target);
  }
  [[nodiscard]] double target_width_u(std::size_t target) const {
    return baselines::DistanceScroll::target_width_u(kernel_.config(lane_), kernel_.mapper(lane_),
                                                     kernel_.level_size(lane_), target);
  }
  [[nodiscard]] static double glove_sensitivity() {
    return baselines::DistanceScroll::kGloveSensitivity;
  }
  [[nodiscard]] std::size_t cursor() const { return kernel_.cursor(lane_); }

  void begin_phase() { kernel_.begin_block(lane_); }
  [[nodiscard]] bool tick(double now_s) { return kernel_.tick(now_s); }
  template <class Observe>
  void stage(double /*now_s*/, double u, Observe&& /*observe*/) {
    kernel_.stage(u);
  }
  template <class Observe>
  void end_phase(Observe&& observe) {
    for (const std::uint32_t cursor : kernel_.end_block()) observe(cursor);
  }

 private:
  BatchSessionKernel& kernel_;
  std::size_t lane_;
};

}  // namespace

BatchTrialRunner& BatchTrialRunner::local() {
  thread_local BatchTrialRunner runner;
  return runner;
}

void BatchTrialRunner::begin_group(std::size_t lanes) {
  kernel_.begin_group(lanes);
  if (cells_.size() < lanes) cells_.resize(lanes);
  group_cells_ = lanes;
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    Cell& cell = cells_[lane];
    cell.active = false;
    cell.tasks.clear();    // keeps capacity
    cell.records.clear();  // keeps capacity
  }
}

void BatchTrialRunner::init_cell(std::size_t lane,
                                 const baselines::DistanceScroll::Config& config,
                                 sim::Rng technique_rng, std::span<const SelectionTask> tasks,
                                 const human::UserProfile& profile, sim::Rng trials_rng,
                                 human::MotionPlanner::Config planner) {
  kernel_.init_lane(lane, config, technique_rng);
  Cell& cell = cells_[lane];
  cell.active = true;
  cell.tasks.assign(tasks.begin(), tasks.end());
  cell.profile = profile;
  cell.trials_rng = trials_rng;
  cell.planner = planner;
  cell.records.clear();
  cell.records.reserve(tasks.size());
}

void BatchTrialRunner::run() {
  const std::span<Cell> cells(cells_.data(), group_cells_);
  std::size_t max_trials = 0;
  for (const Cell& cell : cells) {
    if (cell.active) max_trials = std::max(max_trials, cell.tasks.size());
  }
  // Lockstep at trial granularity: trial t of every lane before trial
  // t+1 of any — the lanes' session state stays resident in the kernel
  // across rounds, which is what the state-isolation tests exercise.
  for (std::size_t t = 0; t < max_trials; ++t) {
    for (std::size_t lane = 0; lane < cells.size(); ++lane) {
      Cell& cell = cells[lane];
      if (!cell.active || t >= cell.tasks.size()) continue;
      // run_trials forks the trial planner stream off the trial index.
      cell.records.push_back(run_one_trial(lane, cell, cell.tasks[t], cell.trials_rng.fork(t)));
    }
  }
}

TrialRecord BatchTrialRunner::run_one_trial(std::size_t lane, const Cell& cell,
                                            const SelectionTask& task, sim::Rng rng) {
  {
    DS_STAGE(TrialSetup);  // lane reset, as the scalar technique.reset()
    kernel_.reset_lane(lane, task.level_size, task.start_index);
  }
  const std::size_t start = kernel_.cursor(lane);
  LaneChannel channel(kernel_, lane);
  auto outcome = human::acquire_absolute(channel, task.target_index, cell.profile, rng,
                                         cell.planner);
  outcome.id_bits = human::scroll_id_bits(start, task.target_index);
  return trial_record(task, outcome);
}

}  // namespace distscroll::study
