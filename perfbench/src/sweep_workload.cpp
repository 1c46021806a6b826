// technique_sweep: the exp_scroll_comparison grid (5 techniques × menus
// {5,10,20,40} × gloves {none, thick} × 6 participants × 30 trials)
// through study::SweepRunner on the scalar run_trials/MotionPlanner
// path. A unit is one pass over the grid's 240 cells with a seed
// derived from the run's seed; every cell is timed from outside.
//
// The traced run walks the same cells through SweepRunner::cell_rng,
// with spans around technique construction, task generation and
// run_trials, and obs::StageProfile installed at 1-in-16 decimation. Its
// records must equal the plain SweepRunner pass, or the run fails.
#include <cstdio>
#include <iterator>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "baselines/button_scroll.h"
#include "baselines/distance_scroll.h"
#include "baselines/radial_scroll.h"
#include "baselines/tilt_scroll.h"
#include "baselines/wheel_scroll.h"
#include "obs/metrics.h"
#include "obs/stage_timer.h"
#include "result.h"
#include "study/sweep_runner.h"
#include "study/task.h"
#include "study/trial.h"

namespace perfbench {
namespace {

namespace baselines = distscroll::baselines;
namespace human = distscroll::human;
namespace study = distscroll::study;
using distscroll::sim::Rng;

constexpr std::size_t kTrials = 30;
constexpr std::size_t kParticipants = 6;
constexpr std::uint32_t kStageDecimation = 16;
const char* const kTechniques[] = {"DistScroll", "TiltScroll", "YoYoWheel", "ButtonScroll",
                                   "RadialScroll"};
const std::size_t kMenuSizes[] = {5, 10, 20, 40};
const human::Glove kGloves[] = {human::Glove::None, human::Glove::Thick};

const study::SweepGrid& grid() {
  static const study::SweepGrid kGrid(
      {std::size(kTechniques), std::size(kMenuSizes), std::size(kGloves), kParticipants});
  return kGrid;
}

std::unique_ptr<baselines::ScrollTechnique> make_technique(std::size_t technique, Rng rng) {
  switch (technique) {
    case 0: {
      baselines::DistanceScroll::Config config;
      config.scroll.smoothing = distscroll::core::Smoothing::Raw;
      return std::make_unique<baselines::DistanceScroll>(config, rng);
    }
    case 1: return std::make_unique<baselines::TiltScroll>(baselines::TiltScroll::Config{}, rng);
    case 2: return std::make_unique<baselines::WheelScroll>(baselines::WheelScroll::Config{}, rng);
    case 3: return std::make_unique<baselines::ButtonScroll>();
    default: return std::make_unique<baselines::RadialScroll>();
  }
}

human::UserProfile cell_profile(std::size_t index) {
  const double expertise = 0.25 + 0.1 * static_cast<double>(grid().coord(index, 3));
  return human::UserProfile::average()
      .with_expertise(expertise)
      .with_glove(kGloves[grid().coord(index, 2)]);
}

/// One cell: one participant's 30 trials in one condition (the
/// exp_scroll_comparison cell body).
std::vector<study::TrialRecord> run_cell(std::size_t index, Rng rng) {
  auto technique = make_technique(grid().coord(index, 0), rng.fork(1));
  const auto profile = cell_profile(index);
  Rng task_rng = rng.fork(2);
  const auto tasks = study::random_tasks(task_rng, kMenuSizes[grid().coord(index, 1)], kTrials);
  return study::run_trials(*technique, tasks, profile, rng.fork(3));
}

/// Every cell yields its full trial count at its menu size.
bool cells_ok(const std::vector<std::vector<study::TrialRecord>>& cells) {
  if (cells.size() != grid().cells()) return false;
  for (std::size_t index = 0; index < cells.size(); ++index) {
    if (cells[index].size() != kTrials) return false;
    for (const study::TrialRecord& record : cells[index]) {
      if (record.level_size != kMenuSizes[grid().coord(index, 1)]) return false;
    }
  }
  return true;
}

struct SpanIds {
  std::uint32_t unit, make_technique, tasks;
  std::uint32_t run_trials[std::size(kTechniques)];
  explicit SpanIds(Tracer& t)
      : unit(t.intern("bench.unit")), make_technique(t.intern("baselines.make_technique")),
        tasks(t.intern("study.random_tasks")) {
    for (std::size_t i = 0; i < std::size(kTechniques); ++i) {
      run_trials[i] = t.intern(std::string("study.run_trials.") + kTechniques[i]);
    }
  }
};

std::vector<std::vector<study::TrialRecord>> traced_pass(std::uint64_t seed, Tracer& tracer,
                                                         const SpanIds& id) {
  Scope unit(&tracer, id.unit);
  const study::SweepRunner runner({1, 1, seed});
  std::vector<std::vector<study::TrialRecord>> cells(grid().cells());
  for (std::size_t index = 0; index < cells.size(); ++index) {
    const Rng rng = runner.cell_rng(index);
    const std::size_t technique_index = grid().coord(index, 0);
    std::unique_ptr<baselines::ScrollTechnique> technique;
    {
      Scope span(&tracer, id.make_technique);
      technique = make_technique(technique_index, rng.fork(1));
    }
    const auto profile = cell_profile(index);
    Rng task_rng = rng.fork(2);
    std::vector<study::SelectionTask> tasks;
    {
      Scope span(&tracer, id.tasks);
      tasks = study::random_tasks(task_rng, kMenuSizes[grid().coord(index, 1)], kTrials);
    }
    Scope span(&tracer, id.run_trials[technique_index]);
    span.set_calls(static_cast<std::uint32_t>(tasks.size()));
    cells[index] = study::run_trials(*technique, tasks, profile, rng.fork(3));
  }
  return cells;
}

double sweep_setup(const WorkloadOptions& options) {
  const double t0 = now_s();
  study::SweepRunner runner({1, 1, derive_seed(options.seed, ~0ull)});
  const auto cells = runner.run<std::vector<study::TrialRecord>>(grid().cells(), run_cell);
  const double t1 = now_s();
  if (!cells_ok(cells)) std::fprintf(stderr, "perfbench: sweep set-up pass failed\n");
  return t1 - t0;
}

std::vector<MetricDecl> sweep_layers() {
  std::vector<MetricDecl> decls;
  for (const char* technique : kTechniques) {
    decls.push_back({std::string("study.run_trials.") + technique + ".ms", "ms"});
  }
  decls.push_back({"baselines.make_technique.ms", "ms"});
  decls.push_back({"study.random_tasks.ms", "ms"});
  decls.push_back({"study.random_tasks.calls", "count"});
  decls.push_back({"obs.stage_adc_sample.ms", "ms"});
  decls.push_back({"obs.stage_controller.ms", "ms"});
  decls.push_back({"obs.stage_trial_setup.ms", "ms"});
  decls.push_back({"unattributed_share", "ratio"});
  decls.push_back({"trace_overhead_share", "ratio"});
  return decls;
}

WorkloadResult sweep_run(const WorkloadOptions& options) {
  WorkloadResult result;
  std::optional<Tracer> tracer;
  std::optional<SpanIds> ids;
  distscroll::obs::MetricsRegistry stage_registry;
  distscroll::obs::StageProfile stages(stage_registry, kStageDecimation);
  if (options.trace) {
    tracer.emplace();
    ids.emplace(*tracer);
  }

  std::vector<double> cell_walls;
  double wall_sum = 0.0, traced_s = 0.0;
  std::vector<double> rates;  // trials per second of each pass
  const double start = now_s();
  for (std::uint64_t u = 0;; ++u) {
    const std::uint64_t seed = derive_seed(options.seed, u);
    study::SweepRunner runner({1, 1, seed});
    const double t0 = now_s();
    const auto cells = runner.run<std::vector<study::TrialRecord>>(
        grid().cells(), [&](std::size_t index, Rng rng) {
          const double c0 = now_s();
          auto records = run_cell(index, rng);
          cell_walls.push_back(now_s() - c0);
          return records;
        });
    const double wall = now_s() - t0;
    wall_sum += wall;
    std::size_t trials = 0;
    for (const auto& cell : cells) trials += cell.size();
    rates.push_back(static_cast<double>(trials) / wall);
    bool ok = result.check(cells_ok(cells), "sweep cell without its full trial count");

    if (tracer) {
      tracer->set_run(static_cast<std::uint32_t>(u));
      const double t1 = now_s();
      const auto traced = [&] {
        const distscroll::obs::StageProfile::Install install(stages);
        return traced_pass(seed, *tracer, *ids);
      }();
      traced_s += now_s() - t1;
      ok = result.check(traced == cells, "traced sweep records differ from SweepRunner") && ok;
    }
    result.count_run(ok);
    if (run_done(u + 1, start, options)) break;
  }

  result.note("unit", std::to_string(grid().cells()) + " cells x " + std::to_string(kTrials) +
                          " trials per grid pass");
  result.note("units", std::to_string(rates.size()));
  result.note("cell_samples", std::to_string(cell_walls.size()));
  result.note("threads", "1");

  if (!tracer) {
    set_end_to_end(result, rates, cell_walls);
    return result;
  }

  const TraceSummary summary =
      set_trace_metrics(result, *tracer, sweep_layers(), traced_s, wall_sum);
  const double units = static_cast<double>(std::max<std::uint64_t>(summary.units, 1));
  // Stage histograms hold 1 in kStageDecimation scopes: scale the sums.
  const auto stage_ms = [&](distscroll::obs::Stage stage) {
    return stages.histogram(stage).sum() * kStageDecimation * 1e3 / units;
  };
  result.set("obs.stage_adc_sample.ms", stage_ms(distscroll::obs::Stage::AdcSample), "ms");
  result.set("obs.stage_controller.ms", stage_ms(distscroll::obs::Stage::Controller), "ms");
  result.set("obs.stage_trial_setup.ms", stage_ms(distscroll::obs::Stage::TrialSetup), "ms");
  return result;
}

}  // namespace

Workload technique_sweep_workload() {
  Workload w;
  w.name = "technique_sweep";
  w.per_layer = sweep_layers();
  w.setup = sweep_setup;
  w.run = sweep_run;
  return w;
}

}  // namespace perfbench
