// Batched == scalar bit-identity for the SoA session kernel.
//
// The contract under test (DESIGN.md §11): for every DistScroll
// configuration the benches sweep, a cell run through
// BatchTrialRunner/BatchSessionKernel lanes produces the EXACT
// TrialRecord bytes of the scalar reference
// (DistanceScroll + run_trials), at any thread count and any batch
// width — including the CSV bytes derived from them. Both paths run
// the same planner body (human::acquire_absolute), so what this pins is
// the kernel's sensing chain and the two channels' overshoot
// observation. Also pins the no-allocation claims over the kernel's hot
// block and over re-grouping a warmed runner.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "baselines/distance_scroll.h"
#include "human/user_profile.h"
#include "sim/random.h"
#include "study/batch_kernel.h"
#include "study/batch_trials.h"
#include "study/metrics.h"
#include "study/sweep_runner.h"
#include "study/task.h"
#include "study/trial.h"
#include "util/alloc_guard.h"
#include "util/csv.h"

namespace distscroll::study {
namespace {

constexpr std::size_t kCells = 7;  // 3 + 3 + 1 lanes at kBatchWidth
constexpr std::size_t kTrialsPerCell = 6;
constexpr std::size_t kBatchWidth = 3;  // uneven split: last group is smaller

/// A cell's selection tasks, drawn from the cell's task stream.
using TaskGenerator = std::vector<SelectionTask> (*)(sim::Rng& task_rng, std::size_t menu,
                                                     std::size_t cell);

/// Uniform random targets, as most exp_* benches draw them.
std::vector<SelectionTask> uniform_tasks(sim::Rng& task_rng, std::size_t menu, std::size_t) {
  return random_tasks(task_rng, menu, kTrialsPerCell);
}

/// exp_fitts_law's banded tasks: targets in [16, 23] of a 40-entry
/// list, start = target +- d, with d in {1, 2, 4, 8, 16} chosen by cell.
std::vector<SelectionTask> fitts_banded_tasks(sim::Rng& task_rng, std::size_t menu,
                                              std::size_t cell) {
  const std::size_t distances[] = {1, 2, 4, 8, 16};
  const std::size_t distance = distances[cell % std::size(distances)];
  std::vector<SelectionTask> tasks;
  while (tasks.size() < kTrialsPerCell) {
    const auto target = static_cast<std::size_t>(task_rng.uniform_int(16, 23));
    const bool down = task_rng.bernoulli(0.5);
    SelectionTask task;
    task.level_size = menu;
    task.target_index = target;
    task.start_index = down ? target - distance : target + distance;
    tasks.push_back(task);
  }
  return tasks;
}

/// One swept configuration, mirroring what the seven exp_* benches
/// actually drive through DistScroll.
struct SweepCase {
  const char* name;
  baselines::DistanceScroll::Config config;
  human::Glove glove = human::Glove::None;
  std::size_t menu = 10;
  TaskGenerator tasks = uniform_tasks;
  /// > 0 overrides the profile's tremor amplitude.
  double tremor_cm = 0.0;
};

std::vector<SweepCase> sweep_suite() {
  std::vector<SweepCase> cases;
  // exp_scroll_comparison / exp_menu axes: menu size x glove.
  for (const std::size_t menu : {std::size_t{5}, std::size_t{10}, std::size_t{20},
                                 std::size_t{40}}) {
    cases.push_back({"menu", {}, human::Glove::None, menu});
  }
  cases.push_back({"thick-glove", {}, human::Glove::Thick, 10});
  // exp_range_sweep: the six calibrated [near, far] ranges.
  const double ranges[][2] = {{4.0, 12.0}, {4.0, 20.0}, {4.0, 30.0},
                              {4.0, 40.0}, {8.0, 30.0}, {10.0, 50.0}};
  for (const auto& range : ranges) {
    SweepCase c{"range", {}, human::Glove::None, 10};
    c.config.islands.near = util::Centimeters{range[0]};
    c.config.islands.far = util::Centimeters{range[1]};
    cases.push_back(c);
  }
  // Smoothing ablation (exp_scroll_comparison's second sweep).
  for (const auto smoothing : {core::Smoothing::Median3, core::Smoothing::Ema}) {
    SweepCase c{"smoothing", {}, human::Glove::None, 10};
    c.config.scroll.smoothing = smoothing;
    cases.push_back(c);
  }
  // Direction flip, hysteresis band, touching islands.
  {
    SweepCase c{"direction-up", {}, human::Glove::None, 10};
    c.config.scroll.direction = core::ScrollDirection::TowardUserScrollsUp;
    cases.push_back(c);
  }
  {
    SweepCase c{"hysteresis", {}, human::Glove::None, 10};
    c.config.islands.hysteresis_counts = 4;
    cases.push_back(c);
  }
  {
    SweepCase c{"full-coverage", {}, human::Glove::None, 10};
    c.config.islands.coverage = 1.0;
    cases.push_back(c);
  }
  // exp_fitts_law: banded targets at swept scroll distances.
  cases.push_back({"fitts-banded", {}, human::Glove::None, 40, fitts_banded_tasks});
  // Thick glove with 1 cm tremor: holding still through a commit press
  // often carries the cursor off the target (a wrong selection), so the
  // next phase starts from a cursor none of its steps has observed yet.
  cases.push_back({"failing-commits", {}, human::Glove::Thick, 20, uniform_tasks, 1.0});
  return cases;
}

human::UserProfile cell_profile(const SweepCase& c, std::size_t index) {
  auto profile = human::UserProfile::average()
                     .with_expertise(0.25 + 0.1 * static_cast<double>(index))
                     .with_glove(c.glove);
  if (c.tremor_cm > 0.0) profile.tremor.amplitude_cm = c.tremor_cm;
  return profile;
}

/// Cell result carrying the full per-trial record bytes.
struct CellOut {
  std::vector<TrialRecord> records;

  friend bool operator==(const CellOut&, const CellOut&) = default;
};

/// The scalar reference cell body — the exact shape every bench runs.
CellOut scalar_cell(const SweepCase& c, std::size_t index, sim::Rng rng) {
  baselines::DistanceScroll technique(c.config, rng.fork(1));
  const auto profile = cell_profile(c, index);
  sim::Rng task_rng = rng.fork(2);
  const auto tasks = c.tasks(task_rng, c.menu, index);
  CellOut out;
  out.records = run_trials(technique, tasks, profile, rng.fork(3));
  return out;
}

/// The batched group body: cells first..first+n-1 as kernel lanes, same
/// per-cell streams and fork decomposition, lanes instead of a technique
/// object.
std::vector<CellOut> batched_group(const SweepCase& c, std::size_t first, std::size_t n,
                                   const SweepRunner& runner) {
  auto& batch = BatchTrialRunner::local();
  batch.begin_group(n);
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t index = first + k;
    sim::Rng rng = runner.cell_rng(index);
    const auto profile = cell_profile(c, index);
    sim::Rng task_rng = rng.fork(2);
    const auto tasks = c.tasks(task_rng, c.menu, index);
    batch.init_cell(k, c.config, rng.fork(1), tasks, profile, rng.fork(3));
  }
  batch.run();
  std::vector<CellOut> out(n);
  for (std::size_t k = 0; k < n; ++k) {
    const auto records = batch.records(k);
    out[k].records.assign(records.begin(), records.end());
  }
  return out;
}

std::vector<CellOut> run_scalar(const SweepCase& c, std::size_t threads, std::uint64_t seed) {
  SweepRunner runner({threads, 1, seed});
  return runner.run<CellOut>(kCells, [&](std::size_t index, sim::Rng rng) {
    return scalar_cell(c, index, std::move(rng));
  });
}

/// Groups of kBatchWidth cells are the parallel work unit; each cell
/// still draws from cell_rng(cell), so grouping cannot shift a stream.
std::vector<CellOut> run_batched(const SweepCase& c, std::size_t threads, std::uint64_t seed) {
  SweepRunner runner({threads, 1, seed});
  const std::size_t groups = (kCells + kBatchWidth - 1) / kBatchWidth;
  const auto grouped =
      runner.run<std::vector<CellOut>>(groups, [&](std::size_t group, sim::Rng) {
        const std::size_t first = group * kBatchWidth;
        return batched_group(c, first, std::min(kBatchWidth, kCells - first), runner);
      });
  std::vector<CellOut> cells;
  for (const auto& group : grouped) cells.insert(cells.end(), group.begin(), group.end());
  return cells;
}

TEST(BatchKernel, BitIdenticalToScalarAcrossSweepSuiteSingleThread) {
  for (const auto& c : sweep_suite()) {
    const auto expected = run_scalar(c, 1, 0xBA7C4);
    if (std::string_view{c.name} == "failing-commits") {
      // The case only pins the moved-by-commit path if commits do fail.
      int wrong_selections = 0;
      for (const auto& cell : expected) {
        for (const auto& record : cell.records) wrong_selections += record.outcome.wrong_selections;
      }
      EXPECT_GT(wrong_selections, 0) << c.name << " produced no wrong selection";
    }
    const auto got = run_batched(c, 1, 0xBA7C4);
    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_TRUE(got[i] == expected[i])
          << c.name << " (menu " << c.menu << "): cell " << i << " diverged";
    }
  }
}

TEST(BatchKernel, BitIdenticalToScalarAcrossSweepSuiteEightThreads) {
  for (const auto& c : sweep_suite()) {
    const auto expected = run_scalar(c, 1, 0xBA7C4);
    const auto got = run_batched(c, 8, 0xBA7C4);
    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_TRUE(got[i] == expected[i])
          << c.name << " (menu " << c.menu << "): cell " << i << " diverged at 8 threads";
    }
  }
}

/// The CSV a bench would emit from the batched records must be
/// byte-identical to the scalar one — aggregation and formatting see
/// the same bits, so the files compare equal byte for byte.
TEST(BatchKernel, CsvBytesUnchangedByBatchedMode) {
  const SweepCase c{"csv", {}, human::Glove::None, 10};
  const auto scalar = run_scalar(c, 1, 0xC511);
  const auto batched = run_batched(c, 1, 0xC511);

  const auto write_csv = [](const std::string& path, const std::vector<CellOut>& cells) {
    util::CsvWriter csv(path, {"cell", "mean_time_s", "success_rate", "errors_per_trial"});
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const auto agg = aggregate(cells[i].records);
      csv.row({static_cast<double>(i), agg.mean_time_s, agg.success_rate, agg.error_rate});
    }
  };
  const std::string scalar_path = testing::TempDir() + "/batch_scalar.csv";
  const std::string batched_path = testing::TempDir() + "/batch_batched.csv";
  write_csv(scalar_path, scalar);
  write_csv(batched_path, batched);

  const auto slurp = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
  };
  const std::string scalar_bytes = slurp(scalar_path);
  ASSERT_FALSE(scalar_bytes.empty());
  EXPECT_EQ(slurp(batched_path), scalar_bytes);
}

/// A warmed kernel block — schedule steps, staging and end_block()'s
/// DS_HOT stages — runs without touching the heap: the dynamic half of
/// the DS_HOT_BEGIN/END markers.
TEST(BatchKernel, BlockAllocationFreeWhenWarm) {
  if (!util::alloc_interposer_linked()) {
    GTEST_SKIP() << "alloc interposer not linked (sanitizer build)";
  }
  BatchSessionKernel kernel;
  kernel.begin_group(2);
  kernel.init_lane(0, {}, sim::Rng(1));
  kernel.init_lane(1, {}, sim::Rng(2));

  std::size_t observations = 0;
  const auto run_block = [&](std::size_t lane) {
    kernel.begin_block(lane);
    for (std::size_t i = 0; i < 600; ++i) {
      if (kernel.tick(0.004 * static_cast<double>(i))) {
        kernel.stage(8.0 + 0.02 * static_cast<double>(i));
      }
    }
    observations = kernel.end_block().size();
  };
  for (std::size_t lane = 0; lane < 2; ++lane) {
    kernel.reset_lane(lane, 10, 0);
    run_block(lane);  // warm the scratch
  }
  for (std::size_t lane = 0; lane < 2; ++lane) {
    kernel.reset_lane(lane, 10, 0);
    DS_ASSERT_NO_ALLOC {
      run_block(lane);
    }
  }
  EXPECT_GT(observations, 0u);  // the block did sample
}

/// Lane and cell slots survive a smaller group. perfbench's traced
/// fleet run alternates 16- and 256-lane groups on one thread, and a
/// fleet run can end on a partial block: a runner warmed at 256 lanes
/// must bind a second 256-lane group after a 16-lane one without
/// touching the heap.
TEST(BatchKernel, RegroupAfterShrinkAllocationFree) {
  if (!util::alloc_interposer_linked()) {
    GTEST_SKIP() << "alloc interposer not linked (sanitizer build)";
  }
  constexpr std::size_t kWide = 256;
  constexpr std::size_t kNarrow = 16;
  sim::Rng task_rng(7);
  const auto tasks = random_tasks(task_rng, 10, 2);
  const auto profile = human::UserProfile::average();
  BatchTrialRunner runner;
  const auto bind = [&](std::size_t lanes) {
    runner.begin_group(lanes);
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      runner.init_cell(lane, {}, sim::Rng(lane), tasks, profile, sim::Rng(1000 + lane));
    }
  };
  bind(kWide);
  runner.run();
  bind(kNarrow);
  runner.run();
  DS_ASSERT_NO_ALLOC {
    bind(kWide);
  }
  runner.run();
  EXPECT_EQ(runner.records(kWide - 1).size(), tasks.size());
}

}  // namespace
}  // namespace distscroll::study
