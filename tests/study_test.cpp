// Tests for the study harness: task generators, metrics, sessions with
// learning, the full-device user study, and the report tables.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>

#include "baselines/button_scroll.h"
#include "baselines/distance_scroll.h"
#include "baselines/radial_scroll.h"
#include "baselines/tilt_scroll.h"
#include "baselines/wheel_scroll.h"
#include "menu/phone_menu.h"
#include "study/device_study.h"
#include "study/metrics.h"
#include "study/report.h"
#include "study/session.h"
#include "study/task.h"
#include "study/trial.h"

namespace distscroll::study {
namespace {

// --- tasks ----------------------------------------------------------------------

TEST(Tasks, RandomTasksValid) {
  sim::Rng rng(1);
  const auto tasks = random_tasks(rng, 10, 50);
  ASSERT_EQ(tasks.size(), 50u);
  for (const auto& t : tasks) {
    EXPECT_LT(t.start_index, 10u);
    EXPECT_LT(t.target_index, 10u);
    EXPECT_NE(t.start_index, t.target_index);
  }
}

TEST(Tasks, FixedDistanceTasksHonourDistance) {
  sim::Rng rng(2);
  const auto tasks = fixed_distance_tasks(rng, 20, 7, 40);
  bool saw_up = false, saw_down = false;
  for (const auto& t : tasks) {
    const long diff =
        static_cast<long>(t.target_index) - static_cast<long>(t.start_index);
    EXPECT_EQ(std::abs(diff), 7);
    EXPECT_LT(t.target_index, 20u);
    saw_up |= diff < 0;
    saw_down |= diff > 0;
  }
  EXPECT_TRUE(saw_up);
  EXPECT_TRUE(saw_down);
}

// --- metrics -----------------------------------------------------------------------

TEST(Metrics, AggregateMixesSuccessAndFailure) {
  std::vector<TrialRecord> records(4);
  records[0].outcome = {true, 2.0, 0, 1, 0, 3.0};
  records[1].outcome = {true, 4.0, 1, 0, 0, 3.0};
  records[2].outcome = {false, 30.0, 5, 3, 2, 3.0};
  records[3].outcome = {true, 3.0, 0, 0, 1, 3.0};
  const Aggregate agg = aggregate(records);
  EXPECT_EQ(agg.trials, 4u);
  EXPECT_DOUBLE_EQ(agg.success_rate, 0.75);
  EXPECT_DOUBLE_EQ(agg.mean_time_s, 3.0);  // successes only
  EXPECT_DOUBLE_EQ(agg.error_rate, 0.75);  // 3 wrong selections / 4 trials
  EXPECT_DOUBLE_EQ(agg.mean_overshoots, 1.0);
  EXPECT_GT(agg.throughput_bits_s, 0.0);
}

TEST(Metrics, EmptyAggregateSafe) {
  const Aggregate agg = aggregate({});
  EXPECT_EQ(agg.trials, 0u);
  EXPECT_DOUBLE_EQ(agg.mean_time_s, 0.0);
}

// --- trials on real techniques -------------------------------------------------------

TEST(Trial, DistanceScrollCompletesTasks) {
  baselines::DistanceScroll technique({}, sim::Rng(3));
  sim::Rng rng(4);
  const auto tasks = random_tasks(rng, 8, 10);
  const auto records = run_trials(technique, tasks, human::UserProfile::average(), rng.fork(1));
  const Aggregate agg = aggregate(records);
  EXPECT_GT(agg.success_rate, 0.8);
  EXPECT_GT(agg.mean_time_s, 0.5);
  EXPECT_LT(agg.mean_time_s, 15.0);
}

TEST(Trial, ButtonScrollCompletesTasks) {
  baselines::ButtonScroll technique;
  sim::Rng rng(5);
  const auto tasks = random_tasks(rng, 8, 10);
  const auto records = run_trials(technique, tasks, human::UserProfile::average(), rng.fork(1));
  EXPECT_GT(aggregate(records).success_rate, 0.9);
}

TEST(Trial, RecordsScrollDistance) {
  baselines::ButtonScroll technique;
  SelectionTask task{10, 2, 7};
  const auto record = run_trial(technique, task, human::UserProfile::average(), sim::Rng(6));
  EXPECT_EQ(record.scroll_distance, 5u);
  EXPECT_EQ(record.level_size, 10u);
}

// --- golden: the scalar planner on every technique ------------------------------------

/// FNV-1a over 64-bit words; doubles enter by bit pattern so a last-ulp
/// change in any record moves the digest.
class RecordDigest {
 public:
  void add(std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (word >> (8 * byte)) & 0xFFu;
      hash_ *= 0x100000001B3ull;
    }
  }
  void add(const TrialRecord& r) {
    add(r.outcome.success ? 1u : 0u);
    add(std::bit_cast<std::uint64_t>(r.outcome.time_s));
    add(static_cast<std::uint64_t>(r.outcome.corrective_movements));
    add(static_cast<std::uint64_t>(r.outcome.overshoots));
    add(static_cast<std::uint64_t>(r.outcome.wrong_selections));
    add(std::bit_cast<std::uint64_t>(r.outcome.id_bits));
    add(r.level_size);
    add(r.scroll_distance);
  }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xCBF29CE484222325ull;
};

std::unique_ptr<baselines::ScrollTechnique> make_golden_technique(std::size_t index,
                                                                  sim::Rng rng) {
  switch (index) {
    case 0:
      return std::make_unique<baselines::DistanceScroll>(baselines::DistanceScroll::Config{},
                                                         rng);
    case 1: return std::make_unique<baselines::TiltScroll>(baselines::TiltScroll::Config{}, rng);
    case 2: return std::make_unique<baselines::WheelScroll>(baselines::WheelScroll::Config{}, rng);
    case 3: return std::make_unique<baselines::ButtonScroll>();
    default: return std::make_unique<baselines::RadialScroll>();
  }
}

// Pins every TrialRecord field the scalar run_trials path produces for
// all five techniques (batch_test pins DistScroll only). The digest was
// recorded before the planner's tick-gated synthesis, cached cursors and
// devirtualized loop went in; any change to draw order, step schedule or
// cursor rounding moves it.
TEST(Golden, ScalarTrialRecordsAllTechniques) {
  const human::Glove gloves[] = {human::Glove::None, human::Glove::Thick};
  const std::size_t menus[] = {5, 40};
  RecordDigest digest;
  std::size_t wrong = 0, corrective = 0, overshoots = 0, records_seen = 0;
  std::uint64_t cell = 0;
  for (std::size_t technique_index = 0; technique_index < 5; ++technique_index) {
    for (const auto glove : gloves) {
      for (const std::size_t menu : menus) {
        for (std::size_t participant = 0; participant < 2; ++participant) {
          const sim::Rng rng = sim::Rng(0x5CA1A7).fork(cell++);
          auto technique = make_golden_technique(technique_index, rng.fork(1));
          const auto profile = human::UserProfile::average()
                                   .with_expertise(0.25 + 0.5 * static_cast<double>(participant))
                                   .with_glove(glove);
          sim::Rng task_rng = rng.fork(2);
          const auto tasks = random_tasks(task_rng, menu, 30);
          for (const auto& r : run_trials(*technique, tasks, profile, rng.fork(3))) {
            digest.add(r);
            ++records_seen;
            if (r.outcome.wrong_selections > 0) ++wrong;
            if (r.outcome.corrective_movements > 0) ++corrective;
            if (r.outcome.overshoots > 0) ++overshoots;
          }
        }
      }
    }
  }
  EXPECT_EQ(records_seen, 5u * 2u * 2u * 2u * 30u);
  // The grid exercises every outcome branch the digest pins.
  EXPECT_GT(wrong, 0u);
  EXPECT_GT(corrective, 0u);
  EXPECT_GT(overshoots, 0u);
  EXPECT_EQ(digest.value(), 0xD6E8F913EF11CF75ull) << std::hex << digest.value();
}

// --- sessions: the learning curve -----------------------------------------------------

TEST(Session, ErrorRateDropsWithPractice) {
  // Reproduces the Section 6 claim in miniature: novices start rough,
  // become nearly errorless within a few blocks.
  baselines::DistanceScroll technique({}, sim::Rng(7));
  SessionConfig config;
  config.blocks = 4;
  config.trials_per_block = 12;
  config.level_size = 8;
  const auto blocks =
      run_session(technique, human::UserProfile::novice(), config, sim::Rng(8));
  ASSERT_EQ(blocks.size(), 4u);
  EXPECT_GT(blocks.back().expertise, blocks.front().expertise);
  // Later blocks at least as fast as the first.
  EXPECT_LE(blocks.back().aggregate.mean_time_s, blocks.front().aggregate.mean_time_s * 1.05);
  // Final block: nearly errorless.
  EXPECT_GT(blocks.back().aggregate.success_rate, 0.9);
}

TEST(Session, ExpertiseSaturates) {
  baselines::ButtonScroll technique;
  SessionConfig config;
  config.blocks = 8;
  config.trials_per_block = 4;
  const auto blocks =
      run_session(technique, human::UserProfile::novice(), config, sim::Rng(9));
  EXPECT_LT(blocks.back().expertise, 1.0 + 1e-9);
  EXPECT_GT(blocks.back().expertise, 0.85);
}

// --- device study ------------------------------------------------------------------------

TEST(DeviceStudy, LeafTargetsCoverTree) {
  auto menu_root = menu::make_phone_menu();
  const auto targets = all_leaf_targets(*menu_root);
  EXPECT_GT(targets.size(), 20u);
  for (const auto& t : targets) {
    // Every path resolves to a leaf with the recorded label.
    const menu::MenuNode* node = menu_root.get();
    for (const std::size_t i : t.path) {
      ASSERT_LT(i, node->child_count());
      node = &node->child(i);
    }
    EXPECT_TRUE(node->is_leaf());
    EXPECT_EQ(node->label(), t.label);
  }
}

TEST(DeviceStudy, ParticipantCompletesBlocks) {
  auto menu_root = menu::make_phone_menu();
  DeviceStudyConfig config;
  config.blocks = 2;
  config.trials_per_block = 3;
  const auto result = run_device_participant(*menu_root, human::UserProfile::average(), config,
                                             sim::Rng(10));
  ASSERT_EQ(result.blocks.size(), 2u);
  EXPECT_GT(result.discovery_time_s, 0.5);
  // An average participant succeeds at most trials even in block 0.
  EXPECT_GT(result.blocks[0].success_rate + result.blocks[1].success_rate, 1.0);
}

// --- report ---------------------------------------------------------------------------------

TEST(Report, TableRendersAligned) {
  Table table({"technique", "time", "errors"});
  table.add_row("DistScroll", {1.234, 0.05});
  table.add_row({"ButtonScroll", "2.5", "0.01"});
  const std::string out = table.render();
  EXPECT_NE(out.find("DistScroll"), std::string::npos);
  EXPECT_NE(out.find("1.234"), std::string::npos);
  // All lines share the same width.
  std::size_t first_len = out.find('\n');
  for (std::size_t pos = 0; pos < out.size();) {
    const std::size_t next = out.find('\n', pos);
    if (next == std::string::npos) break;
    EXPECT_EQ(next - pos, first_len);
    pos = next + 1;
  }
}

TEST(Report, FmtPrecision) {
  EXPECT_EQ(fmt(1.23456, 2), "1.23");
  EXPECT_EQ(fmt(1.0, 0), "1");
}

}  // namespace
}  // namespace distscroll::study
