// Unit tests for the benchmark's own code: span self time, the traced
// run's attribution, metric naming, and that every workload emits every
// metric it declares.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "result.h"
#include "span_trace.h"

namespace perfbench {
namespace {

FlatSpan span(const char* name, std::int64_t start, std::int64_t end, std::int64_t parent,
              std::uint32_t thread = 0) {
  FlatSpan s;
  s.name = name;
  s.start_ns = start;
  s.end_ns = end;
  s.parent = parent;
  s.thread = thread;
  return s;
}

TEST(SpanSelfTime, SubtractsTheUnionOfChildIntervalsClippedToTheParent) {
  const std::vector<FlatSpan> spans = {
      span("study.engine_run", 0, 100, -1),
      span("bench.chunk", 10, 40, 0, 1),   // overlaps the next child: other thread
      span("bench.chunk", 30, 60, 0, 2),
      span("human.sample_participant", 15, 20, 1, 1),
      span("util.checkpoint_write", 90, 120, 0),  // runs past its parent's end
  };
  const auto self = self_times_ns(spans);
  ASSERT_EQ(self.size(), spans.size());
  EXPECT_EQ(self[0], 100 - (50 + 10));  // covered: [10,60) and [90,100)
  EXPECT_EQ(self[1], 30 - 5);
  EXPECT_EQ(self[2], 30);
  EXPECT_EQ(self[3], 5);
  EXPECT_EQ(self[4], 30);
}

TEST(SpanSelfTime, NestedChildrenCountOnlyAgainstTheirOwnParent) {
  const std::vector<FlatSpan> spans = {
      span("bench.unit", 0, 100, -1),
      span("study.batch_run", 0, 80, 0),
      span("sim.inner", 10, 70, 1),
      span("sim.leaf", 20, 30, 2),
  };
  const auto self = self_times_ns(spans);
  EXPECT_EQ(self[0], 20);
  EXPECT_EQ(self[1], 20);
  EXPECT_EQ(self[2], 50);
  EXPECT_EQ(self[3], 10);
}

TEST(TraceSummary, UnattributedIsWallMinusTopLevelLayerSpans) {
  const std::vector<FlatSpan> spans = {
      span("bench.unit", 0, 100, -1),
      span("human.sample_participant", 0, 50, 0),
      span("bench.chunk", 50, 90, 0),
      span("study.batch_run", 55, 85, 2),
      span("study.fold", 60, 70, 3),  // nested in a layer span: not top level
  };
  const TraceSummary summary = analyse(spans);
  EXPECT_EQ(summary.units, 1u);
  EXPECT_DOUBLE_EQ(summary.unit_wall_s, 100e-9);
  EXPECT_DOUBLE_EQ(summary.top_level_layer_s, 80e-9);
  EXPECT_NEAR(summary.unattributed_share(), 0.2, 1e-12);
  EXPECT_DOUBLE_EQ(summary.by_name.at("study.batch_run").self_s, 20e-9);
  EXPECT_DOUBLE_EQ(summary.by_name.at("bench.chunk").self_s, 10e-9);
}

TEST(Tracer, RecordsNestingAndCrossThreadParents) {
  Tracer tracer;
  const std::uint32_t root_name = tracer.intern("bench.unit");
  const std::uint32_t child_name = tracer.intern("study.batch_run");
  EXPECT_EQ(tracer.intern("bench.unit"), root_name);
  tracer.set_run(7);
  {
    Scope root(&tracer, root_name);
    {
      Scope child(&tracer, child_name);
      child.set_calls(3);
    }
    const SpanRef parent = root.ref();
    std::thread worker([&] { Scope remote(&tracer, child_name, parent); });
    worker.join();
  }
  const auto spans = tracer.flatten();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].name, "bench.unit");
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_EQ(spans[1].calls, 3u);
  EXPECT_EQ(spans[2].parent, 0);
  EXPECT_NE(spans[2].thread, spans[0].thread);
  for (const FlatSpan& s : spans) {
    EXPECT_EQ(s.run_id, 7u);
    EXPECT_LE(s.start_ns, s.end_ns);
  }
}

TEST(Tracer, NullTracerScopeIsANoOp) {
  Scope scope(nullptr, 0);
  scope.set_calls(2);
  EXPECT_FALSE(scope.ref().valid());
}

TEST(MetricNames, EveryDeclaredNameIsWellFormedAndUnique) {
  EXPECT_FALSE(valid_metric_name(""));
  EXPECT_FALSE(valid_metric_name(".ms"));
  EXPECT_FALSE(valid_metric_name("host admit"));
  EXPECT_TRUE(valid_metric_name("study.run_trials.DistScroll.ms"));

  std::vector<std::string> names;
  for (const MetricDecl& decl : end_to_end_metrics()) names.push_back(decl.name);
  for (const MetricDecl& decl : all_per_layer_metrics()) names.push_back(decl.name);
  for (const Workload& workload : workloads()) {
    EXPECT_TRUE(valid_metric_name(workload.name)) << workload.name;
  }
  for (std::size_t i = 0; i < names.size(); ++i) {
    EXPECT_TRUE(valid_metric_name(names[i])) << names[i];
    for (std::size_t j = i + 1; j < names.size(); ++j) EXPECT_NE(names[i], names[j]);
  }
}

class WorkloadEmits : public ::testing::TestWithParam<std::string> {};

TEST_P(WorkloadEmits, EveryDeclaredMetricTracedAndUntraced) {
  const Workload* workload = find_workload(GetParam());
  ASSERT_NE(workload, nullptr);
  WorkloadOptions options;
  options.seed = 11;
  options.seconds = 0.0;
  options.threads = 2;
  options.out_dir = ::testing::TempDir();
  options.shrink = 64;
  for (const bool trace : {false, true}) {
    options.trace = trace;
    const WorkloadResult result = run_workload(*workload, options);
    EXPECT_TRUE(result.correct) << GetParam() << " trace=" << trace;
    EXPECT_GT(result.attempted, 0u);
    EXPECT_EQ(result.failed, 0u);
    const auto& declared = trace ? workload->per_layer : end_to_end_metrics();
    for (const MetricDecl& decl : declared) {
      const auto it = result.metrics.find(decl.name);
      ASSERT_NE(it, result.metrics.end()) << GetParam() << ": " << decl.name;
      EXPECT_EQ(it->second.unit, decl.unit) << decl.name;
      if (!trace) {
        EXPECT_GT(it->second.value, 0.0) << decl.name;
      }
      // Span-derived metrics must come from spans that were recorded.
      if (decl.name.size() > 6 && decl.name.compare(decl.name.size() - 6, 6, ".calls") == 0) {
        EXPECT_GT(it->second.value, 0.0) << decl.name;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, WorkloadEmits,
                         ::testing::Values("fleet", "fleet_parallel", "host_ingest",
                                           "technique_sweep"));

}  // namespace
}  // namespace perfbench
