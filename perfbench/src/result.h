// Shared vocabulary of the benchmark: metric declarations, the result
// record a workload returns, the workload table, and small measurement
// helpers (percentiles, seed derivation, clocks, RSS).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "span_trace.h"

namespace perfbench {

struct MetricDecl {
  std::string name;
  std::string unit;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

using Metrics = std::map<std::string, Metric>;

/// The end-to-end metrics, reported by every workload with tracing off.
/// What a "unit" of work is differs per workload (README.md).
[[nodiscard]] const std::vector<MetricDecl>& end_to_end_metrics();

/// Metric and workload names: [A-Za-z0-9_.-]+, starting with a letter
/// or digit, at most 64 characters.
[[nodiscard]] bool valid_metric_name(std::string_view name);

struct WorkloadOptions {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Threads for the parallel workload (nproc).
  std::size_t threads = 1;
  /// Where the traced run writes its spans ("" = do not write).
  std::string out_dir;
  /// Divides every unit's size; 1 for the benchmark, larger in tests.
  std::uint64_t shrink = 1;
};

struct WorkloadResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Metrics metrics;
  /// Context printed with the result (sample counts, unit sizes).
  std::vector<std::pair<std::string, std::string>> notes;
  /// Spans of the traced run (empty when untraced).
  std::vector<FlatSpan> spans;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void note(const std::string& key, const std::string& value) { notes.emplace_back(key, value); }
  /// A failed output check clears `correct` and is reported on
  /// stderr; returns `ok`.
  bool check(bool ok, const char* what);
  /// Counts one run of the workload against attempted/failed.
  void count_run(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

struct Workload {
  std::string name;
  /// The per-layer metrics this workload's traced run must emit.
  std::vector<MetricDecl> per_layer;
  /// Builds the inputs and runs one small warm-up unit; returns its
  /// wall time in seconds (the set-up time).
  double (*setup)(const WorkloadOptions&);
  WorkloadResult (*run)(const WorkloadOptions&);
};

[[nodiscard]] const std::vector<Workload>& workloads();
[[nodiscard]] const Workload* find_workload(std::string_view name);

/// Union of every workload's per-layer metrics, first declaration wins.
[[nodiscard]] std::vector<MetricDecl> all_per_layer_metrics();

/// Set-up, then the run: untraced, adds setup_s and peak_rss_mb to the
/// workload's end-to-end metrics. A declared metric (end-to-end, or the
/// workload's per-layer set when traced) that is missing or not finite
/// clears `correct`.
[[nodiscard]] WorkloadResult run_workload(const Workload& workload,
                                          const WorkloadOptions& options);

Workload fleet_workload();
Workload fleet_parallel_workload();
Workload host_ingest_workload();
Workload technique_sweep_workload();

// --- measurement helpers ----------------------------------------------------

[[nodiscard]] double now_s();
/// Linear-interpolated quantile (q in [0,1]) of `values`; 0 if empty.
[[nodiscard]] double quantile(std::vector<double> values, double q);
/// Distinct, well-mixed seed for unit `index` of a run seeded `seed`.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t index);
[[nodiscard]] double peak_rss_mb();

/// A run measures at least this many units, then stops once
/// options.seconds have passed since `start_s`.
inline constexpr std::uint64_t kMinUnits = 3;
[[nodiscard]] bool run_done(std::uint64_t units_done, double start_s,
                            const WorkloadOptions& options);

/// The untraced end-to-end metrics: throughput is the median of the
/// per-unit rates (items/s); p50 is over `latencies_s` (in time order),
/// p99 the median of the p99s of its three consecutive thirds.
void set_end_to_end(WorkloadResult& result, const std::vector<double>& rates,
                    const std::vector<double>& latencies_s);

/// The traced run's shared metrics. Moves the tracer's spans into
/// result.spans, sets every declared "<span>.ms" (self time per unit)
/// and "<span>.calls" (calls per unit) whose span was recorded, plus
/// unattributed_share and trace_overhead_share (traced over untraced
/// wall of the same units). Returns the summary for workload extras.
TraceSummary set_trace_metrics(WorkloadResult& result, const Tracer& tracer,
                               const std::vector<MetricDecl>& declared, double traced_s,
                               double untraced_s);

}  // namespace perfbench
