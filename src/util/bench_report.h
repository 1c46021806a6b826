// Perf-trajectory records for the experiment benches.
//
// Every bench converted to the parallel SweepRunner emits one
// BENCH_<name>.json next to its CSV: wall clock sequential vs parallel,
// the speedup, cell counts and thread counts. CI and later PRs diff
// these files to track the perf trajectory.
#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

namespace distscroll::util {

struct BenchReport {
  std::string name;              // experiment name, e.g. "exp_scroll_comparison"
  std::size_t cells = 0;         // sweep cells executed (per pass)
  std::size_t threads = 1;       // thread count of the parallel pass
  std::size_t hardware_threads = 1;
  double sequential_wall_s = 0.0;
  double parallel_wall_s = 0.0;
  double speedup = 1.0;          // sequential / parallel
  bool bit_identical = true;     // parallel results byte-equal to sequential
  bool tracing_compiled = true;  // DISTSCROLL_TRACING at build time
  /// Peak resident set (getrusage ru_maxrss) at report time, bytes.
  /// Process-wide and monotone; 0 where the probe is unavailable.
  std::size_t peak_rss_bytes = 0;
  // Streaming fleet pass (study::run_fleet); the block is emitted only
  // when fleet_participants > 0, so sweep-only benches are unaffected.
  std::size_t fleet_participants = 0;
  double fleet_wall_s = 0.0;             // reference (1-thread) fleet pass
  double fleet_participants_per_s = 0.0;
  std::size_t fleet_threads = 0;         // resolved thread count of the parallel pass
  /// Merged aggregates byte-equal across every thread count exercised.
  bool fleet_bit_identical = true;
  /// Full run byte-equal to a forced checkpoint + resume split.
  bool fleet_resume_bit_identical = true;
  /// Peak-RSS ratio (full run / small-run baseline); ~1.0 proves
  /// O(aggregates) memory. 0 when the probe is unavailable.
  double fleet_rss_growth = 0.0;
  /// Participants/s of each multi-thread fleet pass as (threads, rate),
  /// emitted as "fleet_participants_per_s_t<threads>" — the scaling
  /// curve beside the 1-thread fleet_participants_per_s.
  std::vector<std::pair<std::size_t, double>> fleet_participants_per_s_by_threads;
  // Host ingest pass (host::run_host_ingest); the block is emitted only
  // when host_devices > 0, so other benches are unaffected.
  std::size_t host_devices = 0;
  double host_wall_s = 0.0;              // reference (1-thread) ingest pass
  double host_frames_per_s = 0.0;        // accepted frames / host_wall_s
  /// Fraction of offered reports shed under the overload pass.
  double host_drop_rate = 0.0;
  /// DSTL bytes + metrics JSON byte-equal across every thread count.
  bool host_bit_identical = true;
  /// Accepted frames/s of each multi-thread ingest pass as (threads,
  /// rate), emitted as "host_frames_per_s_t<threads>" — the scaling
  /// curve beside the 1-thread host_frames_per_s.
  std::vector<std::pair<std::size_t, double>> host_frames_per_s_by_threads;
  /// Pre-rendered `"name": value` lines for the nested "metrics" object
  /// (obs::MetricsRegistry::to_json_fields(4); util cannot link obs).
  /// Empty = no metrics block emitted.
  std::string metrics_json;
};

/// Writes `BENCH_<report.name>.json` in the working directory.
/// Returns false when the file could not be opened.
bool write_bench_report(const BenchReport& report);

}  // namespace distscroll::util
