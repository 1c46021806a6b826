// exp_host_ingest: the multi-device host telemetry ingest pipeline at
// fleet scale.
//
// The paper demonstrated one DistScroll device against one host; this
// bench drives a default fleet of 2000 simulated devices (10k-capable
// via DISTSCROLL_HOST_DEVICES) through the full ingest path — ARQ
// links with loss/corruption/reorder/ack-loss fault injection,
// lane-sharded bounded queue, batch CRC validation, per-device
// sequence accounting, columnar DSTL compaction — and re-proves the
// pipeline's contracts on every run:
//
//   pass 1   timed single-thread reference with content verification —
//            every accepted frame re-derived from its device's pure
//            telemetry source; any mismatch fails the process
//   pass 2-4 same fleet at 2, 4 and 8 threads, timed — DSTL bytes AND
//            the metrics JSON must match the reference byte-for-byte
//   pass 5   overload: the same fleet through starved lanes and a
//            shortened ARQ queue — devices must shed at the source
//            (accepted + shed == offered exactly) with zero accepted-
//            frame corruption; the shed fraction is host_drop_rate
//
// BENCH_exp_host_ingest.json records host_frames_per_s (accepted
// frames through the timed reference), host_drop_rate and the
// bit-identity verdict; tools/bench_compare gates all three under
// `ctest -L perf`. It also records each multi-thread pass's accepted
// frames/s as host_frames_per_s_t2 / _t4 / _t8 (ungated). The process
// exit code enforces the invariants even without a baseline.
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "host/host_pipeline.h"
#include "obs/metrics.h"
#include "obs/tracer.h"
#include "study/sweep_runner.h"
#include "util/bench_report.h"

namespace {

using distscroll::host::HostIngestConfig;
using distscroll::host::run_host_ingest;

std::size_t devices_from_env() {
  if (const char* env = std::getenv("DISTSCROLL_HOST_DEVICES")) {
    const unsigned long long parsed = std::strtoull(env, nullptr, 10);
    if (parsed >= 16) return static_cast<std::size_t>(parsed);
  }
  return 2000;
}

HostIngestConfig base_config(std::size_t devices) {
  HostIngestConfig config;
  config.devices = devices;
  config.lanes = 8;
  config.lane_capacity = 512;
  config.duration_s = 2.0;
  config.faults.frame_loss = 0.01;
  config.faults.bit_flip = 0.002;
  config.faults.reorder = 0.005;
  config.faults.ack_loss = 0.005;
  config.base_seed = 0xD157BE;
  config.session_id = 7;
  config.threads = 1;
  return config;
}

}  // namespace

int main() {
  namespace study = distscroll::study;
  namespace obs = distscroll::obs;

  const std::size_t devices = devices_from_env();

  // Pass 1: the timed single-thread reference, content verification on
  // (the verify cost is part of the pipeline's contract, so it stays
  // on the timed path).
  obs::MetricsRegistry reference_metrics;
  const double t0 = study::sweep_wall_clock_s();
  const auto reference = run_host_ingest(base_config(devices), &reference_metrics);
  const double host_wall_s = study::sweep_wall_clock_s() - t0;
  if (!reference.stats.complete) {
    std::fprintf(stderr, "exp_host_ingest: reference pass did not drain\n");
    return 1;
  }
  if (reference.stats.content_mismatches != 0) {
    std::fprintf(stderr, "exp_host_ingest: %" PRIu64 " accepted frames failed content verify\n",
                 reference.stats.content_mismatches);
    return 1;
  }
  const std::string reference_metrics_json = reference_metrics.to_json_fields();

  // Passes 2-4: the identical fleet on 2, 4 and 8 threads — the DSTL
  // container and the metrics JSON must be byte-equal to the reference.
  bool host_bit_identical = true;
  std::vector<std::pair<std::size_t, double>> frames_per_s_by_threads;
  for (const std::size_t threads : {std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
    auto config = base_config(devices);
    config.threads = threads;
    obs::MetricsRegistry metrics;
    const double start_s = study::sweep_wall_clock_s();
    const auto result = run_host_ingest(config, &metrics);
    const double wall_s = study::sweep_wall_clock_s() - start_s;
    frames_per_s_by_threads.emplace_back(
        threads,
        wall_s > 0.0 ? static_cast<double>(result.stats.frames_accepted) / wall_s : 0.0);
    const bool same = result.stats.complete && result.dstl == reference.dstl &&
                      metrics.to_json_fields() == reference_metrics_json;
    if (!same) {
      std::fprintf(stderr, "exp_host_ingest: %zu-thread pass DIVERGED from reference\n", threads);
      host_bit_identical = false;
    }
  }

  // Pass 5: overload. Starved lanes and a shortened ARQ queue force the
  // devices to shed at the source; the accounting must stay exact
  // (accepted + shed == offered) and every frame that DID land must
  // still verify against its telemetry source. Faults are off and the
  // drain grace is generous so the fleet fully drains and the ledger
  // has no third bucket (no retry-exhausted drops, no stranded
  // in-flight frames) — the pass isolates pure backpressure shedding.
  auto overload_config = base_config(devices);
  overload_config.faults = {};
  overload_config.lanes = 2;
  overload_config.lane_capacity = 48;
  overload_config.arq.queue_capacity = 8;
  overload_config.duration_s = 0.5;
  overload_config.drain_grace_s = 10.0;
  const auto overload = run_host_ingest(overload_config);
  const auto& os = overload.stats;
  if (!os.complete || os.content_mismatches != 0 ||
      os.frames_accepted + os.reports_shed != os.reports_offered) {
    std::fprintf(stderr,
                 "exp_host_ingest: overload pass broke the shedding ledger "
                 "(offered %" PRIu64 " accepted %" PRIu64 " shed %" PRIu64 " mismatches %" PRIu64
                 ")\n",
                 os.reports_offered, os.frames_accepted, os.reports_shed, os.content_mismatches);
    return 1;
  }
  const double host_drop_rate =
      os.reports_offered > 0
          ? static_cast<double>(os.reports_shed) / static_cast<double>(os.reports_offered)
          : 0.0;

  const auto& rs = reference.stats;
  const double frames_per_s =
      host_wall_s > 0.0 ? static_cast<double>(rs.frames_accepted) / host_wall_s : 0.0;
  std::printf("[exp_host_ingest] %zu devices, %" PRIu64 " frames accepted: %.2f s "
              "(%.0f frames/s, 1 thread)\n",
              devices, rs.frames_accepted, host_wall_s, frames_per_s);
  std::printf("  lost %" PRIu64 "  corrupted %" PRIu64 "  reordered %" PRIu64
              "  crc-rejected %" PRIu64 "  residual gaps %" PRIu64 "  mismatches %" PRIu64 "\n",
              rs.link_frames_lost, rs.link_frames_corrupted, rs.link_frames_reordered,
              rs.frames_crc_rejected, rs.sequence_gaps, rs.content_mismatches);
  for (const auto& [threads, rate] : frames_per_s_by_threads) {
    std::printf("  %zu threads: %.0f frames/s\n", threads, rate);
  }
  std::printf("  thread bit-identity %s, overload drop rate %.4f (%" PRIu64 " of %" PRIu64
              " offered shed at the device)\n",
              host_bit_identical ? "OK" : "DIVERGED", host_drop_rate, os.reports_shed,
              os.reports_offered);

  distscroll::util::BenchReport report;
  report.name = "exp_host_ingest";
  report.cells = devices;
  report.threads = 1;  // the timed reference pass
  report.hardware_threads = study::resolve_sweep_threads(0);
  // The host reference wall doubles as sequential_wall_s so the
  // standard bench_compare wall gate applies unchanged.
  report.sequential_wall_s = host_wall_s;
  report.parallel_wall_s = host_wall_s;
  report.speedup = 1.0;
  report.bit_identical = host_bit_identical;
  report.tracing_compiled = distscroll::obs::Tracer::compiled_in();
  report.peak_rss_bytes = study::sweep_peak_rss_bytes();
  report.host_devices = devices;
  report.host_wall_s = host_wall_s;
  report.host_frames_per_s = frames_per_s;
  report.host_drop_rate = host_drop_rate;
  report.host_bit_identical = host_bit_identical;
  report.host_frames_per_s_by_threads = frames_per_s_by_threads;
  report.metrics_json = reference_metrics.to_json_fields(4);
  if (!distscroll::util::write_bench_report(report)) {
    std::fprintf(stderr, "exp_host_ingest: could not write BENCH json\n");
    return 1;
  }

  return host_bit_identical ? 0 : 1;
}
