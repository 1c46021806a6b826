// host_ingest: host::run_host_ingest, 1 thread, 2000 devices behind the
// fault mix of bench/exp_host_ingest.cpp (1% loss, 0.2% bit flips, 0.5%
// reorder, 0.5% ack loss) with content verification on. A unit is one
// run_host_ingest call over kDurationS of simulated telemetry with a
// seed derived from the run's seed. All the work is in the host and
// wireless layers; none of it is in the trial loop.
//
// The traced run rebuilds the pipeline's window loop from the host and
// wireless public functions. Each drained batch goes through the drain
// steps one step at a time (parse every frame, then admit, then verify,
// then append), so one span covers one step over the batch rather than
// one frame. Every step still sees the frames in arrival order and the
// steps touch disjoint state, so the DSTL bytes must equal
// run_host_ingest's; the run fails if they do not.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "host/columnar.h"
#include "host/device_registry.h"
#include "host/host_pipeline.h"
#include "host/ingest_queue.h"
#include "host/sim_link.h"
#include "result.h"
#include "sim/thread_pool.h"
#include "wireless/packet.h"

namespace perfbench {
namespace {

namespace host = distscroll::host;
namespace wireless = distscroll::wireless;

constexpr std::size_t kDevices = 2000;
constexpr double kDurationS = 2.0;

host::HostIngestConfig unit_config(std::uint64_t seed, std::size_t devices, double duration_s) {
  host::HostIngestConfig config;
  config.devices = devices;
  config.lanes = 8;
  config.lane_capacity = 512;
  config.duration_s = duration_s;
  config.faults.frame_loss = 0.01;
  config.faults.bit_flip = 0.002;
  config.faults.reorder = 0.005;
  config.faults.ack_loss = 0.005;
  config.base_seed = seed;
  config.session_id = 7;
  config.threads = 1;
  config.verify_content = true;
  return config;
}

/// The host output check: an exact ledger, no content mismatches, and
/// a DSTL container that decodes to exactly the accepted records.
bool host_ok(const host::HostIngestResult& run) {
  const auto& s = run.stats;
  const bool ledger = s.frames_accepted + s.reports_shed + s.arq_drops_retry_exhausted +
                          s.sequence_gaps ==
                      s.reports_offered;
  const auto decoded = host::decode_dstl(run.dstl);
  return s.complete && ledger && s.content_mismatches == 0 && decoded && *decoded == run.records;
}

struct SpanIds {
  std::uint32_t unit, make_links, window, step_window, pop_batch, parse, admit, report_at, append,
      finish;
  explicit SpanIds(Tracer& t)
      : unit(t.intern("bench.unit")), make_links(t.intern("host.make_links")),
        window(t.intern("bench.window")), step_window(t.intern("host.step_window")),
        pop_batch(t.intern("host.pop_batch")), parse(t.intern("wireless.parse_wire_frame")),
        admit(t.intern("host.admit")), report_at(t.intern("host.report_at")),
        append(t.intern("host.columnar_append")), finish(t.intern("host.columnar_finish")) {}
};

/// run_host_ingest (no metrics registry) rebuilt with a span around
/// every call into the host and wireless layers.
host::HostIngestResult traced_run_host_ingest(const host::HostIngestConfig& config,
                                              Tracer& tracer, const SpanIds& id) {
  Scope unit(&tracer, id.unit);
  host::HostIngestResult result;
  host::HostIngestStats& stats = result.stats;
  const std::size_t lanes = std::max<std::size_t>(1, config.lanes);
  const std::size_t batch = std::max<std::size_t>(1, config.batch);

  std::optional<host::IngestQueue> queue;
  std::optional<host::DeviceRegistry> registry;
  std::optional<host::ColumnarWriter> writer;
  std::vector<std::unique_ptr<host::SimDeviceLink>> links;
  std::vector<std::vector<std::size_t>> lane_members(lanes);
  {
    Scope span(&tracer, id.make_links);
    queue.emplace(lanes, config.lane_capacity);
    registry.emplace(config.devices);
    writer.emplace(config.session_id);
    const double period_s = 1.0 / config.report_hz;
    distscroll::sim::Rng fleet_rng(config.base_seed);
    links.reserve(config.devices);
    for (std::size_t d = 0; d < config.devices; ++d) {
      const std::size_t lane = d * lanes / config.devices;
      links.push_back(std::make_unique<host::SimDeviceLink>(
          static_cast<std::uint16_t>(d), lane, *queue, config.arq, config.faults, period_s,
          config.duration_s, fleet_rng.fork(d)));
      lane_members[lane].push_back(d);
    }
    span.set_calls(static_cast<std::uint32_t>(config.devices));
  }

  distscroll::sim::ThreadPool pool(config.threads);
  std::vector<host::RawRecord> drained(batch);
  std::vector<std::optional<wireless::FrameView>> views(batch);
  std::vector<wireless::StateReport> reports(batch);
  std::vector<char> keep(batch, 0);

  const double run_end_s = config.duration_s + config.drain_grace_s;
  for (std::size_t w = 1;; ++w) {
    Scope window(&tracer, id.window);
    const SpanRef window_ref = window.ref();
    double end_s = static_cast<double>(w) * config.window_s;
    const bool last_window = end_s >= run_end_s;
    if (last_window) end_s = run_end_s;

    pool.parallel_for(lanes, [&](std::size_t lane) {
      Scope span(&tracer, id.step_window, window_ref);
      for (const std::size_t d : lane_members[lane]) links[d]->step_window(end_s);
      span.set_calls(static_cast<std::uint32_t>(lane_members[lane].size()));
    });
    stats.max_queue_depth = std::max(stats.max_queue_depth, queue->depth());

    for (std::size_t lane = 0; lane < lanes; ++lane) {
      for (;;) {
        std::size_t n = 0;
        {
          Scope span(&tracer, id.pop_batch);
          n = queue->pop_batch(lane, drained);
        }
        if (n == 0) break;
        const auto calls = static_cast<std::uint32_t>(n);
        stats.frames_drained += n;
        {
          Scope span(&tracer, id.parse);
          span.set_calls(calls);
          for (std::size_t i = 0; i < n; ++i) {
            views[i] = wireless::parse_wire_frame({drained[i].wire.data(), drained[i].len});
          }
        }
        {
          Scope span(&tracer, id.admit);
          span.set_calls(calls);
          for (std::size_t i = 0; i < n; ++i) {
            keep[i] = 0;
            if (!views[i]) {
              ++stats.frames_crc_rejected;
              continue;
            }
            links[drained[i].device_id]->queue_ack(views[i]->seq);
            const auto decision = registry->admit(drained[i].device_id, views[i]->seq);
            keep[i] = decision.verdict != host::DeviceRegistry::Verdict::Duplicate &&
                      decision.verdict != host::DeviceRegistry::Verdict::TooOld;
          }
        }
        {
          Scope span(&tracer, id.report_at);
          span.set_calls(calls);
          for (std::size_t i = 0; i < n; ++i) {
            if (!keep[i]) continue;
            const auto report = wireless::StateReport::unpack(views[i]->payload);
            if (views[i]->type != wireless::FrameType::State || !report) {
              ++stats.frames_malformed;
              keep[i] = 0;
              continue;
            }
            if (config.verify_content) {
              const host::SimDeviceLink& link = *links[drained[i].device_id];
              if (!(link.source().report_at(link.index_for_seq(views[i]->seq)) == *report)) {
                ++stats.content_mismatches;
                keep[i] = 0;
                continue;
              }
            }
            reports[i] = *report;
          }
        }
        Scope span(&tracer, id.append);
        span.set_calls(calls);
        for (std::size_t i = 0; i < n; ++i) {
          if (!keep[i]) continue;
          host::CompactRecord record;
          record.t_us = drained[i].t_us;
          record.device_id = drained[i].device_id;
          record.seq = views[i]->seq;
          record.state = reports[i];
          writer->append(record);
          result.records.push_back(record);
        }
      }
    }

    stats.windows = w;
    if (end_s >= config.duration_s) {
      const bool pending = std::any_of(links.begin(), links.end(),
                                       [](const auto& link) { return link->pending() > 0; });
      if (!pending) {
        stats.complete = true;
        break;
      }
    }
    if (last_window) break;
  }

  for (const auto& link : links) {
    stats.reports_offered += link->reports_offered();
    stats.reports_shed += link->reports_shed();
    stats.arq_transmissions += link->sender().transmissions();
    stats.arq_retransmissions += link->sender().retransmissions();
    stats.arq_drops_retry_exhausted += link->sender().drops_retry_exhausted();
    stats.backpressure_stalls += link->backpressure_stalls();
    stats.link_frames_lost += link->frames_lost();
    stats.link_frames_corrupted += link->frames_corrupted();
    stats.link_frames_reordered += link->frames_reordered();
    stats.acks_lost += link->acks_lost();
  }
  stats.frames_accepted = registry->accepted();
  stats.frames_reordered = registry->reordered();
  stats.frames_duplicate = registry->duplicates();
  stats.frames_too_old = registry->too_old();
  stats.sequence_gaps = registry->gaps();
  stats.devices_seen = registry->devices_seen();

  Scope span(&tracer, id.finish);
  result.dstl = writer->finish();
  return result;
}

double host_setup(const WorkloadOptions& options) {
  const double t0 = now_s();
  const auto config = unit_config(derive_seed(options.seed, ~0ull),
                                  std::max<std::size_t>(kDevices / options.shrink, 16),
                                  kDurationS);
  const auto run = host::run_host_ingest(config);
  const double t1 = now_s();
  if (!host_ok(run)) std::fprintf(stderr, "perfbench: host set-up run failed\n");
  return t1 - t0;
}

std::vector<MetricDecl> host_layers() {
  return {
      {"host.make_links.ms", "ms"},
      {"host.step_window.ms", "ms"},
      {"host.pop_batch.ms", "ms"},
      {"wireless.parse_wire_frame.ms", "ms"},
      {"wireless.parse_wire_frame.calls", "count"},
      {"wireless.crc_rejected", "count"},
      {"host.admit.ms", "ms"},
      {"host.admit.duplicates", "count"},
      {"host.admit.reordered", "count"},
      {"host.report_at.ms", "ms"},
      {"host.columnar_append.ms", "ms"},
      {"host.columnar_finish.ms", "ms"},
      {"host.dstl_bytes_per_record", "B"},
      {"host.window_p50_ms", "ms"},
      {"host.window_p99_ms", "ms"},
      {"host.queue_depth_max", "count"},
      {"host.useful_share", "ratio"},
      {"wireless.retx_share", "ratio"},
      {"unattributed_share", "ratio"},
      {"trace_overhead_share", "ratio"},
  };
}

WorkloadResult host_run(const WorkloadOptions& options) {
  WorkloadResult result;
  const std::size_t devices = std::max<std::size_t>(kDevices / options.shrink, 16);
  std::optional<Tracer> tracer;
  std::optional<SpanIds> ids;
  if (options.trace) {
    tracer.emplace();
    ids.emplace(*tracer);
  }

  std::vector<double> walls;
  double wall_sum = 0.0, traced_s = 0.0;
  std::vector<double> rates;  // accepted frames per second of each unit
  // Traced-unit totals for the per-layer counts.
  double crc = 0, dup = 0, reordered = 0, drained = 0, accepted_traced = 0, tx = 0, retx = 0;
  double dstl_bytes = 0, records = 0, depth_max = 0;
  const double start = now_s();
  for (std::uint64_t u = 0;; ++u) {
    const auto config = unit_config(derive_seed(options.seed, u), devices, kDurationS);
    const double t0 = now_s();
    const auto run = host::run_host_ingest(config);
    const double wall = now_s() - t0;
    walls.push_back(wall);
    wall_sum += wall;
    rates.push_back(static_cast<double>(run.stats.frames_accepted) / wall);
    result.check(host_ok(run), "host ledger, content verify or DSTL decode");
    const auto& s = run.stats;
    result.attempted += s.reports_offered;
    result.failed += s.reports_offered - std::min(s.reports_offered, s.frames_accepted) +
                     s.content_mismatches;

    if (tracer) {
      tracer->set_run(static_cast<std::uint32_t>(u));
      const double t1 = now_s();
      const auto traced = traced_run_host_ingest(config, *tracer, *ids);
      traced_s += now_s() - t1;
      result.check(traced.dstl == run.dstl && traced.records == run.records &&
                            traced.stats.frames_accepted == s.frames_accepted &&
                            traced.stats.frames_drained == s.frames_drained &&
                            traced.stats.windows == s.windows,
                   "traced host rebuild differs from run_host_ingest");
      const auto& t = traced.stats;
      crc += static_cast<double>(t.frames_crc_rejected);
      dup += static_cast<double>(t.frames_duplicate);
      reordered += static_cast<double>(t.frames_reordered);
      drained += static_cast<double>(t.frames_drained);
      accepted_traced += static_cast<double>(t.frames_accepted);
      tx += static_cast<double>(t.arq_transmissions);
      retx += static_cast<double>(t.arq_retransmissions);
      dstl_bytes += static_cast<double>(traced.dstl.size());
      records += static_cast<double>(traced.records.size());
      depth_max = std::max(depth_max, static_cast<double>(t.max_queue_depth));
    }
    if (run_done(u + 1, start, options)) break;
  }

  result.note("unit", std::to_string(devices) + " devices x " +
                          std::to_string(static_cast<int>(kDurationS)) +
                          " s simulated per run_host_ingest call");
  result.note("units", std::to_string(walls.size()));
  result.note("threads", "1");

  if (!tracer) {
    set_end_to_end(result, rates, walls);
    return result;
  }

  const TraceSummary summary =
      set_trace_metrics(result, *tracer, host_layers(), traced_s, wall_sum);
  const double units = static_cast<double>(std::max<std::uint64_t>(summary.units, 1));
  std::vector<double> window_ms;
  for (const FlatSpan& span : result.spans) {
    if (span.name == "bench.window") {
      window_ms.push_back(static_cast<double>(span.end_ns - span.start_ns) * 1e-6);
    }
  }
  result.note("windows", std::to_string(window_ms.size()));
  result.set("wireless.crc_rejected", crc / units, "count");
  result.set("host.admit.duplicates", dup / units, "count");
  result.set("host.admit.reordered", reordered / units, "count");
  result.set("host.dstl_bytes_per_record", records > 0 ? dstl_bytes / records : 0.0, "B");
  result.set("host.window_p50_ms", quantile(window_ms, 0.5), "ms");
  result.set("host.window_p99_ms", quantile(window_ms, 0.99), "ms");
  result.set("host.queue_depth_max", depth_max, "count");
  result.set("host.useful_share", drained > 0 ? accepted_traced / drained : 0.0, "ratio");
  result.set("wireless.retx_share", tx > 0 ? retx / tx : 0.0, "ratio");
  return result;
}

}  // namespace

Workload host_ingest_workload() {
  Workload w;
  w.name = "host_ingest";
  w.per_layer = host_layers();
  w.setup = host_setup;
  w.run = host_run;
  return w;
}

}  // namespace perfbench
