// fleet and fleet_parallel: study::run_fleet on the default batched
// body over one population spec. A unit is one run_fleet call of
// kParticipants participants with a seed derived from the run's seed.
//
// fleet runs 1 thread without checkpointing: nearly all its time is the
// trial loop (human sampling, the study batch kernel) and the fold.
// fleet_parallel runs the same units on nproc threads with periodic
// checkpointing, so sim::ThreadPool, the FleetEngine window merge and
// util::checkpoint_io do real work there and nowhere else.
//
// The traced run rebuilds run_fleet from FleetEngine and the layers it
// calls, with a span around each call, and must fold byte-identical
// aggregates (and write byte-identical checkpoints) to run_fleet.
#include <algorithm>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "baselines/distance_scroll.h"
#include "human/population.h"
#include "result.h"
#include "study/batch_trials.h"
#include "study/fleet_engine.h"
#include "study/fleet_study.h"
#include "study/task.h"
#include "util/checkpoint_io.h"

namespace perfbench {
namespace {

using distscroll::study::FleetAggregates;
using distscroll::study::FleetStudyConfig;

constexpr std::uint64_t kParticipants = 2048;
constexpr std::uint32_t kTrialsPerParticipant = 4;

std::string checkpoint_path(const WorkloadOptions& options, const char* tag) {
  const std::string dir = options.out_dir.empty() ? std::string(".") : options.out_dir;
  return dir + "/fleet_parallel-" + tag + ".ckpt";
}

FleetStudyConfig unit_config(const WorkloadOptions& options, bool parallel, std::uint64_t seed,
                             std::uint64_t participants, const std::string& checkpoint) {
  FleetStudyConfig config;
  config.participants = participants;
  config.trials_per_participant = kTrialsPerParticipant;
  config.menu_size = 40;
  config.base_seed = seed;
  config.chunk = 256;
  config.window_chunks = 4;
  config.batched = true;
  config.threads = parallel ? options.threads : 1;
  if (parallel) {
    config.checkpoint_path = checkpoint;
    config.checkpoint_every = std::max<std::uint64_t>(participants / 2, 1);
  }
  return config;
}

/// The fleet output check: complete, status Ok, exact counts.
bool fleet_ok(const distscroll::study::FleetRunResult& run, const FleetStudyConfig& config) {
  return run.status == distscroll::util::CheckpointStatus::Ok && run.complete &&
         run.cursor == config.participants &&
         run.aggregates.participants() == config.participants &&
         run.aggregates.trials() == config.participants * config.trials_per_participant;
}

struct SpanIds {
  std::uint32_t unit, engine_run, chunk, sample, tasks, init_cell, batch_run, fold, checkpoint;
  explicit SpanIds(Tracer& t)
      : unit(t.intern("bench.unit")), engine_run(t.intern("study.engine_run")),
        chunk(t.intern("bench.chunk")), sample(t.intern("human.sample_participant")),
        tasks(t.intern("study.random_tasks")), init_cell(t.intern("study.batch_init_cell")),
        batch_run(t.intern("study.batch_run")), fold(t.intern("study.fold")),
        checkpoint(t.intern("util.checkpoint_write")) {}
};

struct TracedFleet {
  FleetAggregates aggregates;
  std::uint64_t cursor = 0;
  bool write_ok = true;
  std::uint64_t checkpoint_bytes = 0;
};

/// run_fleet (fresh run, batched body) rebuilt from its layers' public
/// functions, with a span around every call into a layer.
TracedFleet traced_run_fleet(const FleetStudyConfig& cfg, Tracer& tracer, const SpanIds& id) {
  namespace study = distscroll::study;
  TracedFleet out;
  Scope unit(&tracer, id.unit);

  study::FleetConfig engine_config;
  engine_config.participants = cfg.participants;
  engine_config.threads = cfg.threads;
  engine_config.chunk = cfg.chunk;
  engine_config.base_seed = cfg.base_seed;
  engine_config.window_chunks = cfg.window_chunks;

  std::uint64_t last_saved = 0;
  const auto save = [&](const FleetAggregates& aggregates, std::uint64_t cursor) {
    Scope span(&tracer, id.checkpoint);
    const auto payload = study::encode_fleet_checkpoint(cfg, cursor, aggregates);
    out.checkpoint_bytes += payload.size();
    const auto status = distscroll::util::write_checkpoint_file(
        cfg.checkpoint_path, study::kFleetCheckpointMagic, study::kFleetCheckpointVersion, payload);
    if (status != distscroll::util::CheckpointStatus::Ok) out.write_ok = false;
    return status == distscroll::util::CheckpointStatus::Ok;
  };
  const auto window_hook = [&](const FleetAggregates& aggregates, std::uint64_t cursor) {
    if (cfg.checkpoint_path.empty() || cfg.checkpoint_every == 0) return;
    if (cursor >= cfg.participants) return;
    if (cursor - last_saved < cfg.checkpoint_every) return;
    if (save(aggregates, cursor)) last_saved = cursor;
  };

  {
    Scope engine_span(&tracer, id.engine_run);
    const SpanRef engine_ref = engine_span.ref();
    const auto chunk_body = [&](std::uint64_t first, std::uint64_t count, FleetAggregates& agg,
                                const study::FleetEngine<FleetAggregates>& eng) {
      Scope chunk(&tracer, id.chunk, engine_ref);
      auto& batch = study::BatchTrialRunner::local();
      thread_local std::vector<distscroll::human::SampledParticipant> lanes;
      lanes.assign(static_cast<std::size_t>(count), distscroll::human::SampledParticipant{});
      batch.begin_group(static_cast<std::size_t>(count));
      for (std::uint64_t k = 0; k < count; ++k) {
        const auto lane = static_cast<std::size_t>(k);
        const distscroll::sim::Rng rng = eng.participant_rng(first + k);
        {
          Scope span(&tracer, id.sample);
          lanes[lane] = distscroll::human::sample_participant(cfg.population, rng.fork(0));
        }
        const auto& participant = lanes[lane];
        distscroll::sim::Rng task_rng = rng.fork(2);
        std::vector<study::SelectionTask> tasks;
        {
          Scope span(&tracer, id.tasks);
          tasks = study::random_tasks(task_rng, cfg.menu_size, cfg.trials_per_participant);
        }
        distscroll::baselines::DistanceScroll::Config technique{};
        technique.islands.far = distscroll::util::Centimeters{participant.reach_far_cm};
        Scope span(&tracer, id.init_cell);
        batch.init_cell(lane, technique, rng.fork(1), tasks, participant.profile, rng.fork(3));
      }
      {
        Scope span(&tracer, id.batch_run);
        batch.run();
      }
      Scope span(&tracer, id.fold);
      std::uint32_t folds = 0;
      for (std::uint64_t k = 0; k < count; ++k) {
        agg.fold_participant(lanes[static_cast<std::size_t>(k)]);
        for (const study::TrialRecord& record : batch.records(static_cast<std::size_t>(k))) {
          agg.fold_trial(record);
          ++folds;
        }
        ++folds;
      }
      span.set_calls(folds);
    };
    study::FleetEngine<FleetAggregates> engine(engine_config);
    engine.run(out.aggregates, out.cursor, cfg.participants, chunk_body, window_hook);
  }
  if (!cfg.checkpoint_path.empty()) (void)save(out.aggregates, out.cursor);
  return out;
}

std::vector<std::uint8_t> read_checkpoint(const std::string& path) {
  std::vector<std::uint8_t> payload;
  if (distscroll::util::read_checkpoint_file(path, distscroll::study::kFleetCheckpointMagic,
                                             distscroll::study::kFleetCheckpointVersion,
                                             payload) != distscroll::util::CheckpointStatus::Ok) {
    payload.clear();
  }
  return payload;
}

/// Pool metrics from the chunk spans: per unit, each pool thread's busy
/// time is the sum of its chunk spans; busy share is Σ busy over
/// (threads × engine span), imbalance is max busy over mean busy.
void set_pool_metrics(WorkloadResult& result, const std::vector<FlatSpan>& spans,
                      std::size_t threads) {
  struct UnitPool {
    double engine_s = 0.0;
    std::map<std::uint32_t, double> busy;  // by recorder thread
  };
  std::map<std::uint32_t, UnitPool> units;
  for (const FlatSpan& span : spans) {
    const double d = static_cast<double>(span.end_ns - span.start_ns) * 1e-9;
    if (span.name == "study.engine_run") units[span.run_id].engine_s += d;
    if (span.name == "bench.chunk") units[span.run_id].busy[span.thread] += d;
  }
  double busy_sum = 0.0, capacity = 0.0, imbalance_sum = 0.0;
  for (const auto& [run, unit] : units) {
    double total = 0.0, max_busy = 0.0;
    for (const auto& [thread, busy] : unit.busy) {
      total += busy;
      max_busy = std::max(max_busy, busy);
    }
    busy_sum += total;
    capacity += unit.engine_s * static_cast<double>(threads);
    const double mean = total / static_cast<double>(threads);
    imbalance_sum += mean > 0.0 ? max_busy / mean : 0.0;
  }
  result.set("sim.pool.busy_share", capacity > 0.0 ? busy_sum / capacity : 0.0, "ratio");
  result.set("sim.pool.imbalance",
             units.empty() ? 0.0 : imbalance_sum / static_cast<double>(units.size()), "ratio");
}

double fleet_setup(const WorkloadOptions& options, bool parallel) {
  const double t0 = now_s();
  const std::string path = checkpoint_path(options, "setup");
  const auto config = unit_config(options, parallel, derive_seed(options.seed, ~0ull),
                                  std::max<std::uint64_t>(kParticipants / options.shrink, 1),
                                  path);
  const auto run = distscroll::study::run_fleet(config);
  const double t1 = now_s();
  if (parallel) std::remove(path.c_str());
  if (!fleet_ok(run, config)) std::fprintf(stderr, "perfbench: fleet set-up run failed\n");
  return t1 - t0;
}

WorkloadResult fleet_run(const WorkloadOptions& options, bool parallel,
                         const std::vector<MetricDecl>& per_layer) {
  WorkloadResult result;
  const std::uint64_t participants = std::max<std::uint64_t>(kParticipants / options.shrink, 1);
  const std::string public_path = checkpoint_path(options, "public");
  const std::string traced_path = checkpoint_path(options, "traced");

  std::optional<Tracer> tracer;
  std::optional<SpanIds> ids;
  if (options.trace) {
    tracer.emplace();
    ids.emplace(*tracer);
  }

  std::vector<double> walls;
  double traced_s = 0.0;
  std::uint64_t checkpoint_bytes = 0;
  const double start = now_s();
  for (std::uint64_t u = 0;; ++u) {
    const std::uint64_t seed = derive_seed(options.seed, u);
    const auto config = unit_config(options, parallel, seed, participants, public_path);
    const double t0 = now_s();
    const auto run = distscroll::study::run_fleet(config);
    walls.push_back(now_s() - t0);
    bool ok = result.check(fleet_ok(run, config), "fleet run incomplete or counts not exact");

    if (tracer) {
      auto traced_config = config;
      if (parallel) traced_config.checkpoint_path = traced_path;
      tracer->set_run(static_cast<std::uint32_t>(u));
      const double t1 = now_s();
      const TracedFleet traced = traced_run_fleet(traced_config, *tracer, *ids);
      traced_s += now_s() - t1;
      checkpoint_bytes += traced.checkpoint_bytes;
      bool same = traced.write_ok && traced.cursor == run.cursor &&
                  traced.aggregates.to_bytes() == run.aggregates.to_bytes();
      if (parallel) {
        const auto a = read_checkpoint(public_path);
        same = same && !a.empty() && a == read_checkpoint(traced_path);
      }
      ok = result.check(same, "traced fleet rebuild differs from run_fleet") && ok;
    }
    result.count_run(ok);
    if (run_done(u + 1, start, options)) break;
  }
  std::remove(public_path.c_str());
  std::remove(traced_path.c_str());

  result.note("unit", std::to_string(participants) + " participants x " +
                          std::to_string(kTrialsPerParticipant) + " trials per run_fleet call");
  result.note("units", std::to_string(walls.size()));
  result.note("threads", std::to_string(parallel ? options.threads : 1));

  if (!tracer) {
    std::vector<double> rates;
    for (const double w : walls) rates.push_back(static_cast<double>(participants) / w);
    set_end_to_end(result, rates, walls);
    return result;
  }

  double wall_sum = 0.0;
  for (const double w : walls) wall_sum += w;
  const TraceSummary summary = set_trace_metrics(result, *tracer, per_layer, traced_s, wall_sum);
  const double units = static_cast<double>(std::max<std::uint64_t>(summary.units, 1));
  const auto engine = summary.by_name.find("study.engine_run");
  result.set("study.engine_other.ms",
             engine == summary.by_name.end() ? 0.0 : engine->second.self_s * 1e3 / units, "ms");
  set_pool_metrics(result, result.spans, parallel ? options.threads : 1);
  if (parallel) {
    result.set("util.checkpoint_write.bytes", static_cast<double>(checkpoint_bytes) / units, "B");
  }
  return result;
}

std::vector<MetricDecl> fleet_layers(bool parallel) {
  std::vector<MetricDecl> decls;
  for (const char* span : {"human.sample_participant", "study.random_tasks",
                           "study.batch_init_cell", "study.batch_run", "study.fold"}) {
    decls.push_back({std::string(span) + ".ms", "ms"});
    decls.push_back({std::string(span) + ".calls", "count"});
  }
  decls.push_back({"study.engine_other.ms", "ms"});
  decls.push_back({"sim.pool.busy_share", "ratio"});
  decls.push_back({"sim.pool.imbalance", "ratio"});
  if (parallel) {
    decls.push_back({"util.checkpoint_write.ms", "ms"});
    decls.push_back({"util.checkpoint_write.calls", "count"});
    decls.push_back({"util.checkpoint_write.bytes", "B"});
  }
  decls.push_back({"unattributed_share", "ratio"});
  decls.push_back({"trace_overhead_share", "ratio"});
  return decls;
}

}  // namespace

Workload fleet_workload() {
  Workload w;
  w.name = "fleet";
  w.per_layer = fleet_layers(false);
  w.setup = [](const WorkloadOptions& o) { return fleet_setup(o, false); };
  w.run = [](const WorkloadOptions& o) { return fleet_run(o, false, fleet_layers(false)); };
  return w;
}

Workload fleet_parallel_workload() {
  Workload w;
  w.name = "fleet_parallel";
  w.per_layer = fleet_layers(true);
  w.setup = [](const WorkloadOptions& o) { return fleet_setup(o, true); };
  w.run = [](const WorkloadOptions& o) { return fleet_run(o, true, fleet_layers(true)); };
  return w;
}

}  // namespace perfbench
