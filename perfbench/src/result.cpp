#include "result.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

#include <sys/resource.h>

namespace perfbench {

bool WorkloadResult::check(bool ok, const char* what) {
  if (!ok) {
    correct = false;
    std::fprintf(stderr, "perfbench: output check failed: %s\n", what);
  }
  return ok;
}

const std::vector<MetricDecl>& end_to_end_metrics() {
  static const std::vector<MetricDecl> kMetrics = {
      {"setup_s", "s"},
      {"throughput_per_s", "1/s"},
      {"unit_p50_ms", "ms"},
      {"unit_p99_ms", "ms"},
      {"peak_rss_mb", "MB"},
  };
  return kMetrics;
}

bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(),
                     [&](char c) { return alnum(c) || c == '_' || c == '.' || c == '-'; });
}

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> kWorkloads = {
      fleet_workload(),
      fleet_parallel_workload(),
      host_ingest_workload(),
      technique_sweep_workload(),
  };
  return kWorkloads;
}

const Workload* find_workload(std::string_view name) {
  for (const Workload& workload : workloads()) {
    if (workload.name == name) return &workload;
  }
  return nullptr;
}

std::vector<MetricDecl> all_per_layer_metrics() {
  std::vector<MetricDecl> all;
  for (const Workload& workload : workloads()) {
    for (const MetricDecl& decl : workload.per_layer) {
      const bool seen = std::any_of(all.begin(), all.end(),
                                    [&](const MetricDecl& d) { return d.name == decl.name; });
      if (!seen) all.push_back(decl);
    }
  }
  return all;
}

WorkloadResult run_workload(const Workload& workload, const WorkloadOptions& options) {
  const double setup_s = workload.setup(options);
  WorkloadResult result = workload.run(options);
  if (!options.trace) {
    result.set("setup_s", setup_s, "s");
    result.set("peak_rss_mb", peak_rss_mb(), "MB");
  }
  const auto& declared = options.trace ? workload.per_layer : end_to_end_metrics();
  for (const MetricDecl& decl : declared) {
    const auto it = result.metrics.find(decl.name);
    const bool ok = it != result.metrics.end() && std::isfinite(it->second.value);
    if (!ok) {
      std::fprintf(stderr, "perfbench: metric %s missing or not finite\n", decl.name.c_str());
      result.correct = false;
    }
  }
  return result;
}

double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = std::clamp(q, 0.0, 1.0) * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t index) {
  // splitmix64 over (seed, index): distinct units get unrelated seeds.
  std::uint64_t z = seed + 0x9E37'79B9'7F4A'7C15ull * (index + 1);
  z = (z ^ (z >> 30)) * 0xBF58'476D'1CE4'E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D0'49BB'1331'11EBull;
  return z ^ (z >> 31);
}

double peak_rss_mb() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

bool run_done(std::uint64_t units_done, double start_s, const WorkloadOptions& options) {
  return units_done >= kMinUnits && now_s() - start_s >= options.seconds;
}

void set_end_to_end(WorkloadResult& result, const std::vector<double>& rates,
                    const std::vector<double>& latencies_s) {
  result.set("throughput_per_s", quantile(rates, 0.5), "1/s");
  result.set("unit_p50_ms", quantile(latencies_s, 0.5) * 1e3, "ms");
  // The p99 of each third of the run, in time order, and the median of
  // the three: one burst of host noise moves one third, not the result.
  std::vector<double> thirds;
  for (std::size_t t = 0; t < 3; ++t) {
    const auto first = latencies_s.begin() + static_cast<std::ptrdiff_t>(
                                                 t * latencies_s.size() / 3);
    const auto last = latencies_s.begin() + static_cast<std::ptrdiff_t>(
                                                (t + 1) * latencies_s.size() / 3);
    if (first != last) thirds.push_back(quantile({first, last}, 0.99));
  }
  result.set("unit_p99_ms", quantile(thirds, 0.5) * 1e3, "ms");
}

TraceSummary set_trace_metrics(WorkloadResult& result, const Tracer& tracer,
                               const std::vector<MetricDecl>& declared, double traced_s,
                               double untraced_s) {
  result.spans = tracer.flatten();
  TraceSummary summary = analyse(result.spans);
  const double units = summary.units > 0 ? static_cast<double>(summary.units) : 1.0;
  const auto ends_with = [](const std::string& s, std::string_view suffix) {
    return s.size() > suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
  };
  for (const MetricDecl& decl : declared) {
    for (const std::string_view suffix : {std::string_view{".ms"}, std::string_view{".calls"}}) {
      if (!ends_with(decl.name, suffix)) continue;
      const std::string span = decl.name.substr(0, decl.name.size() - suffix.size());
      const auto it = summary.by_name.find(span);
      if (it == summary.by_name.end()) continue;
      const double value = suffix == ".ms" ? it->second.self_s * 1e3 / units
                                           : static_cast<double>(it->second.calls) / units;
      result.set(decl.name, value, decl.unit);
    }
  }
  result.set("unattributed_share", summary.unattributed_share(), "ratio");
  result.set("trace_overhead_share", (traced_s - untraced_s) / untraced_s, "ratio");
  return summary;
}

}  // namespace perfbench
