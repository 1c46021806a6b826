// perfbench: runs one benchmark workload and prints its result.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--out-dir DIR] [--setup-only]
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer
// metrics of the traced run (and writes its spans to
// DIR/NAME.spans.tsv). --setup-only times one set-up and prints
// {"setup_s": ...}. The last stdout line is the result JSON; the line
// before it is a stamp with the host and build the numbers came from.
// Exit code 0 only when every output check passed.
#include <sched.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "obs/tracer.h"
#include "result.h"

namespace {

using perfbench::MetricDecl;

std::size_t nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int count = CPU_COUNT(&set);
    if (count > 0) return static_cast<std::size_t>(count);
  }
  return 1;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string json_number(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

int usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--out-dir DIR] [--setup-only]\n",
               message);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name;
  perfbench::WorkloadOptions options;
  bool setup_only = false;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg == "--setup-only") {
      setup_only = true;
      continue;
    }
    if (value == nullptr) return usage(("missing value for " + arg).c_str());
    ++i;
    char* end = nullptr;
    if (arg == "--workload") {
      workload_name = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value, &end, 10);
      have_seed = end != value && *end == '\0';
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value, &end);
      have_seconds = end != value && *end == '\0' && options.seconds >= 0.0;
    } else if (arg == "--trace") {
      options.trace = std::string(value) == "1";
      have_trace = std::string(value) == "0" || options.trace;
    } else if (arg == "--out-dir") {
      options.out_dir = value;
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  const perfbench::Workload* workload = perfbench::find_workload(workload_name);
  if (workload == nullptr) return usage(("unknown workload '" + workload_name + "'").c_str());
  if (!have_seed || (!setup_only && (!have_seconds || !have_trace))) {
    return usage("--seed, --seconds and --trace are required");
  }
  options.threads = nproc();

  if (setup_only) {
    std::printf("{\"setup_s\": %s}\n", json_number(workload->setup(options)).c_str());
    return 0;
  }

  perfbench::WorkloadResult result = perfbench::run_workload(*workload, options);
  const std::vector<MetricDecl> emitted =
      options.trace ? perfbench::all_per_layer_metrics() : perfbench::end_to_end_metrics();

  if (options.trace && !options.out_dir.empty()) {
    const std::string path = options.out_dir + "/" + workload->name + ".spans.tsv";
    const bool written = perfbench::write_spans_tsv(path, result.spans);
    if (!written) std::fprintf(stderr, "perfbench: could not write %s\n", path.c_str());
    result.note("spans", std::to_string(result.spans.size()) + " in " + path);
  }

  std::string stamp = "{\"stamp\": {\"workload\": " + json_string(workload->name) +
                      ", \"seed\": " + std::to_string(options.seed) +
                      ", \"trace\": " + (options.trace ? "1" : "0") +
                      ", \"nproc\": " + std::to_string(options.threads) +
                      ", \"compiler\": " + json_string(PERFBENCH_COMPILER) +
                      ", \"build_type\": " + json_string(PERFBENCH_BUILD_TYPE) +
                      ", \"tracing_compiled\": " +
                      (distscroll::obs::Tracer::compiled_in() ? "true" : "false") +
                      ", \"failed_share\": " +
                      json_number(result.attempted > 0
                                      ? static_cast<double>(result.failed) /
                                            static_cast<double>(result.attempted)
                                      : 0.0);
  for (const auto& [key, value] : result.notes) {
    stamp += ", " + json_string(key) + ": " + json_string(value);
  }
  std::printf("%s}}\n", stamp.c_str());

  std::string line = std::string("{\"correct\": ") + (result.correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(result.attempted) +
                     ", \"failed\": " + std::to_string(result.failed) + ", \"metrics\": {";
  bool first = true;
  for (const MetricDecl& decl : emitted) {
    const auto it = result.metrics.find(decl.name);
    const double value =
        it != result.metrics.end() && std::isfinite(it->second.value) ? it->second.value : 0.0;
    line += std::string(first ? "" : ", ") + json_string(decl.name) +
            ": {\"value\": " + json_number(value) + ", \"unit\": " + json_string(decl.unit) + "}";
    first = false;
  }
  std::printf("%s}}\n", line.c_str());
  return result.correct ? 0 : 1;
}
