// In-memory span recorder for the benchmark's traced run.
//
// The traced run rebuilds each workload from the layers' public
// functions and wraps every call into a layer in a Scope. A span holds
// (name, start, end, parent, run id, thread, calls); spans stay in
// per-thread buffers until the run ends, then analyse() turns them into
// per-name self times and write_spans_tsv() dumps them.
//
// Naming: "<layer>.<function>" for calls into a layer (human., study.,
// sim., util., host., wireless., baselines.), "bench.<what>" for the
// benchmark's own glue (unit roots, chunk bodies, windows). Only layer
// spans count as attributed time.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct SpanRef {
  std::uint32_t thread = kNone;
  std::uint32_t index = 0;
  static constexpr std::uint32_t kNone = 0xFFFF'FFFFu;
  [[nodiscard]] bool valid() const { return thread != kNone; }
};

struct Span {
  std::uint32_t name = 0;
  std::uint32_t run_id = 0;
  std::uint32_t thread = 0;
  std::uint32_t calls = 1;  // layer calls this span covers (a batch may cover many)
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  SpanRef parent{};
};

/// A flattened span (parent as an index into the same vector, -1 for a
/// root) — the form analyse() and the tests work on.
struct FlatSpan {
  std::string name;
  std::uint32_t run_id = 0;
  std::uint32_t thread = 0;
  std::uint32_t calls = 1;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;
};

/// Per span: its duration minus the part of its interval that its
/// direct children cover (children may overlap each other when they ran
/// on different threads; the union is subtracted once).
[[nodiscard]] std::vector<std::int64_t> self_times_ns(const std::vector<FlatSpan>& spans);

/// True for spans that are calls into a layer (anything but "bench.*").
[[nodiscard]] bool is_layer_span(std::string_view name);

struct NameTotals {
  double self_s = 0.0;
  std::uint64_t calls = 0;
};

struct TraceSummary {
  std::map<std::string, NameTotals> by_name;
  /// Σ over every "bench.unit" root of its duration.
  double unit_wall_s = 0.0;
  /// Σ duration of top-level layer spans: layer spans with no layer
  /// ancestor (only bench.* spans above them).
  double top_level_layer_s = 0.0;
  std::uint64_t units = 0;
  /// 1 − top_level_layer_s / unit_wall_s.
  [[nodiscard]] double unattributed_share() const {
    return unit_wall_s > 0.0 ? 1.0 - top_level_layer_s / unit_wall_s : 0.0;
  }
};

[[nodiscard]] TraceSummary analyse(const std::vector<FlatSpan>& spans);

/// One tab-separated line per span (run_id thread name start_ns end_ns
/// parent calls) under a header line.
[[nodiscard]] bool write_spans_tsv(const std::string& path, const std::vector<FlatSpan>& spans);

/// Records spans from any number of threads. Each thread appends to its
/// own buffer (registered once under a mutex), so recording takes no
/// lock. Names are interned up front so a span stores a small id.
class Tracer {
 public:
  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  std::uint32_t intern(std::string_view name);

  [[nodiscard]] std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  /// Spans opened from here on carry this run id (the workload unit).
  void set_run(std::uint32_t run_id) { run_id_ = run_id; }

  /// Open a span on the calling thread. `parent` defaults to the span
  /// the thread has open; pass one explicitly for work handed to
  /// another thread (a pool worker's chunk body under the engine span).
  SpanRef open(std::uint32_t name, SpanRef parent = {});
  void close(SpanRef span, std::uint32_t calls);

  /// All spans so far, parents resolved to flat indices. Call only
  /// when no other thread is recording.
  [[nodiscard]] std::vector<FlatSpan> flatten() const;

 private:
  struct ThreadBuffer {
    std::uint32_t slot = 0;
    std::vector<Span> spans;
    std::vector<std::uint32_t> open;  // stack of open span indices
  };
  ThreadBuffer& local();

  std::chrono::steady_clock::time_point epoch_;
  std::uint64_t generation_;
  std::uint32_t run_id_ = 0;
  std::vector<std::string> names_;
  mutable std::mutex mutex_;  // guards buffers_ (registration only)
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
};

/// RAII span; a null tracer makes it a no-op (the untraced path).
class Scope {
 public:
  Scope(Tracer* tracer, std::uint32_t name, SpanRef parent = {})
      : tracer_(tracer), span_(tracer ? tracer->open(name, parent) : SpanRef{}) {}
  ~Scope() {
    if (tracer_ != nullptr) tracer_->close(span_, calls_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  /// Layer calls this span covers (default 1).
  void set_calls(std::uint32_t calls) { calls_ = calls; }
  [[nodiscard]] SpanRef ref() const { return span_; }

 private:
  Tracer* tracer_;
  SpanRef span_;
  std::uint32_t calls_ = 1;
};

}  // namespace perfbench
