#include "span_trace.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <utility>

namespace perfbench {
namespace {

std::atomic<std::uint64_t> g_generation{0};

struct LocalCache {
  std::uint64_t generation = ~std::uint64_t{0};
  void* buffer = nullptr;
};
thread_local LocalCache t_cache;

}  // namespace

std::vector<std::int64_t> self_times_ns(const std::vector<FlatSpan>& spans) {
  std::vector<std::vector<std::size_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int64_t p = spans[i].parent;
    if (p >= 0 && static_cast<std::size_t>(p) < spans.size()) {
      children[static_cast<std::size_t>(p)].push_back(i);
    }
  }
  std::vector<std::int64_t> self(spans.size(), 0);
  std::vector<std::pair<std::int64_t, std::int64_t>> intervals;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int64_t start = spans[i].start_ns;
    const std::int64_t end = std::max(spans[i].end_ns, start);
    intervals.clear();
    for (const std::size_t c : children[i]) {
      const std::int64_t s = std::max(spans[c].start_ns, start);
      const std::int64_t e = std::min(spans[c].end_ns, end);
      if (e > s) intervals.emplace_back(s, e);
    }
    std::sort(intervals.begin(), intervals.end());
    std::int64_t covered = 0;
    std::int64_t run_start = 0, run_end = 0;
    bool open = false;
    for (const auto& [s, e] : intervals) {
      if (open && s <= run_end) {
        run_end = std::max(run_end, e);
        continue;
      }
      if (open) covered += run_end - run_start;
      run_start = s;
      run_end = e;
      open = true;
    }
    if (open) covered += run_end - run_start;
    self[i] = (end - start) - covered;
  }
  return self;
}

bool is_layer_span(std::string_view name) { return name.substr(0, 6) != "bench."; }

TraceSummary analyse(const std::vector<FlatSpan>& spans) {
  TraceSummary summary;
  const auto self = self_times_ns(spans);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const FlatSpan& span = spans[i];
    const double duration_s = static_cast<double>(span.end_ns - span.start_ns) * 1e-9;
    NameTotals& totals = summary.by_name[span.name];
    totals.self_s += static_cast<double>(self[i]) * 1e-9;
    totals.calls += span.calls;
    if (span.name == "bench.unit") {
      summary.unit_wall_s += duration_s;
      summary.units += 1;
    }
    if (!is_layer_span(span.name)) continue;
    bool top_level = true;
    for (std::int64_t p = span.parent; p >= 0; p = spans[static_cast<std::size_t>(p)].parent) {
      if (is_layer_span(spans[static_cast<std::size_t>(p)].name)) {
        top_level = false;
        break;
      }
    }
    if (top_level) summary.top_level_layer_s += duration_s;
  }
  return summary;
}

bool write_spans_tsv(const std::string& path, const std::vector<FlatSpan>& spans) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  std::fprintf(file, "run_id\tthread\tname\tstart_ns\tend_ns\tparent\tcalls\n");
  for (const FlatSpan& span : spans) {
    std::fprintf(file, "%u\t%u\t%s\t%lld\t%lld\t%lld\t%u\n", span.run_id, span.thread,
                 span.name.c_str(), static_cast<long long>(span.start_ns),
                 static_cast<long long>(span.end_ns), static_cast<long long>(span.parent),
                 span.calls);
  }
  return std::fclose(file) == 0;
}

Tracer::Tracer()
    : epoch_(std::chrono::steady_clock::now()), generation_(g_generation.fetch_add(1) + 1) {}

std::uint32_t Tracer::intern(std::string_view name) {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<std::uint32_t>(i);
  }
  names_.emplace_back(name);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

Tracer::ThreadBuffer& Tracer::local() {
  if (t_cache.generation != generation_) {
    auto buffer = std::make_unique<ThreadBuffer>();
    buffer->spans.reserve(1 << 12);
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      buffer->slot = static_cast<std::uint32_t>(buffers_.size());
      buffers_.push_back(std::move(buffer));
      t_cache.buffer = buffers_.back().get();
    }
    t_cache.generation = generation_;
  }
  return *static_cast<ThreadBuffer*>(t_cache.buffer);
}

SpanRef Tracer::open(std::uint32_t name, SpanRef parent) {
  ThreadBuffer& buffer = local();
  if (!parent.valid() && !buffer.open.empty()) parent = {buffer.slot, buffer.open.back()};
  const auto index = static_cast<std::uint32_t>(buffer.spans.size());
  Span span;
  span.name = name;
  span.run_id = run_id_;
  span.thread = buffer.slot;
  span.parent = parent;
  span.start_ns = now_ns();
  buffer.spans.push_back(span);
  buffer.open.push_back(index);
  return {buffer.slot, index};
}

void Tracer::close(SpanRef ref, std::uint32_t calls) {
  const std::int64_t end = now_ns();
  ThreadBuffer& buffer = local();
  Span& span = buffer.spans[ref.index];
  span.end_ns = end;
  span.calls = calls;
  // Scopes are RAII, so the span closed is the innermost one open.
  buffer.open.pop_back();
}

std::vector<FlatSpan> Tracer::flatten() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::size_t> offset(buffers_.size() + 1, 0);
  for (std::size_t b = 0; b < buffers_.size(); ++b) {
    offset[b + 1] = offset[b] + buffers_[b]->spans.size();
  }
  std::vector<FlatSpan> flat;
  flat.reserve(offset.back());
  for (const auto& buffer : buffers_) {
    for (const Span& span : buffer->spans) {
      FlatSpan out;
      out.name = names_[span.name];
      out.run_id = span.run_id;
      out.thread = span.thread;
      out.calls = span.calls;
      out.start_ns = span.start_ns;
      out.end_ns = span.end_ns;
      out.parent = span.parent.valid()
                       ? static_cast<std::int64_t>(offset[span.parent.thread] + span.parent.index)
                       : -1;
      flat.push_back(std::move(out));
    }
  }
  return flat;
}

}  // namespace perfbench
