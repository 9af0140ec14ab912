#include "tracer.hpp"

#include <algorithm>
#include <fstream>
#include <stdexcept>
#include <string>
#include <unordered_map>

#include "common/json.hpp"

namespace perfbench {

Tracer::Scope::Scope(Tracer& tracer, std::string name, int parent,
                     std::string request, int tid)
    : tracer_(tracer.enabled() ? &tracer : nullptr) {
  if (tracer_ == nullptr) return;
  span_.name = std::move(name);
  span_.request = std::move(request);
  span_.parent = parent;
  span_.tid = tid;
  {
    const std::lock_guard<std::mutex> lock(tracer_->mutex_);
    span_.id = tracer_->next_id_++;
  }
  span_.start_ns = tracer_->now_ns();
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  span_.end_ns = tracer_->now_ns();
  tracer_->record(std::move(span_));
}

double Tracer::span_cost_ns() {
  constexpr int kBatches = 7;
  constexpr int kSpans = 20000;
  std::vector<double> per_span;
  for (int batch = 0; batch < kBatches; ++batch) {
    Tracer tracer(true);
    const Clock::time_point start = Clock::now();
    for (int i = 0; i < kSpans; ++i) {
      const Scope span(tracer, "map", 0, "c0-" + std::to_string(i), 1);
    }
    per_span.push_back(
        std::chrono::duration<double, std::nano>(Clock::now() - start).count() /
        kSpans);
  }
  std::sort(per_span.begin(), per_span.end());
  return per_span[kBatches / 2];
}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

void Tracer::record(Span span) {
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(span));
}

std::size_t Tracer::span_count() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

std::map<std::string, Tracer::Layer> Tracer::layers() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::unordered_map<int, std::vector<const Span*>> children;
  for (const Span& span : spans_) {
    if (span.parent >= 0) children[span.parent].push_back(&span);
  }
  std::map<std::string, Layer> layers;
  for (const Span& span : spans_) {
    // Covered part of [start, end): the union of the children's intervals,
    // clipped to the parent (children may overlap when they ran on
    // different threads).
    std::int64_t covered = 0;
    if (const auto it = children.find(span.id); it != children.end()) {
      std::vector<std::pair<std::int64_t, std::int64_t>> intervals;
      for (const Span* child : it->second) {
        const std::int64_t begin = std::max(child->start_ns, span.start_ns);
        const std::int64_t end = std::min(child->end_ns, span.end_ns);
        if (end > begin) intervals.emplace_back(begin, end);
      }
      std::sort(intervals.begin(), intervals.end());
      std::int64_t reach = span.start_ns;
      for (const auto& [begin, end] : intervals) {
        const std::int64_t from = std::max(begin, reach);
        if (end > from) covered += end - from;
        reach = std::max(reach, end);
      }
    }
    Layer& layer = layers[span.name];
    layer.self_ns += static_cast<double>(span.end_ns - span.start_ns - covered);
    layer.calls += span.calls;
  }
  return layers;
}

void Tracer::write_chrome(
    const std::string& path,
    const std::vector<std::pair<std::string, std::string>>& metadata) const {
  qspr::JsonWriter json;
  json.begin_object();
  json.field("displayTimeUnit", "ms");
  json.key("metadata").begin_object();
  for (const auto& [key, value] : metadata) json.field(key, value);
  json.end_object();
  json.key("traceEvents").begin_array();
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const Span& span : spans_) {
      json.begin_object();
      json.field("name", span.name);
      json.field("cat", "perfbench");
      json.field("ph", "X");
      json.field("ts", static_cast<double>(span.start_ns) / 1e3);
      json.field("dur", static_cast<double>(span.end_ns - span.start_ns) / 1e3);
      json.field("pid", 1);
      json.field("tid", span.tid);
      json.key("args").begin_object();
      json.field("span", span.id);
      json.field("parent", span.parent);
      json.field("request", span.request);
      json.field("calls", span.calls);
      json.end_object();
      json.end_object();
    }
  }
  json.end_array();
  json.end_object();
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file: " + path);
  out << json.str() << "\n";
}

}  // namespace perfbench
