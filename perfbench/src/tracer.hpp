// In-memory span recorder for the traced benchmark run.
//
// Spans are recorded only by the benchmark, around its own calls into the
// library's public entry points (and around replays of layers the engine
// calls internally). Each span carries a name, start/end on one steady
// clock, the id of the span that caused it, the request it belongs to, a
// display thread and a call count (a span around a loop of N identical
// calls reports calls = N, so per-call figures come from self time / N).
// Nothing is written until write_chrome(), which emits Chrome trace-event
// JSON that Perfetto and chrome://tracing open directly.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  struct Span {
    std::string name;
    std::string request;
    int id = -1;
    int parent = -1;
    int tid = 0;
    long long calls = 1;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };

  /// Self time (duration minus the part covered by child spans) summed per
  /// span name, with the summed call counts.
  struct Layer {
    double self_ns = 0.0;
    long long calls = 0;
  };

  /// Times one span from construction to destruction. A disabled tracer
  /// hands out inert scopes whose id() is -1.
  class Scope {
   public:
    Scope(Tracer& tracer, std::string name, int parent = -1,
          std::string request = "", int tid = 0);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    [[nodiscard]] int id() const { return span_.id; }
    void set_calls(long long calls) { span_.calls = calls; }

   private:
    Tracer* tracer_;
    Span span_;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  /// The recorder's own cost: median nanoseconds per span opened and
  /// closed on an enabled tracer, over a few batches of spans named and
  /// tagged like a mapping request's.
  [[nodiscard]] static double span_cost_ns();

  [[nodiscard]] bool enabled() const { return enabled_; }
  [[nodiscard]] std::size_t span_count() const;
  [[nodiscard]] std::map<std::string, Layer> layers() const;

  /// Writes every span as a complete ("X") trace event; `metadata` lands in
  /// the file's top-level "metadata" object. Throws on an unwritable path.
  void write_chrome(
      const std::string& path,
      const std::vector<std::pair<std::string, std::string>>& metadata) const;

 private:
  [[nodiscard]] std::int64_t now_ns() const;
  void record(Span span);

  bool enabled_;
  Clock::time_point origin_ = Clock::now();
  mutable std::mutex mutex_;
  int next_id_ = 0;          // guarded by mutex_
  std::vector<Span> spans_;  // guarded by mutex_
};

}  // namespace perfbench
