#pragma once

// Span recorder for the benchmark's traced run. Every call the benchmark
// makes into a library layer (Experiment::resolved, ExperimentRun::advance,
// ResultCache::load_entry, the ExactChain constructor, SuiteRunner::run_jobs,
// ...) is wrapped in a Scope, which records name, start, end, parent span
// and job id. Spans stay in memory and are written out once, at exit.
// A layer's self time is its span minus the spans nested directly in it.
//
// A disabled Tracer hands out inert scopes, so the untraced run pays one
// branch per call site and never reads the clock for a span.

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "api/json.hpp"

namespace e2e {

struct Span {
  std::string name;
  double start = 0.0;  // seconds since the tracer was created
  double end = 0.0;
  std::int64_t id = 0;
  std::int64_t parent = -1;  // -1: a root span
  std::int64_t job = -1;     // -1: not attributed to one job
};

/// Sum over spans of one name.
struct SpanTotals {
  std::size_t count = 0;
  double total = 0.0;  // seconds, wall duration
  double self = 0.0;   // seconds, minus directly nested spans
};

class Tracer {
 public:
  explicit Tracer(bool enabled);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// RAII span: opened by Tracer::scope, recorded when destroyed. Spans
  /// nest per thread; the innermost open scope of the calling thread is
  /// the parent.
  class Scope {
   public:
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope();

    /// Rename before the span closes, for calls whose outcome decides
    /// the name (a cache lookup that turned out to be a hit or a miss).
    void rename(const char* name) {
      if (tracer_ != nullptr) span_.name = name;
    }

   private:
    friend class Tracer;
    Scope(Tracer* tracer, const char* name, std::int64_t job);

    Tracer* tracer_;  // null when tracing is off
    Span span_;
  };

  [[nodiscard]] Scope scope(const char* name, std::int64_t job = -1);

  /// Per-name totals over every recorded span.
  [[nodiscard]] std::map<std::string, SpanTotals> totals() const;
  [[nodiscard]] std::size_t span_count() const;

  /// The trace file: {"spans": [{name, start, end, id, parent, job}...]}.
  [[nodiscard]] deproto::api::Json to_json() const;

 private:
  double now() const;
  void record(Span span);

  bool enabled_;
  std::int64_t epoch_ns_ = 0;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
  std::int64_t next_id_ = 0;  // guarded by mu_
};

}  // namespace e2e
