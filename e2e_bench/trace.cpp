#include "trace.hpp"

#include <chrono>
#include <unordered_map>
#include <utility>

namespace e2e {

namespace {

using deproto::api::Json;

// The innermost open span of this thread, the parent of the next one.
thread_local std::int64_t t_current_span = -1;

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

Tracer::Tracer(bool enabled) : enabled_(enabled), epoch_ns_(steady_ns()) {}

double Tracer::now() const {
  return static_cast<double>(steady_ns() - epoch_ns_) * 1e-9;
}

Tracer::Scope Tracer::scope(const char* name, std::int64_t job) {
  return Scope(enabled_ ? this : nullptr, name, job);
}

Tracer::Scope::Scope(Tracer* tracer, const char* name, std::int64_t job)
    : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  {
    std::lock_guard<std::mutex> lock(tracer_->mu_);
    span_.id = tracer_->next_id_++;
  }
  span_.name = name;
  span_.job = job;
  span_.parent = t_current_span;
  t_current_span = span_.id;
  span_.start = tracer_->now();
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  span_.end = tracer_->now();
  t_current_span = span_.parent;
  tracer_->record(std::move(span_));
}

void Tracer::record(Span span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
}

std::size_t Tracer::span_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::map<std::string, SpanTotals> Tracer::totals() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::unordered_map<std::int64_t, double> child_time;
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_time[s.parent] += s.end - s.start;
  }
  std::map<std::string, SpanTotals> out;
  for (const Span& s : spans_) {
    SpanTotals& t = out[s.name];
    const double duration = s.end - s.start;
    ++t.count;
    t.total += duration;
    const auto it = child_time.find(s.id);
    t.self += duration - (it == child_time.end() ? 0.0 : it->second);
  }
  return out;
}

Json Tracer::to_json() const {
  std::lock_guard<std::mutex> lock(mu_);
  Json spans = Json::array();
  for (const Span& s : spans_) {
    spans.push(Json::object()
                   .set("name", Json::string(s.name))
                   .set("start", Json::number(s.start))
                   .set("end", Json::number(s.end))
                   .set("id", Json::number(s.id))
                   .set("parent", Json::number(s.parent))
                   .set("job", Json::number(s.job)));
  }
  return Json::object().set("spans", std::move(spans));
}

}  // namespace e2e
