// deproto-e2e-bench: the end-to-end benchmark binary (run it through
// run.py, which builds it first; see README.md).
//
//   deproto-e2e-bench --workload <name> --seed <n> --seconds <s> --trace 0|1
//                     [--quick] [--results-dir D] [--work-dir D]
//                     [--exact-reference F] [--inject-wrong-majority]
//   deproto-e2e-bench --record-exact-reference F
//   deproto-e2e-bench --worker [--cache dir]
//
// A run has three phases. Setup generates batch 0's specs, expands the
// sweep, calls Experiment::artifacts() once per distinct machine and opens
// the cache; it is sampled before the timed phase and after every batch,
// and the median of the samples is setup_s. The timed phase (after an
// untimed warm-up on the thread-pool workloads) then runs seeded batches
// through the library until --seconds of batch wall time have passed,
// checking every job's output between batches.
// Last, the metrics print by name with their unit, a result file (run
// environment included) lands in --results-dir, and the final stdout line
// is the JSON summary {"correct", "attempted", "failed", "metrics"}.
//
// With --trace 0 the batches run exactly as a user runs them (SuiteRunner,
// deproto-lint's analyze_spec) and the end-to-end metrics are reported.
// With --trace 1 the benchmark calls each layer's public functions itself,
// in pipeline order, with a span around every call, and reports the
// per-layer metrics; the span list is written next to the result file.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/exact_chain.hpp"
#include "analysis/machine_checks.hpp"
#include "analysis/verifier.hpp"
#include "api/experiment.hpp"
#include "api/job_metrics.hpp"
#include "api/registry.hpp"
#include "api/result_cache.hpp"
#include "api/suite_runner.hpp"
#include "core/synthesis.hpp"
#include "dist/worker.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

namespace fs = std::filesystem;
using deproto::api::Json;
using deproto::api::ScenarioSpec;
using deproto::api::SweepJob;
using e2e::BenchJob;
using e2e::Engine;
using e2e::Tracer;
using e2e::WorkloadConfig;

// Periods per ExperimentRun::advance call in the traced pipeline.
constexpr std::size_t kAdvanceBatch = 50;
// The untimed warm-up runs each job over 1/kWarmUpShare of its periods.
constexpr std::size_t kWarmUpShare = 6;
// Exact absorption/hitting values must match the recorded ones this
// closely (relative to max(1, |value|)).
constexpr double kExactTolerance = 1e-9;
// Failure reasons kept for the result file.
constexpr std::size_t kKeptFailures = 20;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool quick = false;
  bool inject_wrong_majority = false;
  std::string results_dir = ".bench_results";
  std::string work_dir = ".bench_work";
  std::string exact_reference;
};

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// User + system CPU of this process and every reaped child (dispatch
/// workers are reaped when each SuiteRunner batch ends).
double cpu_seconds() {
  double total = 0.0;
  for (const int who : {RUSAGE_SELF, RUSAGE_CHILDREN}) {
    struct rusage u {};
    ::getrusage(who, &u);
    total += static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) +
             1e-6 * static_cast<double>(u.ru_utime.tv_usec +
                                        u.ru_stime.tv_usec);
  }
  return total;
}

/// Peak RSS of this process or of its largest reaped child, in MiB.
double peak_rss_mb() {
  struct rusage self {};
  struct rusage children {};
  ::getrusage(RUSAGE_SELF, &self);
  ::getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) /
         1024.0;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// body(i) for i in [0, n) on `threads` threads, the calling one
/// included; body must not throw.
void parallel_for(std::size_t n, std::size_t threads,
                  const std::function<void(std::size_t)>& body) {
  std::atomic<std::size_t> next{0};
  auto worker = [&] {
    for (std::size_t i; (i = next.fetch_add(1)) < n;) body(i);
  };
  std::vector<std::thread> pool;
  for (std::size_t t = 1; t < threads; ++t) pool.emplace_back(worker);
  worker();
  for (std::thread& t : pool) t.join();
}

/// The latency at the highest percentile with at least ten samples beyond
/// it: sorted[n - 11], which is percentile 100 * (n - 10) / n. Below 21
/// samples that would fall under the median; the median is used instead
/// and `beyond` says how many samples lie past it.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;
  std::size_t beyond = 0;
  std::size_t batches = 0;  // > 0: median of this many per-batch tails
};

Tail tail_of(std::vector<double> v) {
  Tail t;
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  const std::size_t idx = std::max(n >= 11 ? n - 11 : 0, (n - 1) / 2);
  t.value = v[idx];
  t.beyond = n - 1 - idx;
  t.percentile = 100.0 * static_cast<double>(idx + 1) / static_cast<double>(n);
  return t;
}

// Recorded set-up samples before the timed phase, and after each batch.
constexpr std::size_t kSetupSamples = 4;
constexpr std::size_t kSetupSamplesPerBatch = 2;

// Batches at least this large get their own tail (see job_tail).
constexpr std::size_t kBatchTailJobs = 100;

// ---------------------------------------------------------------------------
// Exact reference values: per lattice size, per registry scenario, the
// exact.absorbing-class and exact.hitting-time values in report order.

struct ExactValues {
  std::vector<double> absorption;
  std::vector<double> hitting;
};

using ExactReference = std::map<std::string, ExactValues>;

ExactValues values_of(const deproto::analysis::Report& report) {
  ExactValues v;
  for (const auto& f : report.findings) {
    if (f.rule == "exact.absorbing-class") v.absorption.push_back(f.value);
    if (f.rule == "exact.hitting-time") v.hitting.push_back(f.value);
  }
  return v;
}

Json values_json(const std::vector<double>& values) {
  Json a = Json::array();
  for (const double v : values) a.push(Json::number(v));
  return a;
}

std::vector<double> values_from(const Json& a) {
  std::vector<double> out;
  for (const Json& v : a.elements()) out.push_back(v.as_number());
  return out;
}

ExactReference load_exact_reference(const std::string& path, std::size_t n) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read exact reference " + path);
  std::stringstream text;
  text << in.rdbuf();
  const Json doc = Json::parse(text.str());
  const std::string key = std::to_string(n);
  if (!doc.at("lattices").contains(key)) {
    throw std::runtime_error("exact reference has no lattice n = " + key);
  }
  ExactReference ref;
  for (const auto& [name, entry] : doc.at("lattices").at(key).items()) {
    ref[name] = {values_from(entry.at("absorption")),
                 values_from(entry.at("hitting"))};
  }
  return ref;
}

std::string compare_exact(const ExactValues& got, const ExactValues* want) {
  if (want == nullptr) return "no recorded exact values for this scenario";
  auto same = [](const std::vector<double>& a, const std::vector<double>& b) {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (std::abs(a[i] - b[i]) >
          kExactTolerance * std::max(1.0, std::abs(b[i]))) {
        return false;
      }
    }
    return true;
  };
  if (!same(got.absorption, want->absorption)) {
    return "exact absorption probabilities differ from the recorded values";
  }
  if (!same(got.hitting, want->hitting)) {
    return "exact hitting time differs from the recorded value";
  }
  return "";
}

int record_exact_reference(const std::string& path) {
  Json lattices = Json::object();
  for (const bool quick : {true, false}) {
    const std::size_t n =
        e2e::workload_config("exact-verify", quick, 1).exact_n;
    deproto::analysis::VerifyOptions options;
    options.exact = true;
    options.exact_chain.n = n;
    Json scenarios = Json::object();
    for (const std::string& name : deproto::api::registry_names()) {
      const ExactValues v = values_of(deproto::analysis::analyze_spec(
          deproto::api::registry_get(name), options));
      scenarios.set(name, Json::object()
                              .set("absorption", values_json(v.absorption))
                              .set("hitting", values_json(v.hitting)));
    }
    lattices.set(std::to_string(n), std::move(scenarios));
  }
  std::ofstream out(path);
  out << Json::object().set("lattices", std::move(lattices)).dump(2) << '\n';
  return out.good() ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Accounting shared by every engine.

/// What the timed phase measured, end to end.
struct Totals {
  std::vector<double> latencies;  // seconds, one per attempted job
  // The latencies of jobs that ran through the traced layer calls.
  std::vector<double> traced_latencies;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::size_t batches = 0;
  double wall = 0.0;  // sum of timed batch walls
  double cpu = 0.0;   // CPU over the timed batches, children included
  // Per batch: jobs/s and CPU seconds per job. Their medians are the
  // reported rates, so one batch slowed by a neighbour on the host moves
  // them less than a whole-run total would.
  std::vector<double> batch_rates;
  std::vector<double> batch_cpu_per_job;
  std::vector<std::size_t> batch_sizes;
  std::vector<std::string> failures;

  void fail(const SweepJob& job, const std::string& why) {
    ++failed;
    if (failures.size() < kKeptFailures) {
      failures.push_back(job.spec.name + ": " + why);
    }
  }
};

/// job_tail_ms over the whole run -- unless every batch holds at least
/// kBatchTailJobs jobs. Then each batch has a tail of its own (p99 and up)
/// and the median over batches is reported: over tens of thousands of
/// jobs, the pooled tail is the tenth-slowest job of the run, set by
/// whichever disk or scheduler stalls happened to hit it.
Tail job_tail(const Totals& t) {
  const bool per_batch =
      !t.batch_sizes.empty() &&
      *std::min_element(t.batch_sizes.begin(), t.batch_sizes.end()) >=
          kBatchTailJobs;
  if (!per_batch) return tail_of(t.latencies);
  std::vector<double> values;
  Tail out;
  auto first = t.latencies.begin();
  for (const std::size_t n : t.batch_sizes) {
    out = tail_of(std::vector<double>(first, first + static_cast<long>(n)));
    values.push_back(out.value);
    first += static_cast<long>(n);
  }
  out.value = median(values);
  out.batches = values.size();
  return out;
}

/// Counters the traced run reads the per-layer metrics from, beside the
/// span totals. "First batch" counts are exact per seed.
struct LayerCounters {
  std::mutex mu;
  double node_periods[3] = {0.0, 0.0, 0.0};  // sync, event, count
  bool first_batch = true;
  double first_messages = 0.0;
  double first_event_node_periods = 0.0;
  double first_dump_bytes = 0.0;
  std::size_t first_jobs = 0;
  std::size_t cache_lookups = 0;
  std::size_t cache_hits = 0;
  double suite_job_seconds = 0.0;
  double suite_capacity = 0.0;  // threads x wall
  double dist_capacity = 0.0;   // workers x wall
  double dist_job_seconds = 0.0;
  double dist_busy = 0.0;
  std::size_t dist_jobs = 0;
  std::size_t dist_frames = 0;
  std::size_t dist_retries = 0;
  std::size_t dist_restarts = 0;
  double exact_states = 0.0;
  std::size_t exact_first_nnz = 0;
};

int backend_slot(deproto::api::Backend b) {
  switch (b) {
    case deproto::api::Backend::Sync:
      return 0;
    case deproto::api::Backend::Event:
      return 1;
    default:
      return 2;
  }
}

const char* const kAdvanceSpan[] = {"sim.sync.advance", "sim.event.advance",
                                    "sim.count.advance"};

class Bench {
 public:
  Bench(Args args, WorkloadConfig config)
      : args_(std::move(args)),
        config_(std::move(config)),
        tracer_(args_.trace) {}

  int run();

 private:
  // One set-up: batch 0, each distinct spec's artifacts, the cache. Returns
  // batch 0; `record` adds its wall time to the set-up samples.
  std::vector<BenchJob> setup_once(bool record);
  // One unrecorded set-up, then `samples` recorded ones.
  std::vector<BenchJob> measure_setup(std::size_t samples);
  void measure_repeats(const std::vector<BenchJob>& jobs);
  // Untimed: `jobs` over a share of their periods, through the thread pool.
  void warm_up(const std::vector<BenchJob>& jobs);
  // Timed batches.
  void run_batch(std::vector<BenchJob> jobs);
  // One batch through SuiteRunner as a user runs it: the thread pool, or
  // dispatch workers over the cache with the JSONL sink. One span.
  void suite_batch(const std::vector<BenchJob>& jobs);
  std::vector<std::string> check_dispatch(
      const std::vector<BenchJob>& jobs,
      const deproto::api::SweepResult& result, const std::string& jsonl);
  void exact_untraced(const std::vector<BenchJob>& jobs);
  void manual_traced(const std::vector<BenchJob>& jobs);
  void exact_traced(const std::vector<BenchJob>& jobs);
  // One job through the layers' public functions, spans around each call.
  std::string traced_job(const BenchJob& job, std::size_t id,
                         double* latency);
  void stage_prefill(const std::vector<BenchJob>& jobs);
  std::string check_cache_hit(const BenchJob& job, const std::string& line);
  deproto::api::SuiteOptions dispatch_options() const;
  std::vector<SweepJob> sweep_jobs(const std::vector<BenchJob>& jobs) const;
  bool prefilled(std::size_t i) const;
  void time_batch(std::size_t jobs, const std::function<void()>& body);

  Json end_to_end_metrics() const;
  Json per_layer_metrics() const;
  Json environment() const;
  int report();

  Args args_;
  WorkloadConfig config_;
  Tracer tracer_;
  Totals totals_;
  LayerCounters layers_;
  std::vector<double> setup_samples_;
  fs::path cache_dir_;
  std::unique_ptr<deproto::api::ResultCache> cache_;
  ExactReference exact_ref_;
  double repeated_machine_share_ = 0.0;
  std::size_t hit_checks_ = 0;
};

bool Bench::prefilled(std::size_t i) const {
  // Whole jobs out of every five, so the share is exact in each batch and
  // cache reads and writes interleave through it.
  return static_cast<double>(i % 5) < config_.prefill * 5.0 - 0.5;
}

std::vector<SweepJob> Bench::sweep_jobs(
    const std::vector<BenchJob>& jobs) const {
  std::vector<SweepJob> out;
  out.reserve(jobs.size());
  for (const BenchJob& j : jobs) out.push_back(j.job);
  return out;
}

std::vector<BenchJob> Bench::setup_once(bool record) {
  if (config_.engine == Engine::Dispatch) fs::remove_all(cache_dir_);
  const double t0 = now_s();
  std::vector<BenchJob> jobs = e2e::make_batch(config_, args_.seed, 0);
  // Experiment::artifacts() (parse, classify, synthesize, verify) once
  // per distinct spec of the first batch.
  std::set<std::string> seen;
  for (const BenchJob& j : jobs) {
    if (!seen.insert(j.job.spec.to_json().dump()).second) continue;
    deproto::api::Experiment experiment(j.job.spec);
    (void)experiment.artifacts();
  }
  if (config_.engine == Engine::Dispatch) {
    cache_ = std::make_unique<deproto::api::ResultCache>(cache_dir_);
  }
  if (record) setup_samples_.push_back(now_s() - t0);
  return jobs;
}

void Bench::warm_up(const std::vector<BenchJob>& jobs) {
  // Without it, batch 0's first jobs ran up to 60% slower than the same
  // jobs later in the run: a tenth of a second of work beforehand did not
  // close the gap, a second did. Batch 0's specs over a sixth of their
  // periods, on the timed batches' threads, take about that.
  std::vector<SweepJob> warm = sweep_jobs(jobs);
  for (SweepJob& job : warm) {
    job.spec.periods =
        std::max<std::size_t>(1, job.spec.periods / kWarmUpShare);
  }
  deproto::api::SuiteOptions options;
  options.threads = config_.workers;
  options.store_results = false;
  (void)deproto::api::SuiteRunner(options).run_jobs(std::move(warm),
                                                    "warm-up");
}

std::vector<BenchJob> Bench::measure_setup(std::size_t samples) {
  // The first set-up at process start or right after a batch runs cold
  // (freed memory goes back to the kernel and page-faults in again) and
  // costs up to twice a warm one. Recording only warm set-ups keeps every
  // sample in one regime, so the median does not flip between the two.
  std::vector<BenchJob> jobs = setup_once(false);
  for (std::size_t r = 0; r < samples; ++r) jobs = setup_once(true);
  return jobs;
}

void Bench::measure_repeats(const std::vector<BenchJob>& jobs) {
  // The share of jobs whose machine repeats an earlier job's -- what a
  // kernel cache could skip.
  std::set<std::string> machines;
  std::size_t repeated = 0;
  for (const BenchJob& j : jobs) {
    const ScenarioSpec& spec = j.job.spec;
    const std::string machine =
        deproto::core::synthesize(spec.resolve_source(), spec.synthesis)
            .machine.to_string();
    if (!machines.insert(machine).second) ++repeated;
  }
  repeated_machine_share_ = static_cast<double>(repeated) /
                            static_cast<double>(jobs.size());
}

void Bench::time_batch(std::size_t jobs, const std::function<void()>& body) {
  const double cpu0 = cpu_seconds();
  const double t0 = now_s();
  body();
  const double wall = now_s() - t0;
  const double cpu = cpu_seconds() - cpu0;
  totals_.wall += wall;
  totals_.cpu += cpu;
  const auto n = static_cast<double>(std::max<std::size_t>(1, jobs));
  totals_.batch_rates.push_back(wall > 0.0 ? n / wall : 0.0);
  totals_.batch_cpu_per_job.push_back(cpu / n);
}

// --- untraced engines: as a user runs them ---------------------------------

deproto::api::SuiteOptions Bench::dispatch_options() const {
  deproto::api::SuiteOptions options;
  options.dispatch.workers = config_.workers;
  // Heartbeat frames arrive on a timer; without them the frame count per
  // job is exact.
  options.dispatch.heartbeat_ms = 0;
  options.dispatch.extra_worker_args = {"--cache", cache_dir_.string()};
  options.store_results = false;
  return options;
}

void Bench::stage_prefill(const std::vector<BenchJob>& jobs) {
  std::vector<SweepJob> fill;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (!prefilled(i)) continue;
    fill.push_back(jobs[i].job);
    fill.back().index = fill.size() - 1;
    fill.back().point = fill.size() - 1;
  }
  if (fill.empty()) return;
  deproto::api::SuiteOptions options;
  options.threads = std::max(1u, std::thread::hardware_concurrency());
  options.cache = cache_.get();
  options.store_results = false;
  (void)deproto::api::SuiteRunner(options).run_jobs(std::move(fill),
                                                    "prefill");
}

std::string Bench::check_cache_hit(const BenchJob& job,
                                   const std::string& line_result) {
  // A replayed entry must be byte-identical to a fresh in-process run.
  ++hit_checks_;
  const std::optional<deproto::api::CachedEntry> entry =
      cache_->load_entry(job.job.spec);
  if (!entry) return "sampled cache hit has no entry";
  deproto::api::Experiment experiment(job.job.spec);
  const std::string fresh = experiment.run().to_json(false).dump();
  if (entry->result_dump != fresh) {
    return "cached entry differs from a fresh run";
  }
  if (line_result != fresh) return "replayed result differs from a fresh run";
  return "";
}

std::vector<std::string> Bench::check_dispatch(
    const std::vector<BenchJob>& jobs,
    const deproto::api::SweepResult& result, const std::string& jsonl) {
  std::vector<std::string> lines;
  {
    std::istringstream in(jsonl);
    for (std::string line; std::getline(in, line);) lines.push_back(line);
  }
  // Every result line is parsed and checked, in parallel (not timed); one
  // sampled cache hit per batch also gets the byte-identity check.
  const std::size_t sample = 5 * (totals_.batches % (jobs.size() / 5 + 1));
  std::vector<std::string> why(jobs.size());
  std::string sample_dump;
  parallel_for(jobs.size(), std::max(1u, std::thread::hardware_concurrency()),
               [&](std::size_t i) {
    if (i >= lines.size()) {
      why[i] = "missing JSONL line";
    } else if (!result.jobs[i].ok) {
      why[i] = result.jobs[i].error;
    } else {
      try {
        const Json doc = Json::parse(lines[i]);
        why[i] = e2e::check_result(
            deproto::api::ExperimentResult::from_json(doc.at("result")),
            jobs[i].expect);
        if (i == sample) sample_dump = doc.at("result").dump();
      } catch (const std::exception& e) {
        why[i] = std::string("unreadable result line: ") + e.what();
      }
    }
  });
  if (sample < jobs.size() && prefilled(sample) && why[sample].empty()) {
    why[sample] = check_cache_hit(jobs[sample], sample_dump);
  }
  return why;
}

void Bench::suite_batch(const std::vector<BenchJob>& jobs) {
  const bool dispatch = config_.engine == Engine::Dispatch;
  if (dispatch) stage_prefill(jobs);
  deproto::api::SuiteOptions options;
  std::ostringstream jsonl;
  if (dispatch) {
    options = dispatch_options();
    options.jsonl = &jsonl;
  } else {
    options.threads = config_.workers;
  }
  deproto::api::SweepResult result;
  time_batch(jobs.size(), [&] {
    Tracer::Scope s = tracer_.scope("api.suite.run");
    result = deproto::api::SuiteRunner(options).run_jobs(sweep_jobs(jobs),
                                                         config_.name);
  });
  std::vector<std::string> why(jobs.size());
  if (dispatch) {
    why = check_dispatch(jobs, result, jsonl.str());
  } else {
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      const deproto::api::JobOutcome& o = result.jobs[i];
      why[i] = o.ok ? e2e::check_result(o.result, jobs[i].expect) : o.error;
    }
  }
  double job_seconds = 0.0;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    totals_.latencies.push_back(result.jobs[i].elapsed_seconds);
    job_seconds += result.jobs[i].elapsed_seconds;
    if (!why[i].empty()) totals_.fail(jobs[i].job, why[i]);
  }

  const double workers = static_cast<double>(
      dispatch ? result.dispatch.workers : result.threads);
  layers_.suite_job_seconds += job_seconds;
  layers_.suite_capacity += workers * result.elapsed_seconds;
  if (dispatch) {
    layers_.dist_capacity += workers * result.elapsed_seconds;
    layers_.dist_job_seconds += job_seconds;
    for (const double b : result.dispatch.worker_busy_seconds) {
      layers_.dist_busy += b;
    }
    layers_.dist_jobs += jobs.size();
    layers_.dist_frames += result.dispatch.frames_received;
    layers_.dist_retries += result.dispatch.jobs_retried;
    layers_.dist_restarts += result.dispatch.worker_restarts;
    layers_.cache_lookups += result.cache.hits + result.cache.misses;
    layers_.cache_hits += result.cache.hits;
  }
}

void Bench::exact_untraced(const std::vector<BenchJob>& jobs) {
  deproto::analysis::VerifyOptions options;
  options.exact = true;
  options.exact_chain.n = config_.exact_n;
  std::vector<deproto::analysis::Report> reports(jobs.size());
  time_batch(jobs.size(), [&] {
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      const double t0 = now_s();
      reports[i] = deproto::analysis::analyze_spec(jobs[i].job.spec, options);
      totals_.latencies.push_back(now_s() - t0);
    }
  });
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const auto it = exact_ref_.find(jobs[i].job.spec.name);
    std::string why = reports[i].errors() > 0
                          ? "verifier reported an error finding"
                          : compare_exact(values_of(reports[i]),
                                          it == exact_ref_.end() ? nullptr
                                                                 : &it->second);
    if (!why.empty()) totals_.fail(jobs[i].job, why);
  }
}

// --- traced engines --------------------------------------------------------

std::string Bench::traced_job(const BenchJob& bj, std::size_t id,
                              double* latency) {
  const ScenarioSpec& spec = bj.job.spec;
  const auto jid = static_cast<std::int64_t>(id);
  std::optional<deproto::api::ExperimentResult> result;
  std::optional<deproto::api::CachedEntry> entry;
  std::string dump;
  const double t0 = now_s();
  {
    Tracer::Scope job_span = tracer_.scope("job", jid);
    deproto::api::ResultCache* cache = cache_.get();
    if (cache != nullptr) {
      {
        Tracer::Scope s = tracer_.scope("api.cache.key", jid);
        (void)cache->key_for(spec);
      }
      Tracer::Scope s = tracer_.scope("api.cache.lookup", jid);
      entry = cache->load_entry(spec);
      s.rename(entry ? "api.cache.hit" : "api.cache.miss");
    }
    if (!entry) {
      deproto::api::Experiment experiment(spec);
      {
        Tracer::Scope s = tracer_.scope("ode.resolve", jid);
        (void)experiment.resolved();
      }
      {
        Tracer::Scope s = tracer_.scope("core.synthesize", jid);
        (void)experiment.artifacts();
      }
      std::optional<deproto::api::ExperimentRun> run;
      {
        Tracer::Scope s = tracer_.scope("sim.launch", jid);
        run.emplace(experiment.launch());
      }
      const int slot = backend_slot(
          deproto::api::resolve_backend(spec.backend, spec.n));
      for (std::size_t done = 0; done < spec.periods;) {
        const std::size_t k = std::min(kAdvanceBatch, spec.periods - done);
        Tracer::Scope s = tracer_.scope(kAdvanceSpan[slot], jid);
        run->advance(k);
        done += k;
      }
      {
        Tracer::Scope s = tracer_.scope("api.finish", jid);
        result.emplace(run->finish());
      }
      {
        Tracer::Scope s = tracer_.scope("api.json_dump", jid);
        dump = result->to_json(false).dump();
      }
      if (cache != nullptr) {
        const Json metrics = deproto::api::detail::metrics_to_json(
            deproto::api::detail::result_metrics(*result));
        Tracer::Scope s = tracer_.scope("api.cache.store", jid);
        cache->store_dump(spec, dump, metrics);
      }
      std::lock_guard<std::mutex> lock(layers_.mu);
      layers_.node_periods[slot] +=
          static_cast<double>(spec.n) * static_cast<double>(spec.periods);
      if (layers_.first_batch) {
        ++layers_.first_jobs;
        layers_.first_dump_bytes += static_cast<double>(dump.size());
        if (slot == 1) {
          layers_.first_messages +=
              static_cast<double>(result->messages_sent);
          layers_.first_event_node_periods +=
              static_cast<double>(spec.n) * static_cast<double>(spec.periods);
        }
      }
    }
  }
  *latency = now_s() - t0;
  if (entry) {
    std::lock_guard<std::mutex> lock(layers_.mu);
    ++layers_.cache_lookups;
    ++layers_.cache_hits;
    return e2e::check_result(
        deproto::api::ExperimentResult::from_json(
            Json::parse(entry->result_dump)),
        bj.expect);
  }
  if (cache_ != nullptr) {
    std::lock_guard<std::mutex> lock(layers_.mu);
    ++layers_.cache_lookups;
  }
  return e2e::check_result(*result, bj.expect);
}

void Bench::manual_traced(const std::vector<BenchJob>& jobs) {
  if (config_.engine == Engine::Dispatch) stage_prefill(jobs);
  std::vector<double> latency(jobs.size(), 0.0);
  std::vector<std::string> why(jobs.size());
  const std::size_t base = totals_.attempted;
  time_batch(jobs.size(), [&] {
    parallel_for(jobs.size(), config_.workers, [&](std::size_t i) {
      try {
        why[i] = traced_job(jobs[i], base + i, &latency[i]);
      } catch (const std::exception& e) {
        why[i] = e.what();
      }
    });
  });
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    totals_.latencies.push_back(latency[i]);
    totals_.traced_latencies.push_back(latency[i]);
    if (!why[i].empty()) totals_.fail(jobs[i].job, why[i]);
  }
  layers_.first_batch = false;
}

void Bench::exact_traced(const std::vector<BenchJob>& jobs) {
  namespace an = deproto::analysis;
  std::vector<std::string> why(jobs.size());
  std::size_t nnz = 0;
  time_batch(jobs.size(), [&] {
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      const ScenarioSpec& spec = jobs[i].job.spec;
      const auto jid = static_cast<std::int64_t>(totals_.attempted + i);
      const double t0 = now_s();
      try {
        Tracer::Scope job_span = tracer_.scope("job", jid);
        std::size_t errors = 0;
        for (const an::Finding& f : an::lint_spec(spec)) {
          errors += f.severity == an::Severity::Error ? 1 : 0;
        }
        std::optional<deproto::ode::EquationSystem> source;
        {
          Tracer::Scope s = tracer_.scope("ode.resolve", jid);
          source.emplace(spec.resolve_source());
        }
        std::optional<deproto::core::SynthesisResult> synthesis;
        {
          Tracer::Scope s = tracer_.scope("core.synthesize", jid);
          synthesis.emplace(deproto::core::synthesize(*source, spec.synthesis));
        }
        {
          an::MachineCheckOptions options;
          options.failure_rate = spec.synthesis.failure_rate;
          for (std::size_t st = 0; st < spec.initial_counts.size(); ++st) {
            if (spec.initial_counts[st] > 0) options.seeded_states.push_back(st);
          }
          Tracer::Scope s = tracer_.scope("analysis.static", jid);
          for (const an::Finding& f : an::analyze_machine(
                   synthesis->machine, synthesis->source, options)) {
            errors += f.severity == an::Severity::Error ? 1 : 0;
          }
        }
        an::ExactChainOptions chain_options;
        chain_options.n = config_.exact_n;
        chain_options.message_loss = spec.runtime.message_loss;
        chain_options.tokens = spec.runtime.tokens;
        std::optional<an::ExactChain> chain;
        {
          Tracer::Scope s = tracer_.scope("analysis.exact.build", jid);
          chain.emplace(synthesis->machine, chain_options);
        }
        const std::size_t start = chain->seeded_index(
            spec.scaled_to(config_.exact_n).initial_counts);
        ExactValues got;
        {
          Tracer::Scope s = tracer_.scope("analysis.exact.absorption", jid);
          const std::vector<double> absorb =
              chain->absorption_probabilities(start);
          for (const std::size_t k : chain->recurrent_classes()) {
            got.absorption.push_back(absorb[k]);
          }
        }
        if (!chain->classes()[chain->class_of(start)].recurrent) {
          Tracer::Scope s = tracer_.scope("analysis.exact.hitting", jid);
          got.hitting.push_back(chain->expected_absorption_time(start));
        }
        if (chain->recurrent_classes().size() == 1) {
          Tracer::Scope s = tracer_.scope("analysis.exact.stationary", jid);
          (void)chain->stationary_distribution();
        }
        std::size_t rows = 0;
        for (std::size_t r = 0; r < chain->num_chain_states(); ++r) {
          rows += chain->row(r).size();
        }
        nnz += rows;
        layers_.exact_states += static_cast<double>(chain->num_chain_states());
        const auto it = exact_ref_.find(spec.name);
        why[i] = errors > 0 ? "verifier reported an error finding"
                            : compare_exact(got, it == exact_ref_.end()
                                                     ? nullptr
                                                     : &it->second);
      } catch (const std::exception& e) {
        why[i] = e.what();
      }
      totals_.latencies.push_back(now_s() - t0);
      totals_.traced_latencies.push_back(totals_.latencies.back());
    }
  });
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (!why[i].empty()) totals_.fail(jobs[i].job, why[i]);
  }
  if (layers_.first_batch) layers_.exact_first_nnz = nnz;
  layers_.first_batch = false;
}

void Bench::run_batch(std::vector<BenchJob> jobs) {
  const std::size_t n = jobs.size();
  if (config_.engine == Engine::Exact) {
    args_.trace ? exact_traced(jobs) : exact_untraced(jobs);
  } else if (args_.trace && totals_.batches % 2 == 0) {
    // Traced runs alternate: even batches through the layers' own calls,
    // odd batches through SuiteRunner for the suite/dispatcher counters.
    manual_traced(jobs);
  } else {
    suite_batch(jobs);
  }
  totals_.attempted += n;
  totals_.batch_sizes.push_back(n);
  ++totals_.batches;
  if (cache_ != nullptr) {
    // Every batch's specs are new, so no later batch can hit this one's
    // entries. Dropping them (untimed) keeps the cache directory at one
    // batch, and most entries are gone before the kernel writes them to
    // disk: disk writeback from earlier batches would otherwise land in
    // the timed phase of later ones.
    fs::remove_all(cache_dir_);
    fs::create_directories(cache_dir_);
    ::sync();
  }
}

int Bench::run() {
  if (config_.engine == Engine::Exact) {
    exact_ref_ = load_exact_reference(args_.exact_reference, config_.exact_n);
  }
  cache_dir_ = fs::path(args_.work_dir) /
               (config_.name + "-cache-" + std::to_string(::getpid()));
  fs::remove_all(cache_dir_);

  // Set-up is a millisecond or less, and its cost follows the host's state
  // more than the cost of the longer jobs does. It is therefore sampled
  // before the timed phase and again after every batch, untimed for the
  // batches, and setup_s is the median over the whole run.
  std::vector<BenchJob> batch0 = measure_setup(kSetupSamples);
  if (config_.engine == Engine::Exact) measure_repeats(batch0);
  if (config_.engine == Engine::Threads) warm_up(batch0);

  // Run the whole number of batches whose total wall comes closest to
  // --seconds: stop once one more batch would overshoot by more than it
  // falls short. Runs on one host then agree on their batch count, which
  // keeps the tail percentile on the same rank.
  for (std::size_t b = 0; b < config_.max_batches; ++b) {
    if (b > 0 && totals_.wall + 0.5 * totals_.wall / static_cast<double>(b) >=
                     args_.seconds) {
      break;
    }
    run_batch(b == 0 ? std::move(batch0)
                     : e2e::make_batch(config_, args_.seed, b));
    (void)measure_setup(kSetupSamplesPerBatch);
  }

  const int status = report();
  cache_.reset();
  std::error_code ec;
  fs::remove_all(cache_dir_, ec);
  return status;
}

// --- reporting -------------------------------------------------------------

Json metric(double value, const char* unit) {
  return Json::object()
      .set("value", Json::number(value))
      .set("unit", Json::string(unit));
}

double jobs_per_s(const Totals& t) { return median(t.batch_rates); }

Json Bench::end_to_end_metrics() const {
  return Json::object()
      .set("setup_s", metric(median(setup_samples_), "s"))
      .set("jobs_per_s", metric(jobs_per_s(totals_), "1/s"))
      .set("job_p50_ms", metric(1e3 * median(totals_.latencies), "ms"))
      .set("job_tail_ms", metric(1e3 * job_tail(totals_).value, "ms"))
      .set("cpu_s_per_job", metric(median(totals_.batch_cpu_per_job), "s"));
}

Json Bench::per_layer_metrics() const {
  const std::map<std::string, e2e::SpanTotals> spans = tracer_.totals();
  // Mean self time of one span name, scaled; 0 when the workload never
  // makes that call.
  auto mean = [&spans](const char* name, double scale) {
    const auto it = spans.find(name);
    return it == spans.end() || it->second.count == 0
               ? 0.0
               : scale * it->second.self / static_cast<double>(it->second.count);
  };
  auto self_total = [&spans](const char* name) {
    const auto it = spans.find(name);
    return it == spans.end() ? 0.0 : it->second.self;
  };
  auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  const LayerCounters& l = layers_;
  const double first_jobs = static_cast<double>(l.first_jobs);
  return Json::object()
      .set("ode.resolve_ms", metric(mean("ode.resolve", 1e3), "ms"))
      .set("core.synthesize_ms", metric(mean("core.synthesize", 1e3), "ms"))
      .set("sim.launch_ms", metric(mean("sim.launch", 1e3), "ms"))
      .set("sim.sync.ns_per_node_period",
           metric(1e9 * ratio(self_total("sim.sync.advance"),
                              l.node_periods[0]),
                  "ns"))
      .set("sim.event.ns_per_node_period",
           metric(1e9 * ratio(self_total("sim.event.advance"),
                              l.node_periods[1]),
                  "ns"))
      .set("sim.event.messages_per_node_period",
           metric(ratio(l.first_messages, l.first_event_node_periods),
                  "count"))
      .set("sim.count.ns_per_node_period",
           metric(1e9 * ratio(self_total("sim.count.advance"),
                              l.node_periods[2]),
                  "ns"))
      .set("api.finish_ms", metric(mean("api.finish", 1e3), "ms"))
      .set("api.json_dump_ms", metric(mean("api.json_dump", 1e3), "ms"))
      .set("api.json_kb_per_job",
           metric(ratio(l.first_dump_bytes / 1024.0, first_jobs), "KiB"))
      .set("api.suite.busy_frac",
           metric(ratio(l.suite_job_seconds, l.suite_capacity), "ratio"))
      .set("api.cache.key_us", metric(mean("api.cache.key", 1e6), "us"))
      .set("api.cache.hit_ms", metric(mean("api.cache.hit", 1e3), "ms"))
      .set("api.cache.store_ms", metric(mean("api.cache.store", 1e3), "ms"))
      .set("api.cache.hit_frac",
           metric(ratio(static_cast<double>(l.cache_hits),
                        static_cast<double>(l.cache_lookups)),
                  "ratio"))
      .set("dist.overhead_ms_per_job",
           metric(1e3 * ratio(l.dist_capacity - l.dist_job_seconds,
                              static_cast<double>(l.dist_jobs)),
                  "ms"))
      .set("dist.busy_frac", metric(ratio(l.dist_busy, l.dist_capacity), "ratio"))
      .set("dist.frames_per_job",
           metric(ratio(static_cast<double>(l.dist_frames),
                        static_cast<double>(l.dist_jobs)),
                  "count"))
      .set("dist.retries", metric(static_cast<double>(l.dist_retries), "count"))
      .set("dist.restarts",
           metric(static_cast<double>(l.dist_restarts), "count"))
      .set("analysis.static_ms", metric(mean("analysis.static", 1e3), "ms"))
      .set("analysis.exact.build_ms",
           metric(mean("analysis.exact.build", 1e3), "ms"))
      .set("analysis.exact.states_per_s",
           metric(ratio(l.exact_states, self_total("analysis.exact.build")),
                  "1/s"))
      .set("analysis.exact.kernel_nnz",
           metric(static_cast<double>(l.exact_first_nnz), "count"))
      .set("analysis.exact.absorption_ms",
           metric(mean("analysis.exact.absorption", 1e3), "ms"))
      .set("analysis.exact.hitting_ms",
           metric(mean("analysis.exact.hitting", 1e3), "ms"))
      .set("analysis.exact.stationary_ms",
           metric(mean("analysis.exact.stationary", 1e3), "ms"))
      .set("analysis.exact.repeated_machine_frac",
           metric(repeated_machine_share_, "ratio"));
}

Json Bench::environment() const {
  char host[256] = {};
  ::gethostname(host, sizeof host - 1);
  return Json::object()
      .set("nproc", Json::number(std::thread::hardware_concurrency()))
      .set("compiler", Json::string(E2E_COMPILER))
      .set("build_type", Json::string(E2E_BUILD_TYPE))
      .set("git_revision", Json::string(E2E_GIT_REVISION))
      .set("hostname", Json::string(host))
      .set("seed", Json::number(args_.seed))
      .set("workload", Json::string(config_.name))
      .set("seconds", Json::number(args_.seconds))
      .set("trace", Json::boolean(args_.trace))
      .set("quick", Json::boolean(args_.quick));
}

std::string result_stem(const Args& a, bool trace) {
  return a.workload + "-seed" + std::to_string(a.seed) + "-trace" +
         (trace ? "1" : "0") + (a.quick ? "-quick" : "");
}

int Bench::report() {
  const Json metrics = args_.trace ? per_layer_metrics() : end_to_end_metrics();
  const Tail tail = job_tail(totals_);
  const double failed_frac =
      static_cast<double>(totals_.failed) /
      static_cast<double>(std::max<std::size_t>(1, totals_.attempted));

  Json extra = Json::object()
                   .set("batches", Json::number(totals_.batches))
                   .set("timed_wall_s", Json::number(totals_.wall))
                   .set("timed_cpu_s", Json::number(totals_.cpu))
                   .set("batch_jobs_per_s", values_json(totals_.batch_rates))
                   .set("job_tail_percentile", Json::number(tail.percentile))
                   .set("job_tail_samples_beyond", Json::number(tail.beyond))
                   .set("job_tail_batches", Json::number(tail.batches))
                   .set("peak_rss_mb", Json::number(peak_rss_mb()))
                   .set("failed_frac", Json::number(failed_frac))
                   .set("setup_samples_s", values_json(setup_samples_));
  if (config_.engine == Engine::Dispatch) {
    extra.set("cache_hit_share",
              Json::number(layers_.cache_lookups > 0
                               ? static_cast<double>(layers_.cache_hits) /
                                     static_cast<double>(layers_.cache_lookups)
                               : 0.0));
    extra.set("cache_hit_checks", Json::number(hit_checks_));
  }
  if (config_.engine == Engine::Exact) {
    extra.set("repeated_machine_share", Json::number(repeated_machine_share_));
  }
  std::optional<double> overhead;
  if (args_.trace) {
    extra.set("spans", Json::number(tracer_.span_count()));
    // Tracing overhead: the median latency of the jobs that ran through
    // the traced layer calls against the median job latency of the
    // untraced run of the same workload and seed, when its result file is
    // present. Job latency, not job rate: the traced dispatch-cache jobs
    // run on in-process threads, while the untraced ones run in dispatch
    // workers, whose latency is taken around the same calls.
    std::ifstream in(fs::path(args_.results_dir) /
                     (result_stem(args_, false) + ".json"));
    if (in) {
      std::stringstream text;
      text << in.rdbuf();
      try {
        const double untraced = Json::parse(text.str())
                                    .at("metrics")
                                    .at("job_p50_ms")
                                    .at("value")
                                    .as_number();
        const double traced = 1e3 * median(totals_.traced_latencies);
        if (untraced > 0.0) overhead = traced / untraced - 1.0;
      } catch (const std::exception&) {
        // A foreign or truncated file: no overhead figure.
      }
    }
    if (overhead) extra.set("trace_overhead_frac", Json::number(*overhead));
  }
  Json failures = Json::array();
  for (const std::string& f : totals_.failures) failures.push(Json::string(f));
  extra.set("failures", std::move(failures));

  std::error_code ec;
  fs::create_directories(args_.results_dir, ec);
  const fs::path stem = fs::path(args_.results_dir) / result_stem(args_, args_.trace);
  {
    std::ofstream out(stem.string() + ".json");
    out << Json::object()
               .set("env", environment())
               .set("metrics", metrics)
               .set("extra", std::move(extra))
               .dump(2)
        << '\n';
  }
  if (args_.trace) {
    std::ofstream out(stem.string() + ".trace.json");
    out << tracer_.to_json().dump() << '\n';
  }

  std::printf("workload %s  seed %llu  nproc %u  %zu jobs in %zu batches, "
              "%zu failed (failed_frac %.6f)\n",
              config_.name.c_str(), static_cast<unsigned long long>(args_.seed),
              std::thread::hardware_concurrency(), totals_.attempted,
              totals_.batches, totals_.failed, failed_frac);
  for (const auto& [name, m] : metrics.items()) {
    std::printf("  %-40s %16.6f %s\n", name.c_str(), m.at("value").as_number(),
                m.at("unit").as_string().c_str());
  }
  if (tail.batches > 0) {
    std::printf("  job_tail percentile p%.2f with %zu of %zu samples beyond "
                "in each batch, median of %zu batches\n",
                tail.percentile, tail.beyond, totals_.batch_sizes.front(),
                tail.batches);
  } else {
    std::printf("  job_tail percentile p%.2f with %zu of %zu samples beyond\n",
                tail.percentile, tail.beyond, totals_.latencies.size());
  }
  std::printf("  peak_rss_mb (unbounded) %.3f MiB\n", peak_rss_mb());
  if (overhead) std::printf("  tracing overhead %.4f\n", *overhead);
  for (const std::string& f : totals_.failures) {
    std::fprintf(stderr, "check failed: %s\n", f.c_str());
  }
  std::printf("%s\n", Json::object()
                          .set("correct", Json::boolean(totals_.failed == 0))
                          .set("attempted", Json::number(totals_.attempted))
                          .set("failed", Json::number(totals_.failed))
                          .set("metrics", metrics)
                          .dump()
                          .c_str());
  return 0;
}

// --- entry -----------------------------------------------------------------

int worker_main(int argc, char** argv) {
  std::string cache_dir;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    if (flag != "--cache") {
      std::fprintf(stderr, "worker: unknown flag %s\n", flag.c_str());
      return 2;
    }
    cache_dir = argv[i + 1];
  }
  std::unique_ptr<deproto::api::ResultCache> cache;
  if (!cache_dir.empty()) {
    cache = std::make_unique<deproto::api::ResultCache>(cache_dir);
  }
  deproto::dist::WorkerOptions options;
  options.cache = cache.get();
  return deproto::dist::run_worker(options);
}

int usage() {
  std::fprintf(stderr,
               "usage: deproto-e2e-bench --workload <name> --seed <n> "
               "--seconds <s> --trace 0|1 [--quick] [--results-dir D] "
               "[--work-dir D] [--exact-reference F] "
               "[--inject-wrong-majority]\n"
               "       deproto-e2e-bench --record-exact-reference F\n"
               "workloads:");
  for (const std::string& w : e2e::workload_names()) {
    std::fprintf(stderr, " %s", w.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::string(argv[1]) == "--worker") {
    return worker_main(argc, argv);
  }
  Args args;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      auto value = [&]() -> std::string {
        if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
        return argv[++i];
      };
      if (flag == "--workload") {
        args.workload = value();
      } else if (flag == "--seed") {
        args.seed = std::stoull(value());
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value());
      } else if (flag == "--trace") {
        args.trace = value() == "1";
      } else if (flag == "--quick") {
        args.quick = true;
      } else if (flag == "--inject-wrong-majority") {
        args.inject_wrong_majority = true;
      } else if (flag == "--results-dir") {
        args.results_dir = value();
      } else if (flag == "--work-dir") {
        args.work_dir = value();
      } else if (flag == "--exact-reference") {
        args.exact_reference = value();
      } else if (flag == "--record-exact-reference") {
        return record_exact_reference(value());
      } else {
        std::fprintf(stderr, "unknown flag: %s\n", flag.c_str());
        return usage();
      }
    }
    if (args.workload.empty()) return usage();
    WorkloadConfig config = e2e::workload_config(
        args.workload, args.quick,
        std::max(1u, std::thread::hardware_concurrency()));
    config.inject_wrong_majority = args.inject_wrong_majority;
    Bench bench(std::move(args), std::move(config));
    return bench.run();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
