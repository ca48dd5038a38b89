#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "api/registry.hpp"
#include "sim/rng.hpp"

namespace e2e {

namespace {

using deproto::api::Json;
using deproto::api::ScenarioSpec;
using deproto::api::SweepAxis;
using deproto::api::SweepJob;
using deproto::api::SweepSpec;

// sweep-sync: the fig11 LV grid, log-spaced at five points instead of the
// preset's four so the job median falls inside the middle point's jobs
// rather than on the edge between two points, and widened to this many seed
// replicates per point in every batch. N stops at 3.2 * 10^4: above it the
// sync simulator's per-node state outgrows a core's L2 (per-node cost jumps
// by a third at N = 5.6 * 10^4), and on a shared host the job time then
// follows other tenants' traffic in the shared L3 more than the code. With
// N up to 10^5 and a thread per core, ten runs of the same code spread by
// 0.29 of the median in jobs/s. Largest N first: the threads take the
// long jobs together and finish on the short ones, so a batch's wall does
// not hinge on which thread draws the last long job.
const double kSweepN[] = {31623, 23714, 17783, 13335, 10000};
constexpr std::size_t kSweepReplicates = 5;
// LV at p = 0.01 settles near period 310 at every N of the grid; 400
// periods leave a margin before the absorption check.
constexpr std::size_t kSweepPeriods = 400;

// async-faults: the five event-backend registry scenarios, each replicated
// this many times per batch.
constexpr std::size_t kAsyncReplicates = 2;
const char* const kAsyncScenarios[] = {
    "endemic-massive-failure-event", "lv-majority-failure-event",
    "endemic-crash-recovery-event",  "endemic-churn-event",
    "epidemic-event",
};

// dispatch-cache: count-backend jobs per batch, one in this many long
// (13 per batch), and the periods of a long job.
constexpr std::size_t kDispatchBatch = 2000;
constexpr std::size_t kDispatchLongEvery = 160;
constexpr std::size_t kDispatchLongPeriods = 40;
const std::size_t kDispatchN[] = {100000, 200000, 500000, 1000000};

std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

BenchJob bench_job(ScenarioSpec spec, std::size_t index, std::size_t point,
                   std::size_t replicate) {
  BenchJob j;
  j.expect = expect_for(spec);
  j.job.index = index;
  j.job.point = point;
  j.job.replicate = replicate;
  j.job.spec = std::move(spec);
  return j;
}

std::vector<BenchJob> sweep_sync_batch(const WorkloadConfig& config,
                                       std::uint64_t seed, std::size_t b) {
  SweepSpec sweep = deproto::api::sweep_registry_get("fig11-convergence-vs-n");
  sweep.base.periods = kSweepPeriods;
  sweep.base.seed = mix_seed(seed, b);
  sweep.replicates = kSweepReplicates;
  SweepAxis& n_axis = sweep.axes.at(0);
  n_axis.values.clear();
  for (const double n : kSweepN) {
    n_axis.values.push_back(Json::number(config.quick ? std::round(n / 10) : n));
  }
  std::vector<BenchJob> jobs;
  for (SweepJob& job : sweep.expand()) {
    BenchJob j;
    j.expect = expect_for(job.spec);
    j.job = std::move(job);
    jobs.push_back(std::move(j));
  }
  if (config.inject_wrong_majority && b == 0 && !jobs.empty()) {
    std::vector<std::size_t>& counts = jobs.front().job.spec.initial_counts;
    std::swap(counts.at(0), counts.at(1));
  }
  return jobs;
}

std::vector<BenchJob> async_faults_batch(const WorkloadConfig& config,
                                         std::uint64_t seed, std::size_t b) {
  const std::size_t n = config.quick ? 500 : 10000;
  std::vector<BenchJob> jobs;
  std::size_t point = 0;
  for (const char* name : kAsyncScenarios) {
    const ScenarioSpec base = deproto::api::registry_get(name).scaled_to(n);
    for (std::size_t r = 0; r < kAsyncReplicates; ++r) {
      ScenarioSpec spec = base;
      spec.seed = mix_seed(seed, (b * 64 + point) * 64 + r);
      jobs.push_back(bench_job(std::move(spec), jobs.size(), point, r));
    }
    ++point;
  }
  return jobs;
}

std::vector<BenchJob> dispatch_cache_batch(const WorkloadConfig& config,
                                           std::uint64_t seed, std::size_t b) {
  const std::size_t batch = config.quick ? 20 : kDispatchBatch;
  deproto::sim::Rng rng(mix_seed(seed, b));
  std::vector<BenchJob> jobs;
  for (std::size_t i = 0; i < batch; ++i) {
    const std::size_t n = kDispatchN[rng.uniform_int(std::size(kDispatchN))];
    ScenarioSpec spec;
    if (i % kDispatchLongEvery == 4) {
      // The long jobs: background crash-recovery at N = 5 * 10^5, where the
      // count backend's per-crash bookkeeping costs about 20 ms. Position
      // 4 mod 5 is never pre-filled (the pre-fill takes whole fifths, under
      // 80%), so all 13 per batch execute and the batch's tail job, with ten
      // jobs beyond it, is one of them -- the tail would otherwise be
      // whichever cache write met a disk stall.
      spec = deproto::api::registry_get("endemic-massive-failure-count")
                 .scaled_to(500000);
      spec.periods = kDispatchLongPeriods;
      spec.faults.massive_failures.clear();
      spec.faults.crash_recovery.crash_prob = 0.01;
      spec.faults.crash_recovery.mean_downtime_periods = 10.0;
      spec.name = "endemic-crash-recovery-count";
    } else switch (rng.uniform_int(3)) {
      case 0:
        // Endemic replication seeded at the eq. (2) equilibrium, losing a
        // share of the group mid-run.
        spec = deproto::api::registry_get("endemic-massive-failure-count")
                   .scaled_to(n);
        spec.periods = 120;
        spec.faults.massive_failures = {deproto::sim::MassiveFailure{
            static_cast<double>(30 + rng.uniform_int(40)),
            0.3 + 0.1 * static_cast<double>(rng.uniform_int(3))}};
        break;
      case 1:
        spec = deproto::api::registry_get("lv-majority-count").scaled_to(n);
        spec.periods = 200;
        spec.faults.massive_failures = {deproto::sim::MassiveFailure{20, 0.5}};
        break;
      default:
        // Seeded with N / 10^4 infectives: from a single one, a rare run
        // is still at a handful of infectives when the failure strikes and
        // loses all of them -- correct behaviour, but not a job whose
        // output can be checked. Absorption then takes about 30 periods.
        spec = deproto::api::registry_get("epidemic-count").scaled_to(n);
        spec.initial_counts = {n - n / 10000, n / 10000};
        spec.periods = 64;
        spec.faults.massive_failures = {deproto::sim::MassiveFailure{15, 0.3}};
        break;
    }
    spec.name += "/b" + std::to_string(b) + "/" + std::to_string(i);
    spec.seed = rng.engine()();
    jobs.push_back(bench_job(std::move(spec), i, i, 0));
  }
  return jobs;
}

std::vector<BenchJob> exact_verify_batch(std::uint64_t seed, std::size_t b) {
  // One round: every registry scenario once, in a seeded order.
  std::vector<std::string> names = deproto::api::registry_names();
  deproto::sim::Rng rng(mix_seed(seed, b));
  for (std::size_t i = names.size(); i > 1; --i) {
    std::swap(names[i - 1], names[rng.uniform_int(i)]);
  }
  std::vector<BenchJob> jobs;
  for (const std::string& name : names) {
    BenchJob j;
    j.job.index = j.job.point = jobs.size();
    j.job.spec = deproto::api::registry_get(name);
    jobs.push_back(std::move(j));
  }
  return jobs;
}

}  // namespace

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  return splitmix(splitmix(seed) ^ salt);
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "sweep-sync", "async-faults", "exact-verify", "dispatch-cache"};
  return names;
}

WorkloadConfig workload_config(const std::string& name, bool quick,
                               std::size_t nproc) {
  WorkloadConfig c;
  c.name = name;
  c.quick = quick;
  nproc = std::max<std::size_t>(nproc, 1);
  // Quick runs take two batches, so a traced one passes through both the
  // layer-by-layer path and SuiteRunner.
  c.max_batches = quick ? 2 : std::numeric_limits<std::size_t>::max();
  if (name == "sweep-sync") {
    // Half the cores: with a thread on every core, one more busy process
    // on the host slowed the median job by a fifth; on two threads it did
    // not move it.
    c.engine = Engine::Threads;
    c.workers = std::max<std::size_t>(1, nproc / 2);
  } else if (name == "async-faults") {
    c.engine = Engine::Threads;
    c.workers = nproc;
  } else if (name == "exact-verify") {
    c.engine = Engine::Exact;
    c.workers = 1;
    c.exact_n = quick ? 8 : 24;
  } else if (name == "dispatch-cache") {
    c.engine = Engine::Dispatch;
    // The dispatcher process plus its workers fit within nproc cores.
    c.workers = std::max<std::size_t>(1, nproc - 1);
    c.prefill = 0.6;
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  return c;
}

std::vector<BenchJob> make_batch(const WorkloadConfig& config,
                                 std::uint64_t seed, std::size_t b) {
  if (config.name == "sweep-sync") return sweep_sync_batch(config, seed, b);
  if (config.name == "async-faults") {
    return async_faults_batch(config, seed, b);
  }
  if (config.name == "dispatch-cache") {
    return dispatch_cache_batch(config, seed, b);
  }
  return exact_verify_batch(seed, b);
}

}  // namespace e2e
