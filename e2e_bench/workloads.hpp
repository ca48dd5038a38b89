#pragma once

// The benchmark's four workloads, as generators of seeded job batches.
// Every spec the program runs comes from make_batch(config, seed, b): the
// same seed gives the same batches, and batch b never depends on how many
// batches ran before it. See README.md for why each workload exists.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "api/sweep.hpp"
#include "checks.hpp"

namespace e2e {

/// How a workload's batches execute.
enum class Engine {
  Threads,   // SuiteRunner's in-process thread pool, no cache
  Dispatch,  // SuiteRunner dispatch mode over a shared ResultCache
  Exact,     // analysis::analyze_spec with the exact pass, one thread
};

struct WorkloadConfig {
  std::string name;
  Engine engine = Engine::Threads;
  /// Worker threads (Threads) or worker processes (Dispatch).
  std::size_t workers = 1;
  /// Upper bound on batches in one run; full-size runs stop on time.
  std::size_t max_batches = 1;
  /// Dispatch: share of every batch written to the cache before it runs,
  /// in whole fifths below 0.8 (the long jobs sit at the fifth that is
  /// never pre-filled). Kept off one half so the job median does not sit
  /// on the edge between cache hits and misses, and above it so the
  /// median is a hit: a miss's latency is mostly its cache write, whose
  /// cost follows the file system's state (at 40%, a batch's job median
  /// read 0.3-0.45 ms in some runs and 1.6 ms in others).
  double prefill = 0.0;
  /// Exact: population size of the exact chain.
  std::size_t exact_n = 0;
  /// Smoke-test sizes: every workload tiny.
  bool quick = false;
  /// Test hook: batch 0's first Lotka-Volterra job is seeded with the
  /// minority and majority swapped, while its expectation keeps the
  /// intended majority -- one known-bad job the checks must catch.
  bool inject_wrong_majority = false;
};

/// The workload names, in BENCHMARK.json order.
[[nodiscard]] const std::vector<std::string>& workload_names();

/// Throws std::invalid_argument for an unknown name.
[[nodiscard]] WorkloadConfig workload_config(const std::string& name,
                                             bool quick,
                                             std::size_t nproc);

struct BenchJob {
  deproto::api::SweepJob job;  // index/point are positions in the batch
  Expectation expect;          // unused by the exact workload
};

/// Batch `b` of the workload, generated from `seed`.
[[nodiscard]] std::vector<BenchJob> make_batch(const WorkloadConfig& config,
                                               std::uint64_t seed,
                                               std::size_t b);

/// splitmix64 finalizer: decorrelated seeds from (seed, salt) pairs.
[[nodiscard]] std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt);

}  // namespace e2e
