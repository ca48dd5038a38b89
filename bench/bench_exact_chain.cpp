// Exact finite-N model checker throughput: how fast the lattice
// enumeration + kernel build scales with n (states/sec), and what
// the downstream linear-algebra passes (SCC classification is part of
// construction; absorption solve, hitting-time solve, stationary
// distribution) cost on top. These bound the largest --exact-n a lint
// gate can afford and the per-candidate price of a future CEGAR loop
// that uses ExactChain as its rejection oracle.

#include <benchmark/benchmark.h>

#include <cstddef>

#include "analysis/exact_chain.hpp"
#include "analysis/exact_checks.hpp"
#include "api/registry.hpp"
#include "api/spec.hpp"
#include "core/synthesis.hpp"

namespace {

using namespace deproto;

core::ProtocolStateMachine scenario_machine(const char* name) {
  const api::ScenarioSpec spec = api::registry_get(name);
  return core::synthesize(spec.resolve_source(), spec.synthesis).machine;
}

analysis::ExactChainOptions chain_options(std::size_t n) {
  analysis::ExactChainOptions options;
  options.n = n;
  options.max_states = 200000;
  return options;
}

/// Build the chain (enumeration + kernel + Tarjan classes) for the
/// 3-state lv-majority machine; counter = lattice states per second.
void BM_ExactChainBuild(benchmark::State& state) {
  const core::ProtocolStateMachine machine = scenario_machine("lv-majority");
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::size_t chain_states = 0;
  for (auto _ : state) {
    const analysis::ExactChain chain(machine, chain_options(n));
    chain_states = chain.num_chain_states();
    benchmark::DoNotOptimize(chain_states);
  }
  state.counters["states"] =
      benchmark::Counter(static_cast<double>(chain_states));
  state.counters["states_per_sec"] =
      benchmark::Counter(static_cast<double>(chain_states),
                         benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_ExactChainBuild)->Arg(16)->Arg(32)->Arg(48);

/// Absorption probabilities from a split seed: the Gauss-Seidel solve
/// over the transient block, the quantity the pinning test checks.
void BM_ExactAbsorptionSolve(benchmark::State& state) {
  const core::ProtocolStateMachine machine = scenario_machine("lv-majority");
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const analysis::ExactChain chain(machine, chain_options(n));
  const std::size_t start = chain.seeded_index({n / 2 + 1, n - n / 2 - 1});
  for (auto _ : state) {
    const auto absorb = chain.absorption_probabilities(start);
    benchmark::DoNotOptimize(absorb.data());
  }
  state.counters["states"] = benchmark::Counter(
      static_cast<double>(chain.num_chain_states()));
}
BENCHMARK(BM_ExactAbsorptionSolve)->Arg(16)->Arg(32)->Arg(48);

/// Expected hitting time from the same seed (second Gauss-Seidel pass).
void BM_ExactHittingTimeSolve(benchmark::State& state) {
  const core::ProtocolStateMachine machine = scenario_machine("lv-majority");
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const analysis::ExactChain chain(machine, chain_options(n));
  const std::size_t start = chain.seeded_index({n / 2 + 1, n - n / 2 - 1});
  for (auto _ : state) {
    benchmark::DoNotOptimize(chain.expected_absorption_time(start));
  }
}
BENCHMARK(BM_ExactHittingTimeSolve)->Arg(16)->Arg(32);

/// check_exact end to end on the endemic scenario (chain build, class
/// analysis, mean-field comparison, CLT comparison): the full lint-tier
/// cost per scenario, i.e. what `deproto-lint --exact` pays per registry
/// entry at a given --exact-n.
void BM_ExactCheckEndemic(benchmark::State& state) {
  const core::ProtocolStateMachine machine = scenario_machine("endemic");
  analysis::ExactCheckOptions options;
  options.n = static_cast<std::size_t>(state.range(0));
  const api::ScenarioSpec spec =
      api::registry_get("endemic").scaled_to(options.n);
  for (auto _ : state) {
    const auto findings = deproto::analysis::check_exact(
        machine, spec.initial_counts, options, spec.runtime.message_loss,
        spec.runtime.tokens);
    benchmark::DoNotOptimize(findings.data());
  }
}
BENCHMARK(BM_ExactCheckEndemic)->Arg(16)->Arg(24);

}  // namespace

BENCHMARK_MAIN();
