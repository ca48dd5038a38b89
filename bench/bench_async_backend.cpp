// Cost per node-period of the event backend (sim::EventSimulator), the
// unit Kosowski & Uznanski use for population protocols: wall time of one
// protocol period divided by N. Each benchmark advances one warm endemic
// replication run (push-pull, eq. (1) with beta=4, gamma=0.2, alpha=0.05,
// seeded near its eq. (2) equilibrium) by one period per iteration, so
// every iteration carries the steady-state mix of timer ticks, probes,
// replies, and pushes. Only the Simulator interface is used, so this file
// measures any event backend that implements it.
//
//   ns_per_node_period        wall ns per process per period
//   messages_per_node_period  messages sent per process per period
// Each is reported as the mean, median, and stddev of five repetitions.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstddef>
#include <cstdint>

#include "core/synthesis.hpp"
#include "ode/catalog.hpp"
#include "sim/event_sim.hpp"
#include "sim/simulator.hpp"

namespace {

/// Warm-up before timing: every timer armed, queue buckets and probe
/// pools at their steady-state sizes.
constexpr double kWarmupPeriods = 3.0;

const deproto::core::ProtocolStateMachine& endemic_machine() {
  static const deproto::core::ProtocolStateMachine machine = [] {
    deproto::core::SynthesisOptions options;
    options.push_pull.push_back(deproto::core::PushPullSpec{"x", "y"});
    return deproto::core::synthesize(
               deproto::ode::catalog::endemic(4.0, 0.2, 0.05), options)
        .machine;
  }();
  return machine;
}

void BM_EventNodePeriod(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  deproto::sim::EventSimulator event(n, endemic_machine(), /*seed=*/1);
  deproto::sim::Simulator& simulator = event;
  // Near eq. (2): x* = 0.05, y* = 0.19, the rest in z.
  const std::size_t x = n / 20;
  const std::size_t y = n * 19 / 100;
  simulator.seed_states({x, y, n - x - y});
  simulator.run_for(kWarmupPeriods);
  const std::uint64_t sent_before = event.network().sent();

  double seconds = 0.0;
  for (auto _ : state) {
    const auto start = std::chrono::steady_clock::now();
    simulator.run_for(1.0);
    benchmark::DoNotOptimize(simulator.total_alive());
    seconds += std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start)
                   .count();
  }
  const double node_periods =
      static_cast<double>(n) * static_cast<double>(state.iterations());
  state.counters["ns_per_node_period"] = 1e9 * seconds / node_periods;
  state.counters["messages_per_node_period"] =
      static_cast<double>(event.network().sent() - sent_before) /
      node_periods;
}
BENCHMARK(BM_EventNodePeriod)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->Repetitions(5)
    ->ReportAggregatesOnly(true)
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(100000);

}  // namespace

BENCHMARK_MAIN();
