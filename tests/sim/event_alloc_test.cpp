// The event backend allocates nothing per event once its pools are warm:
// events are trivially copyable records in reused queue buckets, and
// probe sets live in a slot pool. This binary counts every global
// operator new to check it; what remains per period is bookkeeping (the
// metrics sample), not per-event work. Faults are left out: choosing
// crash victims allocates per victim, on every backend alike.

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "core/synthesis.hpp"
#include "ode/catalog.hpp"
#include "sim/event_sim.hpp"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t /*size*/) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t /*size*/) noexcept {
  std::free(p);
}

namespace deproto::sim {
namespace {

TEST(EventAllocationTest, NoPerEventAllocationOnceWarm) {
  core::SynthesisOptions synthesis;
  synthesis.push_pull.push_back(core::PushPullSpec{"x", "y"});
  const auto machine =
      core::synthesize(ode::catalog::endemic(4.0, 0.2, 0.05), synthesis)
          .machine;
  EventSimOptions options;
  options.network.loss = 0.05;
  constexpr std::size_t kN = 2000;
  EventSimulator simulator(kN, machine, 3, options);
  simulator.seed_states({100, 380, 1520});
  simulator.run_for(8.0);  // warm: buckets and probe pool sized

  constexpr double kPeriods = 20.0;
  const std::uint64_t sent_before = simulator.network().sent();
  const std::uint64_t before = g_allocations.load();
  simulator.run_for(kPeriods);
  const std::uint64_t allocations = g_allocations.load() - before;
  const std::uint64_t messages = simulator.network().sent() - sent_before;

  ASSERT_GT(messages, 10U * kN);  // the run did real work
  // A few allocations per period (the metrics sample, a bucket still
  // growing); a per-event allocation would be thousands per period.
  EXPECT_LT(allocations, static_cast<std::uint64_t>(10 * kPeriods))
      << allocations << " allocations for " << messages << " messages";
}

}  // namespace
}  // namespace deproto::sim
