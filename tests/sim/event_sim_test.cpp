#include "sim/event_sim.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "api/experiment.hpp"
#include "api/registry.hpp"
#include "core/synthesis.hpp"
#include "ode/catalog.hpp"
#include "protocols/lv_majority.hpp"
#include "sim/churn.hpp"

namespace deproto::sim {
namespace {

TEST(EventSimTest, AsynchronousEpidemicStillInfectsEveryone) {
  // No global clock: per-process periods have arbitrary phase and 5% drift,
  // probes ride on a lossy, latency-jittered network.
  const auto result = core::synthesize(ode::catalog::epidemic());
  EventSimOptions options;
  options.clock_drift = 0.05;
  options.network.loss = 0.05;
  EventSimulator simulator(300, result.machine, 1, options);
  simulator.seed_states({299, 1});
  simulator.run_until(60.0);
  EXPECT_EQ(simulator.group().count(1), 300U);
  EXPECT_GT(simulator.network().sent(), 0U);
  EXPECT_GT(simulator.network().dropped(), 0U);
}

TEST(EventSimTest, MetricsSampledEveryPeriod) {
  const auto result = core::synthesize(ode::catalog::epidemic());
  EventSimulator simulator(50, result.machine, 2);
  simulator.seed_states({49, 1});
  simulator.run_until(10.0);
  // Samples at t = 0, 1, ..., 10.
  EXPECT_EQ(simulator.metrics().samples().size(), 11U);
  EXPECT_NEAR(simulator.metrics().samples().back().time, 10.0, 1e-9);
}

TEST(EventSimTest, MassiveFailureReducesAliveCount) {
  const auto result = core::synthesize(ode::catalog::epidemic());
  EventSimulator simulator(200, result.machine, 3);
  simulator.seed_states({199, 1});
  simulator.schedule_massive_failure(5.0, 0.5);
  simulator.run_until(10.0);
  EXPECT_EQ(simulator.group().total_alive(), 100U);
}

TEST(EventSimTest, CrashStopsTicksRecoveryRestartsThem) {
  const auto result = core::synthesize(ode::catalog::epidemic());
  EventSimulator simulator(10, result.machine, 4);
  simulator.seed_states({9, 1});
  simulator.schedule_crash(0, 1.0, /*recover_time=*/3.0);
  simulator.run_until(2.0);
  EXPECT_FALSE(simulator.group().alive(0));
  simulator.run_until(20.0);
  EXPECT_TRUE(simulator.group().alive(0));
  // The recovered process rejoined the epidemic and got infected again.
  EXPECT_EQ(simulator.group().count(1), 10U);
}

TEST(EventSimTest, LvConvergesToMajorityAsynchronously) {
  const auto result =
      core::synthesize(ode::catalog::lv_partitionable(), {.p = 0.1});
  EventSimOptions options;
  options.clock_drift = 0.1;
  options.network.loss = 0.02;
  EventSimulator simulator(400, result.machine, 5, options);
  simulator.seed_states({280, 120, 0});
  simulator.run_until(200.0);
  // Majority x wins.
  EXPECT_EQ(simulator.group().count(0), 400U);
}

TEST(EventSimTest, TokenWalkModeWorksOverMessages) {
  const auto result = core::synthesize(ode::catalog::invitation(1.0));
  EventSimOptions options;
  options.tokens.mode = TokenRouting::Mode::RandomWalkTtl;
  options.tokens.ttl = 16;
  EventSimulator simulator(100, result.machine, 6, options);
  simulator.seed_states({50, 50});
  simulator.run_until(60.0);
  EXPECT_GT(simulator.group().count(1), 95U);
}

TEST(EventSimTest, ValidatesDrift) {
  const auto result = core::synthesize(ode::catalog::epidemic());
  EventSimOptions options;
  options.clock_drift = 0.9;
  EXPECT_THROW(EventSimulator(10, result.machine, 7, options),
               std::invalid_argument);
}


// ---------------------------------------------------------------------
// Draw-order fingerprints. Each case runs a fixed-seed event simulation
// and pins its final counts, an FNV-1a hash of the per-period count
// series, and the network's sent/dropped totals. Any change in the order
// the backend consumes random draws or schedules events moves at least one
// of these numbers, so an engine refactor that claims byte-identical
// output is checked here, not only by end-to-end diffs. Re-record the
// expected values only for a change meant to alter the draw order.

struct Fingerprint {
  std::vector<std::size_t> final_counts;
  std::uint64_t series_hash = 0;
  std::uint64_t sent = 0;
  std::uint64_t dropped = 0;
};

class Fnv1a {
 public:
  void add(std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (value >> (8 * byte)) & 0xffU;
      hash_ *= 0x100000001b3ULL;
    }
  }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

Fingerprint registry_fingerprint(const std::string& name) {
  const api::ExperimentResult result =
      api::Experiment(api::registry_get(name)).run();
  Fnv1a hash;
  for (const api::PeriodPoint& point : result.series) {
    for (std::size_t c : point.counts) hash.add(c);
    hash.add(point.total_alive);
  }
  return {result.final_counts, hash.value(), result.messages_sent,
          result.messages_dropped};
}

Fingerprint simulator_fingerprint(EventSimulator& simulator) {
  Fnv1a hash;
  for (const PeriodSample& sample : simulator.metrics().samples()) {
    for (std::size_t c : sample.alive_in_state) hash.add(c);
    hash.add(sample.total_alive);
  }
  std::vector<std::size_t> counts;
  for (std::size_t s = 0; s < simulator.num_states(); ++s) {
    counts.push_back(simulator.count(s));
  }
  return {counts, hash.value(), simulator.network().sent(),
          simulator.network().dropped()};
}

void expect_fingerprint(const Fingerprint& got, const Fingerprint& want) {
  EXPECT_EQ(got.final_counts, want.final_counts);
  EXPECT_EQ(got.series_hash, want.series_hash);
  EXPECT_EQ(got.sent, want.sent);
  EXPECT_EQ(got.dropped, want.dropped);
}

TEST(EventSimFingerprintTest, EpidemicEvent) {
  expect_fingerprint(registry_fingerprint("epidemic-event"),
                     {{0, 2000}, 0x9f6324c227415bc1ULL, 30330, 1587});
}

TEST(EventSimFingerprintTest, LvMajorityFailureEvent) {
  expect_fingerprint(registry_fingerprint("lv-majority-failure-event"),
                     {{1000, 0, 0}, 0xb86e212798f90d73ULL, 735980, 14881});
}

TEST(EventSimFingerprintTest, EndemicChurnEvent) {
  expect_fingerprint(registry_fingerprint("endemic-churn-event"),
                     {{141, 343, 1461}, 0xe3b5ffdc53beaad3ULL, 365992, 0});
}

TEST(EventSimFingerprintTest, InvitationRandomWalkTokens) {
  // Tokenizing actions routed as TTL-bounded random walks over a lossy
  // network, with targeted crashes and background crash-recovery.
  const auto result = core::synthesize(ode::catalog::invitation(1.0));
  EventSimOptions options;
  options.tokens.mode = TokenRouting::Mode::RandomWalkTtl;
  options.tokens.ttl = 8;
  options.network.loss = 0.05;
  EventSimulator simulator(300, result.machine, 11, options);
  simulator.seed_states({240, 60});
  simulator.schedule_crash(3, 2.5, /*recover_time=*/7.25);
  simulator.schedule_crash(4, 5.0);
  simulator.set_crash_recovery(0.01, 3.0);
  simulator.run_until(40.0);
  expect_fingerprint(simulator_fingerprint(simulator),
                     {{0, 291}, 0xb3de92e8d84845f0ULL, 72977, 3791});
}

TEST(EventSimFingerprintTest, DriverModeUnderEveryFault) {
  // A hand-written protocol on the group-wide driver timer, with on_crash
  // hooks fired by every fault kind.
  proto::LvMajority protocol({});
  EventSimulator simulator(400, protocol, 12);
  simulator.seed_states({220, 180, 0});
  simulator.schedule_massive_failure(3.0, 0.25);
  simulator.schedule_crash(9, 1.5, /*recover_time=*/4.5);
  simulator.set_crash_recovery(0.02, 2.0);
  Rng churn_rng(5);
  simulator.attach_churn(
      ChurnTrace::synthetic_overnet(400, 3.0, 0.05, 0.15, 0.5, churn_rng),
      10.0);
  simulator.run_until(30.0);
  expect_fingerprint(simulator_fingerprint(simulator),
                     {{59, 56, 177}, 0x83693a7363438cceULL, 0, 0});
}

}  // namespace
}  // namespace deproto::sim
