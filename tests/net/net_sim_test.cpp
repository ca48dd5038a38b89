#include "net/net_sim.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "core/synthesis.hpp"
#include "ode/catalog.hpp"
#include "sim/group.hpp"

namespace deproto::net {
namespace {

/// Short wall-clock periods keep every test here under a couple of
/// seconds of real time; the protocols only care about periods, not ms.
/// The probe timeout is stretched to 2 periods: at 3 ms periods the
/// default 0.5 would be a 1.5 ms reply deadline, which a loaded CI host
/// (ctest -j runs suites in parallel) can miss, surfacing scheduling
/// jitter as spurious loss.
NetSimOptions fast_options() {
  NetSimOptions options;
  options.period_ms = 3.0;
  options.probe_timeout = 2.0;
  return options;
}

TEST(NetSimTest, RejectsBadPopulationsAndOptions) {
  const auto result = core::synthesize(ode::catalog::epidemic());
  EXPECT_THROW(NetSimulator(1, result.machine, 1), std::invalid_argument);
  EXPECT_THROW(
      NetSimulator(NetSimulator::kMaxNodes + 1, result.machine, 1),
      std::invalid_argument);
  NetSimOptions bad = fast_options();
  bad.period_ms = 0.0;
  EXPECT_THROW(NetSimulator(4, result.machine, 1, bad),
               std::invalid_argument);
  bad = fast_options();
  bad.probe_timeout = -1.0;
  EXPECT_THROW(NetSimulator(4, result.machine, 1, bad),
               std::invalid_argument);
  bad = fast_options();
  bad.message_loss = 1.0;
  EXPECT_THROW(NetSimulator(4, result.machine, 1, bad),
               std::invalid_argument);
}

TEST(NetSimTest, RejectsMachinesWiderThanTheStateByte) {
  // Probe, ProbeReply, and Push datagrams carry a state in one byte, as
  // sim::Group stores one per process: Group::kMaxStates (255) is the
  // widest machine that runs, and a wider one is refused before it could
  // alias a state in a datagram.
  std::vector<std::string> names;
  for (std::size_t s = 0; s < sim::Group::kMaxStates; ++s) {
    names.push_back("s" + std::to_string(s));
  }
  EXPECT_NO_THROW(NetSimulator(2, core::ProtocolStateMachine(names), 1));
  names.push_back("s" + std::to_string(names.size()));
  try {
    NetSimulator(2, core::ProtocolStateMachine(names), 1);
    ADD_FAILURE() << "a 256-state machine was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("one byte"), std::string::npos)
        << e.what();
  }
}

TEST(NetSimTest, EpidemicOverRealSocketsInfectsEveryone) {
  const auto result = core::synthesize(ode::catalog::epidemic());
  NetSimulator simulator(64, result.machine, 1, fast_options());
  simulator.seed_states({63, 1});
  simulator.run_for(35.0);
  EXPECT_EQ(simulator.group().count(1), 64U);

  // The gossip really happened as datagrams with measured RTTs.
  const NetStats stats = simulator.net_stats();
  EXPECT_GT(stats.datagrams_sent, 0U);
  EXPECT_GT(stats.datagrams_received, 0U);
  EXPECT_GT(stats.probes_sent, 0U);
  EXPECT_GT(stats.rtt_samples, 0U);
  EXPECT_GT(stats.rtt_ms_mean(), 0.0);
  EXPECT_GE(stats.rtt_ms_max, stats.rtt_ms_min);
  EXPECT_EQ(stats.decode_errors, 0U);
}

TEST(NetSimTest, MetricsSampledEveryPeriodLikeEventBackend) {
  const auto result = core::synthesize(ode::catalog::epidemic());
  NetSimulator simulator(8, result.machine, 2, fast_options());
  simulator.seed_states({7, 1});
  simulator.run_for(10.0);
  // Samples at t = 0, 1, ..., 10.
  EXPECT_EQ(simulator.metrics().samples().size(), 11U);
  EXPECT_NEAR(simulator.metrics().samples().back().time, 10.0, 1e-9);
  EXPECT_NEAR(simulator.now(), 10.0, 1e-9);
}

TEST(NetSimTest, EveryNodeHasItsOwnBoundPort) {
  const auto result = core::synthesize(ode::catalog::epidemic());
  NetSimulator simulator(16, result.machine, 3, fast_options());
  for (std::size_t pid = 0; pid < 16; ++pid) {
    EXPECT_NE(simulator.port_of(pid), 0) << pid;
    for (std::size_t other = 0; other < pid; ++other) {
      EXPECT_NE(simulator.port_of(pid), simulator.port_of(other));
    }
  }
}

TEST(NetSimTest, EmulatedLossShowsUpAsProbeTimeouts) {
  const auto result = core::synthesize(ode::catalog::epidemic());
  NetSimOptions options = fast_options();
  options.message_loss = 0.4;
  NetSimulator simulator(32, result.machine, 4, options);
  simulator.seed_states({16, 16});
  simulator.run_for(12.0);
  const NetStats stats = simulator.net_stats();
  EXPECT_GT(stats.emulated_drops, 0U);
  EXPECT_GT(stats.probe_timeouts, 0U);
  // Two loss legs (request + reply) at 0.4 each: observed loss must land
  // well above zero and below one.
  EXPECT_GT(stats.observed_loss(), 0.2);
  EXPECT_LT(stats.observed_loss(), 0.95);
}

TEST(NetSimTest, KilledNodeIsAbsorbedAsChurnWithoutHanging) {
  // The SIGKILL drill of the acceptance criteria: a node vanishes without
  // any goodbye; its socket closes mid-run. Peers must keep gossiping
  // (probes to the dead port time out like loss) and the run must finish.
  const auto result = core::synthesize(ode::catalog::epidemic());
  NetSimulator simulator(24, result.machine, 5, fast_options());
  simulator.seed_states({23, 1});
  simulator.run_for(3.0);
  simulator.kill_node(3);
  simulator.kill_node(7);
  EXPECT_EQ(simulator.port_of(3), 0);
  EXPECT_FALSE(simulator.group().alive(3));
  simulator.run_for(22.0);
  EXPECT_EQ(simulator.total_alive(), 22U);
  // Everyone still alive converged despite the dead ports.
  EXPECT_EQ(simulator.group().count(1), 22U);
}

TEST(NetSimTest, MassiveFailureAndTargetedCrashRecovery) {
  const auto result = core::synthesize(ode::catalog::epidemic());
  NetSimulator simulator(40, result.machine, 6, fast_options());
  simulator.seed_states({39, 1});
  simulator.schedule_massive_failure(2.0, 0.5);
  simulator.run_for(4.0);
  EXPECT_EQ(simulator.total_alive(), 20U);

  // A crashed node's socket is gone; recovery rebinds and rejoins.
  NetSimulator recovering(10, result.machine, 7, fast_options());
  recovering.seed_states({9, 1});
  recovering.schedule_crash(0, 1.0, /*recover_time=*/3.0);
  recovering.run_for(2.0);
  EXPECT_FALSE(recovering.group().alive(0));
  EXPECT_EQ(recovering.port_of(0), 0);
  recovering.run_for(18.0);
  EXPECT_TRUE(recovering.group().alive(0));
  EXPECT_NE(recovering.port_of(0), 0);
  // The rejoined node caught the epidemic again.
  EXPECT_EQ(recovering.group().count(1), 10U);
  EXPECT_GT(recovering.net_stats().joins, 0U);
}

TEST(NetSimTest, ChurnTraceMapsToLeavesAndJoins) {
  const auto result = core::synthesize(ode::catalog::epidemic());
  NetSimulator simulator(12, result.machine, 8, fast_options());
  simulator.seed_states({11, 1});
  const sim::ChurnTrace trace = sim::ChurnTrace::from_events(
      {{0.1, 2, /*up=*/false}, {0.2, 5, /*up=*/false}, {0.5, 2, /*up=*/true}});
  simulator.attach_churn(trace, /*periods_per_hour=*/10.0);
  simulator.run_for(20.0);
  EXPECT_TRUE(simulator.group().alive(2));   // left at t=1, back at t=5
  EXPECT_FALSE(simulator.group().alive(5));  // left at t=2, never back
  EXPECT_EQ(simulator.total_alive(), 11U);
  const NetStats stats = simulator.net_stats();
  EXPECT_GT(stats.leaves, 0U);  // graceful departures were gossiped
}

TEST(NetSimTest, WatchFdWeavesExternalTrafficIntoTheLoop) {
  // The persistent_store hook: an external pipe becomes readable mid-run
  // and its callback fires from inside run_for's poll loop.
  const auto result = core::synthesize(ode::catalog::epidemic());
  NetSimulator simulator(8, result.machine, 9, fast_options());
  simulator.seed_states({7, 1});
  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  int seen = 0;
  simulator.watch_fd(fds[0], [&] {
    char buf[16];
    seen += static_cast<int>(read(fds[0], buf, sizeof(buf)));
  });
  ASSERT_EQ(write(fds[1], "ping", 4), 4);
  simulator.run_for(5.0);
  EXPECT_EQ(seen, 4);
  close(fds[0]);
  close(fds[1]);
}

TEST(NetSimTest, TokenRoutingDeliversOverDatagrams) {
  const auto result = core::synthesize(ode::catalog::invitation(1.0));
  NetSimOptions options = fast_options();
  options.tokens.mode = sim::TokenRouting::Mode::RandomWalkTtl;
  options.tokens.ttl = 16;
  NetSimulator simulator(48, result.machine, 10, options);
  simulator.seed_states({24, 24});
  simulator.run_for(30.0);
  EXPECT_GT(simulator.group().count(1), 40U);
  EXPECT_GT(simulator.token_stats().generated, 0U);
  EXPECT_GT(simulator.token_stats().delivered, 0U);
}

}  // namespace
}  // namespace deproto::net
