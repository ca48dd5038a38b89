#include "sim/network.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/rng.hpp"

namespace deproto::sim {
namespace {

// Event kinds for a message's two possible outcomes, as a transport
// schedules them from the drawn fate.
constexpr std::uint32_t kDelivered = 0;
constexpr std::uint32_t kLost = 1;

/// Send one message and schedule its outcome the way the event transport
/// does: the arrival, or the loss surrogate, `latency` after the send.
/// `tag` rides in the record's `a` payload.
void send(Network& network, EventQueue& queue, std::uint32_t tag = 0) {
  const MessageFate fate = network.send();
  queue.schedule_in(fate.latency, fate.lost ? kLost : kDelivered, tag);
}

TEST(NetworkTest, RejectsInvalidOptions) {
  Rng rng(1);
  EXPECT_THROW(Network(rng, {.loss = -0.1}), std::invalid_argument);
  EXPECT_THROW(Network(rng, {.loss = 1.0}), std::invalid_argument);
  // Extra parens: the brace initializer's comma would otherwise split the
  // macro arguments.
  EXPECT_THROW((Network(rng, {.latency_min = 0.5, .latency_max = 0.1})),
               std::invalid_argument);
  EXPECT_THROW(Network(rng, {.latency_min = -0.01}), std::invalid_argument);
}

TEST(NetworkTest, OnLostFiresAtTheWouldBeDeliveryTime) {
  // A degenerate latency band pins every arrival -- delivered or lost --
  // to exactly send_time + L: the timeout surrogate must not fire early
  // (a receiver cannot know about a loss before the silence is
  // distinguishable from latency).
  EventQueue queue;
  Rng rng(7);
  const double kLatency = 0.25;
  Network network(
      rng, {.loss = 0.5, .latency_min = kLatency, .latency_max = kLatency});
  std::vector<double> sent_at;
  std::vector<double> delivered_at;
  std::vector<double> lost_at;
  const auto record = [&](const Event& event) {
    const double dt = queue.now() - sent_at[event.a];
    (event.kind == kLost ? lost_at : delivered_at).push_back(dt);
  };
  for (std::uint32_t k = 0; k < 64; ++k) {
    sent_at.push_back(queue.now());
    send(network, queue, k);
    queue.run_until(queue.now() + 0.01, record);  // stagger send times
  }
  queue.run_all(record);
  ASSERT_FALSE(delivered_at.empty());
  ASSERT_FALSE(lost_at.empty());
  for (const double dt : delivered_at) EXPECT_DOUBLE_EQ(dt, kLatency);
  for (const double dt : lost_at) EXPECT_DOUBLE_EQ(dt, kLatency);
}

TEST(NetworkTest, CountersAreMonotoneAndConsistent) {
  EventQueue queue;
  Rng rng(11);
  Network network(rng, {.loss = 0.3});
  std::uint64_t last_sent = 0;
  std::uint64_t last_dropped = 0;
  for (int k = 0; k < 500; ++k) {
    send(network, queue);
    EXPECT_EQ(network.sent(), last_sent + 1);  // exactly one per send
    EXPECT_GE(network.dropped(), last_dropped);
    EXPECT_LE(network.dropped() - last_dropped, 1U);
    last_sent = network.sent();
    last_dropped = network.dropped();
  }
  EXPECT_EQ(network.sent(), 500U);
  EXPECT_GT(network.dropped(), 0U);
  EXPECT_LT(network.dropped(), 500U);
  // Delivered + lost outcomes account for every message once drained.
  std::uint64_t delivered = 0;
  std::uint64_t lost = 0;
  queue.run_all([&](const Event& event) {
    ++(event.kind == kLost ? lost : delivered);
  });
  EXPECT_EQ(lost, network.dropped());
  EXPECT_EQ(delivered + lost, network.sent());
}

TEST(NetworkTest, ZeroLatencyBandDeliversAtSendTime) {
  EventQueue queue;
  Rng rng(3);
  Network network(rng, {.loss = 0.0, .latency_min = 0.0, .latency_max = 0.0});
  int delivered = 0;
  double delivered_time = -1.0;
  constexpr std::uint32_t kSendNow = 2;
  queue.schedule(1.5, kSendNow);
  queue.run_all([&](const Event& event) {
    if (event.kind == kSendNow) {
      send(network, queue);
      return;
    }
    ++delivered;
    delivered_time = queue.now();
  });
  EXPECT_EQ(delivered, 1);
  EXPECT_DOUBLE_EQ(delivered_time, 1.5);  // no artificial minimum delay
  EXPECT_EQ(network.sent(), 1U);
  EXPECT_EQ(network.dropped(), 0U);
}

TEST(NetworkTest, LosslessNetworkDrawsOnlyTheLatency) {
  // With loss == 0 the loss coin is never flipped: one draw per message,
  // so turning loss on is the only thing that shifts later draws.
  Rng drawn(5);
  Rng reference(5);
  Network network(drawn, {.loss = 0.0});
  for (int k = 0; k < 100; ++k) {
    const MessageFate fate = network.send();
    EXPECT_FALSE(fate.lost);
    EXPECT_EQ(fate.latency, reference.uniform(0.02, 0.10));
  }
  EXPECT_EQ(network.dropped(), 0U);
}

TEST(NetworkTest, LossySendsWithoutLostHandlerStillCount) {
  EventQueue queue;
  Rng rng(5);
  Network network(rng, {.loss = 0.5});
  int delivered = 0;
  for (int k = 0; k < 200; ++k) {
    const MessageFate fate = network.send();
    if (!fate.lost) queue.schedule_in(fate.latency, kDelivered);
  }
  queue.run_all([&](const Event&) { ++delivered; });
  EXPECT_EQ(network.sent(), 200U);
  EXPECT_EQ(static_cast<std::uint64_t>(delivered),
            network.sent() - network.dropped());
}

}  // namespace
}  // namespace deproto::sim
