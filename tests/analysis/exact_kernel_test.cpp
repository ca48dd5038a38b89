// ExactChain's kernel against two independent specifications of the
// count backend's one-period dynamics:
//
//   * the recursive reference expansion (reference_kernel.hpp): the same
//     branch tree walked by copying, folded by count vector -- every row
//     must have the same support and the same probabilities to 1e-12, on
//     every registry machine plus the TTL token-routing and lossy paths
//     no registry scenario exercises;
//   * sim::CountSimulator itself: a lattice point seeded into the
//     sampler, one period over many seeded replicates, and a chi-square
//     goodness-of-fit of the empirical next-count distribution against
//     the kernel row -- the "mirrors execute_period" claim pinned
//     directly rather than only through absorption probabilities.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "analysis/exact_chain.hpp"
#include "api/registry.hpp"
#include "api/spec.hpp"
#include "core/action.hpp"
#include "core/state_machine.hpp"
#include "core/synthesis.hpp"
#include "ode/catalog.hpp"
#include "reference_kernel.hpp"
#include "sim/count_sim.hpp"

namespace {

using deproto::analysis::ExactChain;
using deproto::analysis::ExactChainOptions;
using deproto::core::ProtocolStateMachine;
using deproto::sim::TokenRouting;
using deproto::testing::reference_row;

ProtocolStateMachine registry_machine(const std::string& scenario) {
  const deproto::api::ScenarioSpec spec =
      deproto::api::registry_get(scenario);
  return deproto::core::synthesize(spec.resolve_source(), spec.synthesis)
      .machine;
}

ExactChainOptions registry_options(const std::string& scenario,
                                   std::size_t n) {
  const deproto::api::ScenarioSpec spec =
      deproto::api::registry_get(scenario);
  ExactChainOptions options;
  options.n = n;
  options.message_loss = spec.runtime.message_loss;
  options.tokens = spec.runtime.tokens;
  return options;
}

/// x, y, z with two Tokenizing actions competing for the same x stayers
/// (executed by y and by z, so the batch order is observable through the
/// clamp) and flips that keep every state populated.
ProtocolStateMachine competing_tokens_machine() {
  ProtocolStateMachine machine({"x", "y", "z"});
  deproto::core::TokenizingAction token;
  token.executor_state = 1;
  token.token_state = 0;
  token.to_state = 1;
  token.coin_bias = 0.6;
  token.rate_constant = 0.6;
  machine.add_action(token);
  token.executor_state = 2;
  token.to_state = 2;
  token.coin_bias = 0.5;
  token.rate_constant = 0.5;
  machine.add_action(token);
  deproto::core::FlippingAction flip;
  flip.from_state = 1;
  flip.to_state = 0;
  flip.coin_bias = 0.3;
  flip.rate_constant = 0.3;
  machine.add_action(flip);
  flip.from_state = 2;
  flip.to_state = 0;
  flip.coin_bias = 0.2;
  flip.rate_constant = 0.2;
  machine.add_action(flip);
  return machine;
}

ExactChainOptions ttl_options(std::size_t n) {
  ExactChainOptions options;
  options.n = n;
  options.message_loss = 0.15;
  options.tokens.mode = TokenRouting::Mode::RandomWalkTtl;
  options.tokens.ttl = 2;
  return options;
}

/// Every row of the chain: same support as the reference expansion and
/// equal probabilities to 1e-12.
void expect_kernel_matches_reference(const ProtocolStateMachine& machine,
                                     const ExactChainOptions& options,
                                     const std::string& label) {
  const ExactChain chain(machine, options);
  for (std::size_t i = 0; i < chain.num_chain_states(); ++i) {
    const std::map<std::vector<std::size_t>, double> want =
        reference_row(machine, options, chain.state(i)).outcomes;
    const auto& got = chain.row(i);
    ASSERT_EQ(got.size(), want.size()) << label << " row " << i;
    for (std::size_t e = 0; e < got.size(); ++e) {
      if (e > 0) {
        ASSERT_LT(got[e - 1].first, got[e].first) << label << " row " << i;
      }
      const auto it = want.find(chain.state(got[e].first));
      ASSERT_NE(it, want.end())
          << label << " row " << i << ": column " << got[e].first
          << " is not a reference outcome";
      EXPECT_NEAR(got[e].second, it->second, 1e-12)
          << label << " row " << i << " column " << got[e].first;
    }
  }
}

// ------------------------------------------------ kernel vs the reference

TEST(ExactKernelTest, EveryRegistryMachineMatchesTheReferenceExpansion) {
  for (const std::string& name : deproto::api::registry_names()) {
    const ProtocolStateMachine machine = registry_machine(name);
    for (const std::size_t n : {1U, 2U, 7U}) {
      expect_kernel_matches_reference(machine, registry_options(name, n),
                                      name + " n=" + std::to_string(n));
    }
  }
}

TEST(ExactKernelTest, TtlTokenRoutingMatchesTheReferenceExpansion) {
  // settle_tokens only branches in TTL mode; no registry scenario routes
  // tokens that way.
  expect_kernel_matches_reference(
      deproto::core::synthesize(deproto::ode::catalog::invitation(0.4))
          .machine,
      ttl_options(10), "invitation ttl");
  expect_kernel_matches_reference(competing_tokens_machine(), ttl_options(8),
                                  "competing tokens ttl");
  ExactChainOptions directory = ttl_options(8);
  directory.tokens.mode = TokenRouting::Mode::Directory;
  expect_kernel_matches_reference(competing_tokens_machine(), directory,
                                  "competing tokens directory");
}

TEST(ExactKernelTest, LossyPushPullMatchesTheReferenceExpansion) {
  ExactChainOptions options = registry_options("endemic", 9);
  options.message_loss = 0.3;
  expect_kernel_matches_reference(registry_machine("endemic"), options,
                                  "endemic loss 0.3");
  options = registry_options("lv-majority", 9);
  options.message_loss = 0.2;
  expect_kernel_matches_reference(registry_machine("lv-majority"), options,
                                  "lv-majority loss 0.2");
}

TEST(ExactKernelTest, BranchBudgetMatchesTheReferenceCount) {
  // max_row_branches keeps its meaning: the largest row of the reference
  // fits exactly at its own branch count and not one below it.
  const ProtocolStateMachine machine = registry_machine("lv-majority");
  ExactChainOptions options = registry_options("lv-majority", 6);
  std::size_t worst = 0;
  const ExactChain chain(machine, options);
  for (std::size_t i = 0; i < chain.num_chain_states(); ++i) {
    worst = std::max(
        worst, reference_row(machine, options, chain.state(i)).branches);
  }
  options.max_row_branches = worst;
  EXPECT_NO_THROW(ExactChain(machine, options));
  options.max_row_branches = worst - 1;
  EXPECT_THROW(ExactChain(machine, options),
               deproto::analysis::ExactChainBudgetError);
}

// ------------------------------------- one period vs sim::CountSimulator

/// Upper 1e-6 tail of the chi-square law with `df` degrees of freedom
/// (Wilson-Hilferty). The replicate seeds are fixed, so the statistic is
/// deterministic and cannot flake; the far tail leaves room for sampling
/// noise, and a drifted kernel still overshoots it several-fold.
double chi_square_bound(std::size_t df) {
  constexpr double kZ = 4.7534;  // standard normal upper 1e-6 quantile
  const double k = static_cast<double>(df);
  const double a = 2.0 / (9.0 * k);
  return k * std::pow(1.0 - a + kZ * std::sqrt(a), 3.0);
}

/// Seed `start` into the count backend, run one period per replicate, and
/// chi-square the next-count histogram against the kernel row. Outcomes
/// with expected count below 5 are pooled into one bin (folded into the
/// smallest full bin if the pool itself stays below 5).
void expect_one_period_matches_row(const ProtocolStateMachine& machine,
                                   const ExactChainOptions& options,
                                   const std::vector<std::size_t>& start,
                                   const std::string& label) {
  constexpr std::size_t kReplicates = 20000;
  constexpr double kMinExpected = 5.0;
  const ExactChain chain(machine, options);
  const std::size_t row_index = *chain.index_of(start);
  const auto& row = chain.row(row_index);

  deproto::sim::CountSimOptions sim_options;
  sim_options.message_loss = options.message_loss;
  sim_options.tokens = options.tokens;
  std::map<std::size_t, std::size_t> observed;
  std::vector<std::size_t> counts(start.size());
  for (std::size_t r = 0; r < kReplicates; ++r) {
    deproto::sim::CountSimulator sim(options.n, machine, 9000 + r,
                                     sim_options);
    sim.seed_states(start);
    sim.run(1);
    for (std::size_t s = 0; s < counts.size(); ++s) counts[s] = sim.count(s);
    const std::optional<std::size_t> col = chain.index_of(counts);
    ASSERT_TRUE(col.has_value()) << label << ": off-lattice outcome";
    ++observed[*col];
  }

  std::vector<std::pair<double, double>> bins;  // (expected, observed)
  std::pair<double, double> pool{0.0, 0.0};
  std::size_t matched = 0;
  for (const auto& [col, prob] : row) {
    const auto it = observed.find(col);
    const double obs =
        it == observed.end() ? 0.0 : static_cast<double>(it->second);
    if (it != observed.end()) matched += it->second;
    const double expected = prob * static_cast<double>(kReplicates);
    if (expected < kMinExpected) {
      pool.first += expected;
      pool.second += obs;
    } else {
      bins.emplace_back(expected, obs);
    }
  }
  ASSERT_EQ(matched, kReplicates)
      << label << ": the sampler reached an outcome outside the row";
  ASSERT_FALSE(bins.empty()) << label;
  if (pool.first >= kMinExpected) {
    bins.push_back(pool);
  } else {
    auto smallest = std::min_element(bins.begin(), bins.end());
    smallest->first += pool.first;
    smallest->second += pool.second;
  }
  if (bins.size() < 2) return;  // one bin holds everything: nothing to fit
  double chi2 = 0.0;
  for (const auto& [expected, obs] : bins) {
    chi2 += (obs - expected) * (obs - expected) / expected;
  }
  EXPECT_LT(chi2, chi_square_bound(bins.size() - 1))
      << label << ": " << bins.size() << " bins";
}

TEST(ExactKernelTest, OnePeriodOfTheCountBackendFollowsTheKernelRow) {
  expect_one_period_matches_row(registry_machine("epidemic"),
                                registry_options("epidemic", 12), {7, 5},
                                "epidemic");
  expect_one_period_matches_row(registry_machine("epidemic-lossy"),
                                registry_options("epidemic-lossy", 12),
                                {6, 6}, "epidemic-lossy");
  expect_one_period_matches_row(registry_machine("lv-majority"),
                                registry_options("lv-majority", 12),
                                {5, 4, 3}, "lv-majority");
  ExactChainOptions lossy_endemic = registry_options("endemic", 12);
  lossy_endemic.message_loss = 0.1;
  expect_one_period_matches_row(registry_machine("endemic"), lossy_endemic,
                                {4, 5, 3}, "endemic loss 0.1");
  expect_one_period_matches_row(competing_tokens_machine(), ttl_options(12),
                                {6, 3, 3}, "competing tokens ttl");
}

}  // namespace
