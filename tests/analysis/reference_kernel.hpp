#pragma once

// Test-only reference for ExactChain's kernel: the original recursive
// branch-tree expansion, kept verbatim in spirit so the production
// builder (analysis/exact_chain.cpp: in-place scratch walk, memoised
// pmfs, lattice ranking) can be diffed against it row by row. Every
// binomial draw of sim::CountSimulator::execute_period becomes a branch
// over the full pmf support, each branch copies its state vectors, and
// the leaves are folded by count vector. Slow on purpose: it is the
// readable specification, not a code path anything ships.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "analysis/exact_chain.hpp"
#include "core/action.hpp"
#include "core/state_machine.hpp"
#include "core/transition_model.hpp"
#include "numerics/vector.hpp"

namespace deproto::testing {

/// Binomial pmf over 0..n with Rng::binomial's degenerate clamps, in log
/// space and normalized.
inline std::vector<double> reference_binomial_pmf(
    std::size_t n, double p, const std::vector<double>& log_fact) {
  std::vector<double> pmf(n + 1, 0.0);
  if (n == 0 || p <= 0.0) {
    pmf[0] = 1.0;
    return pmf;
  }
  if (p >= 1.0) {
    pmf[n] = 1.0;
    return pmf;
  }
  const double log_p = std::log(p);
  const double log_q = std::log1p(-p);
  double total = 0.0;
  for (std::size_t k = 0; k <= n; ++k) {
    const double log_mass = log_fact[n] - log_fact[k] - log_fact[n - k] +
                            static_cast<double>(k) * log_p +
                            static_cast<double>(n - k) * log_q;
    pmf[k] = std::exp(log_mass);
    total += pmf[k];
  }
  for (double& mass : pmf) mass /= total;
  return pmf;
}

struct ReferenceTokenBatch {
  std::size_t token_state;
  std::size_t to_state;
  std::size_t generated;
};

struct ReferencePushBatch {
  std::size_t target_state;
  std::size_t to_state;
  double coin_bias;
  std::uint64_t contacts;
};

/// One kernel row by recursive expansion; every leaf lands in `sink`.
struct ReferenceRowBuilder {
  using TokenBatch = ReferenceTokenBatch;
  using PushBatch = ReferencePushBatch;

  const core::ProtocolStateMachine& machine;
  const analysis::ExactChainOptions& options;
  const std::vector<double>& log_fact;
  const std::vector<std::size_t>& start;
  const std::vector<core::TransitionChannel>& channels;
  std::vector<std::pair<std::vector<std::size_t>, double>>& sink;
  std::size_t branches = 0;

  void charge(std::size_t cost) {
    branches += cost;
    if (branches > options.max_row_branches) {
      throw analysis::ExactChainBudgetError(
          "reference kernel row exceeds max_row_branches (" +
          std::to_string(options.max_row_branches) + ")");
    }
  }

  void expand_state(std::size_t s, std::vector<std::size_t> moved_out,
                    std::vector<std::size_t> moved_in,
                    std::vector<TokenBatch> tokens,
                    std::vector<PushBatch> pushes, double prob) {
    const std::size_t m = machine.num_states();
    if (s == m) {
      std::vector<std::size_t> stayers(m);
      for (std::size_t i = 0; i < m; ++i) {
        stayers[i] = start[i] - moved_out[i];
      }
      settle_tokens(0, tokens, pushes, std::move(stayers),
                    std::move(moved_out), std::move(moved_in), prob);
      return;
    }
    if (start[s] == 0) {
      expand_state(s + 1, std::move(moved_out), std::move(moved_in),
                   std::move(tokens), std::move(pushes), prob);
      return;
    }
    expand_actions(s, 0, start[s], std::move(moved_out), std::move(moved_in),
                   std::move(tokens), std::move(pushes), prob);
  }

  void expand_actions(std::size_t s, std::size_t pos, std::size_t remaining,
                      std::vector<std::size_t> moved_out,
                      std::vector<std::size_t> moved_in,
                      std::vector<TokenBatch> tokens,
                      std::vector<PushBatch> pushes, double prob) {
    const std::vector<std::size_t>& order = machine.actions_of(s);
    if (pos == order.size() || remaining == 0) {
      expand_state(s + 1, std::move(moved_out), std::move(moved_in),
                   std::move(tokens), std::move(pushes), prob);
      return;
    }
    const std::size_t idx = order[pos];
    const core::TransitionChannel& ch = channels[idx];
    const core::Action& action = machine.actions()[idx];

    if (ch.moves_executor) {
      const std::vector<double> pmf =
          reference_binomial_pmf(remaining, ch.fire_prob, log_fact);
      charge(pmf.size());
      for (std::size_t fired = 0; fired <= remaining; ++fired) {
        if (pmf[fired] == 0.0) continue;
        std::vector<std::size_t> out = moved_out;
        std::vector<std::size_t> in = moved_in;
        out[s] += fired;
        in[ch.to] += fired;
        expand_actions(s, pos + 1, remaining - fired, std::move(out),
                       std::move(in), tokens, pushes, prob * pmf[fired]);
      }
      return;
    }
    if (std::holds_alternative<core::TokenizingAction>(action)) {
      const std::vector<double> pmf =
          reference_binomial_pmf(remaining, ch.fire_prob, log_fact);
      charge(pmf.size());
      for (std::size_t generated = 0; generated <= remaining; ++generated) {
        if (pmf[generated] == 0.0) continue;
        std::vector<TokenBatch> next = tokens;
        if (generated > 0) {
          next.push_back(TokenBatch{ch.from, ch.to, generated});
        }
        expand_actions(s, pos + 1, remaining, moved_out, moved_in,
                       std::move(next), pushes, prob * pmf[generated]);
      }
      return;
    }
    const auto& push = std::get<core::PushAction>(action);
    const std::uint64_t contacts =
        static_cast<std::uint64_t>(remaining) * push.fanout;
    if (contacts > 0) {
      pushes.push_back(PushBatch{push.target_state, push.to_state,
                                 push.coin_bias, contacts});
    }
    expand_actions(s, pos + 1, remaining, std::move(moved_out),
                   std::move(moved_in), std::move(tokens), std::move(pushes),
                   prob);
  }

  void settle_tokens(std::size_t b, const std::vector<TokenBatch>& tokens,
                     const std::vector<PushBatch>& pushes,
                     std::vector<std::size_t> stayers,
                     std::vector<std::size_t> moved_out,
                     std::vector<std::size_t> moved_in, double prob) {
    if (b == tokens.size()) {
      settle_pushes(0, pushes, std::move(stayers), std::move(moved_out),
                    std::move(moved_in), prob);
      return;
    }
    const TokenBatch& batch = tokens[b];
    if (options.tokens.mode == sim::TokenRouting::Mode::Directory) {
      const std::size_t delivered =
          std::min(batch.generated, stayers[batch.token_state]);
      stayers[batch.token_state] -= delivered;
      moved_out[batch.token_state] += delivered;
      moved_in[batch.to_state] += delivered;
      settle_tokens(b + 1, tokens, pushes, std::move(stayers),
                    std::move(moved_out), std::move(moved_in), prob);
      return;
    }
    const double f = options.message_loss;
    const double q = static_cast<double>(start[batch.token_state]) /
                     static_cast<double>(options.n);
    double p_deliver = 0.0;
    double surviving = 1.0;
    for (unsigned hop = 0; hop < options.tokens.ttl; ++hop) {
      p_deliver += surviving * (1.0 - f) * q;
      surviving *= (1.0 - f) * (1.0 - q);
    }
    const std::vector<double> pmf =
        reference_binomial_pmf(batch.generated, p_deliver, log_fact);
    charge(pmf.size());
    const std::size_t cap =
        std::min(batch.generated, stayers[batch.token_state]);
    for (std::size_t delivered = 0; delivered <= cap; ++delivered) {
      double mass = pmf[delivered];
      if (delivered == cap) {
        for (std::size_t d = cap + 1; d <= batch.generated; ++d) {
          mass += pmf[d];
        }
      }
      if (mass == 0.0) continue;
      std::vector<std::size_t> st = stayers;
      std::vector<std::size_t> out = moved_out;
      std::vector<std::size_t> in = moved_in;
      st[batch.token_state] -= delivered;
      out[batch.token_state] += delivered;
      in[batch.to_state] += delivered;
      settle_tokens(b + 1, tokens, pushes, std::move(st), std::move(out),
                    std::move(in), prob * mass);
    }
  }

  void settle_pushes(std::size_t b, const std::vector<PushBatch>& pushes,
                     std::vector<std::size_t> stayers,
                     std::vector<std::size_t> moved_out,
                     std::vector<std::size_t> moved_in, double prob) {
    if (b == pushes.size() || options.n < 2) {
      const std::size_t m = machine.num_states();
      std::vector<std::size_t> counts(m);
      for (std::size_t i = 0; i < m; ++i) {
        counts[i] = start[i] - moved_out[i] + moved_in[i];
      }
      charge(1);
      sink.emplace_back(std::move(counts), prob);
      return;
    }
    const PushBatch& batch = pushes[b];
    const std::size_t candidates = stayers[batch.target_state];
    if (candidates == 0) {
      settle_pushes(b + 1, pushes, std::move(stayers), std::move(moved_out),
                    std::move(moved_in), prob);
      return;
    }
    const double per_contact = (1.0 - options.message_loss) *
                               batch.coin_bias /
                               static_cast<double>(options.n - 1);
    const double p_converted =
        1.0 -
        std::pow(1.0 - per_contact, static_cast<double>(batch.contacts));
    const std::vector<double> pmf =
        reference_binomial_pmf(candidates, p_converted, log_fact);
    charge(pmf.size());
    for (std::size_t converted = 0; converted <= candidates; ++converted) {
      if (pmf[converted] == 0.0) continue;
      std::vector<std::size_t> st = stayers;
      std::vector<std::size_t> out = moved_out;
      std::vector<std::size_t> in = moved_in;
      st[batch.target_state] -= converted;
      out[batch.target_state] += converted;
      in[batch.to_state] += converted;
      settle_pushes(b + 1, pushes, std::move(st), std::move(out),
                    std::move(in), prob * pmf[converted]);
    }
  }
};

/// A reference kernel row: the outcomes folded by next count vector, and
/// the branch count the row charged against max_row_branches.
struct ReferenceRow {
  std::map<std::vector<std::size_t>, double> outcomes;
  std::size_t branches = 0;
};

/// The kernel row of count vector `start` (summing to options.n). Uses
/// the same channel evaluation as ExactChain: core::transition_channels
/// at per-probe hit probabilities c_s / (n-1).
inline ReferenceRow reference_row(const core::ProtocolStateMachine& machine,
                                  const analysis::ExactChainOptions& options,
                                  const std::vector<std::size_t>& start) {
  std::vector<double> log_fact(options.n + 1, 0.0);
  for (std::size_t k = 2; k <= options.n; ++k) {
    log_fact[k] = log_fact[k - 1] + std::log(static_cast<double>(k));
  }
  const std::size_t m = machine.num_states();
  num::Vec hit(m, 0.0);
  if (options.n >= 2) {
    const double denom = static_cast<double>(options.n - 1);
    for (std::size_t s = 0; s < m; ++s) {
      hit[s] = static_cast<double>(start[s]) / denom;
    }
  }
  const std::vector<core::TransitionChannel> channels =
      core::transition_channels(machine, hit, options.message_loss);
  std::vector<std::pair<std::vector<std::size_t>, double>> sink;
  ReferenceRowBuilder walk{machine, options, log_fact, start, channels, sink};
  walk.expand_state(0, std::vector<std::size_t>(m, 0),
                    std::vector<std::size_t>(m, 0), {}, {}, 1.0);
  ReferenceRow row;
  row.branches = walk.branches;
  for (auto& [counts, prob] : sink) row.outcomes[counts] += prob;
  return row;
}

}  // namespace deproto::testing
