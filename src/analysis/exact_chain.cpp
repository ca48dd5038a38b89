#include "analysis/exact_chain.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <unordered_map>

#include "core/action.hpp"
#include "core/transition_model.hpp"

namespace deproto::analysis {

namespace {

// The kernel construction below is a symbolic replay of
// sim::CountSimulator::execute_period (fault-free, alive == n): every
// Rng::binomial draw becomes a branch over the full pmf support, every
// deterministic step stays deterministic, and the branch order matches
// the simulator's batch order exactly -- token settlements before push
// settlements, both in (state, action-position) order -- because the
// `stayers` clamp makes the order observable.

constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();

/// Binomial pmf over 0..n into `pmf`, with the same degenerate clamps as
/// Rng::binomial: p <= 0 puts all mass at 0, p >= 1 all mass at n.
/// Computed in log space (protects q^n from underflow at p near 1) and
/// normalized, so the masses sum to 1 to machine precision.
void binomial_pmf(std::size_t n, double p, const std::vector<double>& log_fact,
                  std::vector<double>& pmf) {
  pmf.assign(n + 1, 0.0);
  if (n == 0 || p <= 0.0) {
    pmf[0] = 1.0;
    return;
  }
  if (p >= 1.0) {
    pmf[n] = 1.0;
    return;
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
}

/// Each distinct (trials, p) pmf of one kernel row, computed once. The
/// map is node-based, so a returned reference stays valid while deeper
/// branches insert more pmfs.
class PmfCache {
 public:
  explicit PmfCache(const std::vector<double>& log_fact)
      : log_fact_(log_fact) {}

  const std::vector<double>& get(std::size_t trials, double p) {
    auto [it, inserted] =
        pmfs_.try_emplace(Key{trials, std::bit_cast<std::uint64_t>(p)});
    if (inserted) binomial_pmf(trials, p, log_fact_, it->second);
    return it->second;
  }
  void clear() { pmfs_.clear(); }

 private:
  struct Key {
    std::size_t trials;
    std::uint64_t p_bits;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const noexcept {
      const std::uint64_t mixed = k.p_bits ^ (k.trials * 0x9e3779b97f4a7c15ULL);
      return std::hash<std::uint64_t>{}(mixed);
    }
  };
  const std::vector<double>& log_fact_;
  std::unordered_map<Key, std::vector<double>, KeyHash> pmfs_;
};

/// Lexicographic rank of a count vector in the lattice of `num_states`
/// entries summing to `n`, by the combinatorial number system. At level
/// l, with R = n minus the entries before l still to place over the
/// k = num_states - l - 1 later entries, the vectors with a smaller
/// entry at l number C(R + k, k) - C(R - c_l + k, k) (hockey stick).
/// `table[k * (n + 1) + r]` holds C(r + k, k). The counts must be a
/// lattice point.
std::size_t lattice_rank(const std::vector<std::size_t>& table,
                         std::size_t num_states, std::size_t n,
                         const std::size_t* counts) {
  std::size_t rank = 0;
  std::size_t rest = n;
  for (std::size_t l = 0; l + 1 < num_states; ++l) {
    const std::size_t* row = table.data() + (num_states - l - 1) * (n + 1);
    rank += row[rest] - row[rest - counts[l]];
    rest -= counts[l];
  }
  return rank;
}

struct TokenBatch {
  std::size_t token_state;
  std::size_t to_state;
  std::size_t generated;
};

struct PushBatch {
  std::size_t target_state;
  std::size_t to_state;
  double coin_bias;
  std::uint64_t contacts;
};

/// Walks one kernel row's branch tree depth first. A branch mutates the
/// per-row scratch (moved_out / moved_in, the token and push batch
/// stacks) and undoes it on return, so nothing is copied per branch; the
/// `stayers` of phase C are start - moved_out, read off the scratch.
/// Leaves rank their count vector and accumulate into a dense per-row
/// array with a touched list.
class RowBuilder {
 public:
  RowBuilder(const core::ProtocolStateMachine& machine,
             const ExactChainOptions& options,
             const std::vector<double>& log_fact,
             const std::vector<std::size_t>& rank_table,
             std::size_t num_chain_states)
      : machine_(machine),
        options_(options),
        rank_table_(rank_table),
        m_(machine.num_states()),
        pmfs_(log_fact),
        moved_out_(m_, 0),
        moved_in_(m_, 0),
        leaf_(m_, 0),
        mass_(num_chain_states, 0.0),
        seen_(num_chain_states, 0) {}

  /// The sparse row of `start`, columns ascending.
  void build(const std::vector<std::size_t>& start,
             const std::vector<core::TransitionChannel>& channels,
             std::vector<std::pair<std::uint32_t, double>>& row) {
    start_ = start.data();
    channels_ = &channels;
    branches_ = 0;
    pmfs_.clear();
    expand_state(0, 1.0);

    std::sort(touched_.begin(), touched_.end());
    row.clear();
    row.reserve(touched_.size());
    for (const std::size_t col : touched_) {
      row.emplace_back(static_cast<std::uint32_t>(col), mass_[col]);
      mass_[col] = 0.0;
      seen_[col] = 0;
    }
    touched_.clear();
  }

 private:
  void charge(std::size_t cost) {
    branches_ += cost;
    if (branches_ > options_.max_row_branches) {
      throw ExactChainBudgetError(
          "ExactChain: kernel row outcome expansion exceeds max_row_branches "
          "(" +
          std::to_string(options_.max_row_branches) + ")");
    }
  }

  void move(std::size_t from, std::size_t to, std::size_t k) {
    moved_out_[from] += k;
    moved_in_[to] += k;
  }
  void unmove(std::size_t from, std::size_t to, std::size_t k) {
    moved_out_[from] -= k;
    moved_in_[to] -= k;
  }

  /// Phase A/B: walk machine states in order, branching over each
  /// stop-after-first-firing action chain.
  void expand_state(std::size_t s, double prob) {
    while (s < m_ && start_[s] == 0) ++s;
    if (s == m_) {
      settle_tokens(0, prob);
      return;
    }
    expand_actions(s, 0, start_[s], prob);
  }

  void expand_actions(std::size_t s, std::size_t pos, std::size_t remaining,
                      double prob) {
    const std::vector<std::size_t>& order = machine_.actions_of(s);
    if (pos == order.size() || remaining == 0) {
      expand_state(s + 1, prob);
      return;
    }
    const std::size_t idx = order[pos];
    const core::TransitionChannel& ch = (*channels_)[idx];
    const core::Action& action = machine_.actions()[idx];

    if (ch.moves_executor) {
      const std::vector<double>& pmf = pmfs_.get(remaining, ch.fire_prob);
      charge(pmf.size());
      for (std::size_t fired = 0; fired <= remaining; ++fired) {
        if (pmf[fired] == 0.0) continue;
        move(s, ch.to, fired);
        expand_actions(s, pos + 1, remaining - fired, prob * pmf[fired]);
        unmove(s, ch.to, fired);
      }
      return;
    }
    if (std::holds_alternative<core::TokenizingAction>(action)) {
      const std::vector<double>& pmf = pmfs_.get(remaining, ch.fire_prob);
      charge(pmf.size());
      for (std::size_t generated = 0; generated <= remaining; ++generated) {
        if (pmf[generated] == 0.0) continue;
        if (generated > 0) {
          tokens_.push_back(TokenBatch{ch.from, ch.to, generated});
        }
        expand_actions(s, pos + 1, remaining, prob * pmf[generated]);
        if (generated > 0) tokens_.pop_back();
      }
      return;
    }
    // Push: the contact count is deterministic given the executors still
    // in the chain; only the later conversion draw branches.
    const auto& push = std::get<core::PushAction>(action);
    const std::uint64_t contacts =
        static_cast<std::uint64_t>(remaining) * push.fanout;
    if (contacts > 0) {
      pushes_.push_back(PushBatch{push.target_state, push.to_state,
                                  push.coin_bias, contacts});
    }
    expand_actions(s, pos + 1, remaining, prob);
    if (contacts > 0) pushes_.pop_back();
  }

  std::size_t stayers(std::size_t s) const {
    return start_[s] - moved_out_[s];
  }

  /// Phase C, first half: token delivery in batch order. Directory mode
  /// is deterministic; TTL mode branches over the delivery binomial with
  /// the clamped tail aggregated (min(draw, stayers) merges every draw
  /// beyond the available stayers into one outcome).
  void settle_tokens(std::size_t b, double prob) {
    if (b == tokens_.size()) {
      settle_pushes(0, prob);
      return;
    }
    const TokenBatch& batch = tokens_[b];
    const std::size_t cap =
        std::min(batch.generated, stayers(batch.token_state));
    if (options_.tokens.mode == sim::TokenRouting::Mode::Directory) {
      move(batch.token_state, batch.to_state, cap);
      settle_tokens(b + 1, prob);
      unmove(batch.token_state, batch.to_state, cap);
      return;
    }
    const double f = options_.message_loss;
    const double q = static_cast<double>(start_[batch.token_state]) /
                     static_cast<double>(options_.n);
    double p_deliver = 0.0;
    double surviving = 1.0;
    for (unsigned hop = 0; hop < options_.tokens.ttl; ++hop) {
      p_deliver += surviving * (1.0 - f) * q;
      surviving *= (1.0 - f) * (1.0 - q);
    }
    const std::vector<double>& pmf = pmfs_.get(batch.generated, p_deliver);
    charge(pmf.size());
    for (std::size_t delivered = 0; delivered <= cap; ++delivered) {
      double mass = pmf[delivered];
      if (delivered == cap) {
        for (std::size_t d = cap + 1; d <= batch.generated; ++d) {
          mass += pmf[d];
        }
      }
      if (mass == 0.0) continue;
      move(batch.token_state, batch.to_state, delivered);
      settle_tokens(b + 1, prob * mass);
      unmove(batch.token_state, batch.to_state, delivered);
    }
  }

  /// Phase C, second half: push conversions in batch order, then the
  /// finished count vector lands in the row.
  void settle_pushes(std::size_t b, double prob) {
    // The simulator skips every push batch when n < 2.
    if (b == pushes_.size() || options_.n < 2) {
      leaf(prob);
      return;
    }
    const PushBatch& batch = pushes_[b];
    const std::size_t candidates = stayers(batch.target_state);
    if (candidates == 0) {
      settle_pushes(b + 1, prob);
      return;
    }
    const double per_contact = (1.0 - options_.message_loss) *
                               batch.coin_bias /
                               static_cast<double>(options_.n - 1);
    const double p_converted =
        1.0 -
        std::pow(1.0 - per_contact, static_cast<double>(batch.contacts));
    const std::vector<double>& pmf = pmfs_.get(candidates, p_converted);
    charge(pmf.size());
    for (std::size_t converted = 0; converted <= candidates; ++converted) {
      if (pmf[converted] == 0.0) continue;
      move(batch.target_state, batch.to_state, converted);
      settle_pushes(b + 1, prob * pmf[converted]);
      unmove(batch.target_state, batch.to_state, converted);
    }
  }

  void leaf(double prob) {
    charge(1);
    for (std::size_t i = 0; i < m_; ++i) {
      leaf_[i] = start_[i] - moved_out_[i] + moved_in_[i];
    }
    const std::size_t col =
        lattice_rank(rank_table_, m_, options_.n, leaf_.data());
    // A leaf claims its column even when its product underflowed to 0,
    // so the row's support is exactly the set of reachable outcomes.
    if (seen_[col] == 0) {
      seen_[col] = 1;
      touched_.push_back(col);
    }
    mass_[col] += prob;
  }

  const core::ProtocolStateMachine& machine_;
  const ExactChainOptions& options_;
  const std::vector<std::size_t>& rank_table_;
  const std::size_t m_;
  PmfCache pmfs_;
  // The row being built; valid only inside build().
  const std::size_t* start_ = nullptr;
  const std::vector<core::TransitionChannel>* channels_ = nullptr;
  std::size_t branches_ = 0;
  std::vector<std::size_t> moved_out_;
  std::vector<std::size_t> moved_in_;
  std::vector<TokenBatch> tokens_;
  std::vector<PushBatch> pushes_;
  std::vector<std::size_t> leaf_;
  std::vector<double> mass_;
  std::vector<std::uint8_t> seen_;
  std::vector<std::size_t> touched_;
};

/// The transient block Q of the kernel in CSR form, built once per solve
/// so the Gauss-Seidel sweeps allocate nothing: transient states in chain
/// order (the sweep order), each row's off-diagonal transient entries
/// with slot-mapped columns, and 1 / (1 - P_vv). For the absorption solve
/// (`recurrent` non-empty) it also holds each transient state's one-step
/// mass into recurrent class recurrent[k], at absorbed[slot * K + k].
struct TransientBlock {
  std::vector<std::size_t> states;  ///< slot -> chain state
  std::vector<std::size_t> slot;    ///< chain state -> slot, or kNone
  std::vector<std::size_t> row_begin;
  std::vector<std::size_t> cols;
  std::vector<double> probs;
  std::vector<double> inv_stay;
  std::vector<double> absorbed;
};

TransientBlock transient_block(
    const std::vector<std::vector<std::pair<std::uint32_t, double>>>& rows,
    const std::vector<CommunicatingClass>& classes,
    const std::vector<std::size_t>& class_of,
    const std::vector<std::size_t>& recurrent) {
  TransientBlock block;
  block.slot.assign(rows.size(), kNone);
  for (std::size_t v = 0; v < rows.size(); ++v) {
    if (!classes[class_of[v]].recurrent) {
      block.slot[v] = block.states.size();
      block.states.push_back(v);
    }
  }
  std::vector<std::size_t> target(classes.size(), kNone);
  for (std::size_t k = 0; k < recurrent.size(); ++k) target[recurrent[k]] = k;

  const std::size_t num_transient = block.states.size();
  block.row_begin.reserve(num_transient + 1);
  block.row_begin.push_back(0);
  block.inv_stay.resize(num_transient);
  block.absorbed.assign(num_transient * recurrent.size(), 0.0);
  for (std::size_t t = 0; t < num_transient; ++t) {
    const std::size_t v = block.states[t];
    double self = 0.0;
    for (const auto& [w, prob] : rows[v]) {
      if (w == v) {
        self = prob;
      } else if (block.slot[w] != kNone) {
        block.cols.push_back(block.slot[w]);
        block.probs.push_back(prob);
      } else if (target[class_of[w]] != kNone) {
        block.absorbed[t * recurrent.size() + target[class_of[w]]] += prob;
      }
    }
    block.inv_stay[t] = 1.0 / (1.0 - self);
    block.row_begin.push_back(block.cols.size());
  }
  return block;
}

}  // namespace

std::size_t ExactChain::state_space_size(std::size_t num_states,
                                         std::size_t n) {
  if (num_states == 0) return 0;
  // C(n + k, k) built by the exact integer recurrence r <- r*(n+k)/k,
  // saturating instead of overflowing.
  std::size_t result = 1;
  for (std::size_t k = 1; k + 1 <= num_states; ++k) {
    if (result > std::numeric_limits<std::size_t>::max() / (n + k)) {
      return std::numeric_limits<std::size_t>::max();
    }
    result = result * (n + k) / k;
  }
  return result;
}

ExactChain::ExactChain(const core::ProtocolStateMachine& machine,
                       ExactChainOptions options)
    : options_(options), num_machine_states_(machine.num_states()) {
  if (options_.n == 0) {
    throw std::invalid_argument("ExactChain: n == 0");
  }
  if (num_machine_states_ == 0) {
    throw std::invalid_argument("ExactChain: machine has no states");
  }
  if (!(options_.message_loss >= 0.0 && options_.message_loss <= 1.0)) {
    throw std::invalid_argument("ExactChain: bad message_loss");
  }
  const std::size_t lattice =
      state_space_size(num_machine_states_, options_.n);
  if (lattice > options_.max_states) {
    throw ExactChainBudgetError(
        "ExactChain: count-vector lattice has " + std::to_string(lattice) +
        " states, exceeding max_states (" +
        std::to_string(options_.max_states) + ")");
  }
  enumerate_states();
  build_kernel(machine);
  compute_classes();
}

void ExactChain::enumerate_states() {
  // Lexicographic enumeration, so a state's index is its lattice rank.
  const std::size_t n = options_.n;
  std::vector<std::size_t> counts(num_machine_states_, 0);
  const auto fill = [&](auto&& self, std::size_t level,
                        std::size_t used) -> void {
    if (level + 1 == num_machine_states_) {
      counts[level] = n - used;
      states_.push_back(counts);
      counts[level] = 0;
      return;
    }
    for (std::size_t c = 0; c + used <= n; ++c) {
      counts[level] = c;
      self(self, level + 1, used + c);
    }
    counts[level] = 0;
  };
  states_.reserve(state_space_size(num_machine_states_, n));
  fill(fill, 0, 0);

  // C(r + k, k) by Pascal's rule. Every entry is at most the lattice
  // size C(n + S - 1, S - 1), which already passed the max_states budget.
  rank_table_.assign(num_machine_states_ * (n + 1), 1);
  for (std::size_t k = 1; k < num_machine_states_; ++k) {
    for (std::size_t r = 1; r <= n; ++r) {
      rank_table_[k * (n + 1) + r] =
          rank_table_[(k - 1) * (n + 1) + r] + rank_table_[k * (n + 1) + r - 1];
    }
  }
}

std::optional<std::size_t> ExactChain::index_of(
    const std::vector<std::size_t>& counts) const {
  if (counts.size() != num_machine_states_) return std::nullopt;
  // Fail closed before ranking: every entry within n and the running sum
  // checked against n - total, so no wrapped sum can reach the ranker.
  std::size_t total = 0;
  for (const std::size_t c : counts) {
    if (c > options_.n - total) return std::nullopt;
    total += c;
  }
  if (total != options_.n) return std::nullopt;
  return lattice_rank(rank_table_, num_machine_states_, options_.n,
                      counts.data());
}

std::size_t ExactChain::seeded_index(
    const std::vector<std::size_t>& counts) const {
  if (counts.size() > num_machine_states_) {
    throw std::invalid_argument("ExactChain::seeded_index: too many states");
  }
  std::size_t total = 0;
  for (const std::size_t c : counts) total += c;
  if (total > options_.n) {
    throw std::invalid_argument(
        "ExactChain::seeded_index: counts exceed population");
  }
  std::vector<std::size_t> full(num_machine_states_, 0);
  for (std::size_t s = 0; s < counts.size(); ++s) full[s] = counts[s];
  full[0] += options_.n - total;
  return *index_of(full);
}

void ExactChain::build_kernel(const core::ProtocolStateMachine& machine) {
  std::vector<double> log_fact(options_.n + 1, 0.0);
  for (std::size_t k = 2; k <= options_.n; ++k) {
    log_fact[k] = log_fact[k - 1] + std::log(static_cast<double>(k));
  }
  rows_.resize(states_.size());
  RowBuilder builder(machine, options_, log_fact, rank_table_,
                     states_.size());
  num::Vec hit(num_machine_states_, 0.0);
  for (std::size_t r = 0; r < states_.size(); ++r) {
    const std::vector<std::size_t>& start = states_[r];
    if (options_.n >= 2) {
      const double denom = static_cast<double>(options_.n - 1);
      for (std::size_t s = 0; s < num_machine_states_; ++s) {
        hit[s] = static_cast<double>(start[s]) / denom;
      }
    }
    const std::vector<core::TransitionChannel> channels =
        core::transition_channels(machine, hit, options_.message_loss);
    builder.build(start, channels, rows_[r]);
  }
}

void ExactChain::compute_classes() {
  // Iterative Tarjan over the kernel's support digraph.
  const std::size_t m = states_.size();
  std::vector<std::size_t> index(m, kNone);
  std::vector<std::size_t> lowlink(m, 0);
  std::vector<bool> on_stack(m, false);
  std::vector<std::size_t> stack;
  std::vector<std::size_t> scc_of(m, kNone);
  std::size_t next_index = 0;
  std::size_t num_sccs = 0;

  struct Frame {
    std::size_t v;
    std::size_t edge;
  };
  std::vector<Frame> frames;
  for (std::size_t root = 0; root < m; ++root) {
    if (index[root] != kNone) continue;
    frames.push_back(Frame{root, 0});
    index[root] = lowlink[root] = next_index++;
    stack.push_back(root);
    on_stack[root] = true;
    while (!frames.empty()) {
      Frame& fr = frames.back();
      const std::size_t v = fr.v;
      if (fr.edge < rows_[v].size()) {
        const std::size_t w = rows_[v][fr.edge].first;
        ++fr.edge;
        if (index[w] == kNone) {
          index[w] = lowlink[w] = next_index++;
          stack.push_back(w);
          on_stack[w] = true;
          frames.push_back(Frame{w, 0});
        } else if (on_stack[w]) {
          lowlink[v] = std::min(lowlink[v], index[w]);
        }
        continue;
      }
      if (lowlink[v] == index[v]) {
        for (;;) {
          const std::size_t w = stack.back();
          stack.pop_back();
          on_stack[w] = false;
          scc_of[w] = num_sccs;
          if (w == v) break;
        }
        ++num_sccs;
      }
      frames.pop_back();
      if (!frames.empty()) {
        lowlink[frames.back().v] =
            std::min(lowlink[frames.back().v], lowlink[v]);
      }
    }
  }

  std::vector<CommunicatingClass> raw(num_sccs);
  std::vector<bool> closed(num_sccs, true);
  for (std::size_t v = 0; v < m; ++v) {
    raw[scc_of[v]].members.push_back(v);
    for (const auto& [w, prob] : rows_[v]) {
      (void)prob;
      if (scc_of[w] != scc_of[v]) closed[scc_of[v]] = false;
    }
  }
  for (std::size_t c = 0; c < num_sccs; ++c) {
    std::sort(raw[c].members.begin(), raw[c].members.end());
    raw[c].recurrent = closed[c];
    raw[c].absorbing = closed[c] && raw[c].members.size() == 1;
  }
  std::sort(raw.begin(), raw.end(),
            [](const CommunicatingClass& a, const CommunicatingClass& b) {
              return a.members.front() < b.members.front();
            });
  classes_ = std::move(raw);
  class_of_.assign(m, 0);
  for (std::size_t c = 0; c < classes_.size(); ++c) {
    for (const std::size_t v : classes_[c].members) class_of_[v] = c;
  }
}

std::vector<std::size_t> ExactChain::recurrent_classes() const {
  std::vector<std::size_t> out;
  for (std::size_t c = 0; c < classes_.size(); ++c) {
    if (classes_[c].recurrent) out.push_back(c);
  }
  return out;
}

std::vector<double> ExactChain::absorption_probabilities(
    std::size_t start) const {
  std::vector<double> result(classes_.size(), 0.0);
  if (classes_[class_of_.at(start)].recurrent) {
    result[class_of_[start]] = 1.0;
    return result;
  }
  const std::vector<std::size_t> recurrent = recurrent_classes();
  // A finite chain leaves its transient states almost surely, so a lone
  // recurrent class absorbs everything.
  if (recurrent.size() == 1) {
    result[recurrent[0]] = 1.0;
    return result;
  }

  // Gauss-Seidel on u_k(i) = sum_j P(i,j) [j transient ? u_k(j) : 1{class
  // j == k}] over the transient block, all target classes swept together.
  // (I - Q) is a strictly substochastic M-matrix, so the sweeps converge.
  const TransientBlock block =
      transient_block(rows_, classes_, class_of_, recurrent);
  const std::size_t num_targets = recurrent.size();
  const std::size_t num_transient = block.states.size();
  std::vector<double> u(num_transient * num_targets, 0.0);
  std::vector<double> acc(num_targets, 0.0);
  constexpr std::size_t kMaxSweeps = 200000;
  constexpr double kTol = 1e-12;
  for (std::size_t sweep = 0; sweep < kMaxSweeps; ++sweep) {
    double worst = 0.0;
    for (std::size_t t = 0; t < num_transient; ++t) {
      double* ut = u.data() + t * num_targets;
      std::copy_n(block.absorbed.data() + t * num_targets, num_targets,
                  acc.data());
      for (std::size_t e = block.row_begin[t]; e < block.row_begin[t + 1];
           ++e) {
        const double prob = block.probs[e];
        const double* uw = u.data() + block.cols[e] * num_targets;
        for (std::size_t k = 0; k < num_targets; ++k) acc[k] += prob * uw[k];
      }
      for (std::size_t k = 0; k < num_targets; ++k) {
        const double next = acc[k] * block.inv_stay[t];
        worst = std::max(worst, std::abs(next - ut[k]));
        ut[k] = next;
      }
    }
    if (worst < kTol) break;
  }
  const double* us = u.data() + block.slot[start] * num_targets;
  for (std::size_t k = 0; k < num_targets; ++k) {
    result[recurrent[k]] = us[k];
  }
  return result;
}

double ExactChain::expected_absorption_time(std::size_t start) const {
  if (classes_[class_of_.at(start)].recurrent) return 0.0;
  // Gauss-Seidel on t(i) = 1 + sum_{j transient} P(i,j) t(j).
  const TransientBlock block = transient_block(rows_, classes_, class_of_, {});
  const std::size_t num_transient = block.states.size();
  std::vector<double> t(num_transient, 0.0);
  constexpr std::size_t kMaxSweeps = 200000;
  constexpr double kTol = 1e-10;
  for (std::size_t sweep = 0; sweep < kMaxSweeps; ++sweep) {
    double worst = 0.0;
    for (std::size_t i = 0; i < num_transient; ++i) {
      double acc = 1.0;
      for (std::size_t e = block.row_begin[i]; e < block.row_begin[i + 1];
           ++e) {
        acc += block.probs[e] * t[block.cols[e]];
      }
      const double next = acc * block.inv_stay[i];
      worst = std::max(worst, std::abs(next - t[i]));
      t[i] = next;
    }
    if (worst < kTol) break;
  }
  return t[block.slot[start]];
}

std::vector<double> ExactChain::stationary_distribution() const {
  const std::vector<std::size_t> recurrent = recurrent_classes();
  if (recurrent.size() != 1) {
    throw std::logic_error(
        "ExactChain::stationary_distribution: chain has " +
        std::to_string(recurrent.size()) +
        " recurrent classes; the stationary distribution is not unique");
  }
  const std::vector<std::size_t>& members = classes_[recurrent[0]].members;
  const std::size_t m = states_.size();
  std::vector<std::size_t> slot(m, kNone);
  for (std::size_t i = 0; i < members.size(); ++i) slot[members[i]] = i;

  // Damped power iteration pi <- (pi + pi P) / 2: the averaging kills any
  // periodicity (deterministic coin_bias == 1 cycles are legal machines)
  // while preserving the fixed point.
  std::vector<double> pi(members.size(),
                         1.0 / static_cast<double>(members.size()));
  std::vector<double> next(members.size(), 0.0);
  constexpr std::size_t kMaxIters = 500000;
  constexpr double kTol = 1e-13;
  for (std::size_t iter = 0; iter < kMaxIters; ++iter) {
    std::fill(next.begin(), next.end(), 0.0);
    for (std::size_t i = 0; i < members.size(); ++i) {
      const double mass = pi[i];
      if (mass == 0.0) continue;
      for (const auto& [w, prob] : rows_[members[i]]) {
        next[slot[w]] += mass * prob;
      }
    }
    double delta = 0.0;
    double total = 0.0;
    for (std::size_t i = 0; i < members.size(); ++i) {
      next[i] = 0.5 * (next[i] + pi[i]);
      total += next[i];
    }
    for (std::size_t i = 0; i < members.size(); ++i) {
      next[i] /= total;
      delta += std::abs(next[i] - pi[i]);
    }
    pi.swap(next);
    if (delta < kTol) break;
  }
  std::vector<double> dist(m, 0.0);
  for (std::size_t i = 0; i < members.size(); ++i) dist[members[i]] = pi[i];
  return dist;
}

num::Vec ExactChain::mean_fractions(const std::vector<double>& dist) const {
  num::Vec mean(num_machine_states_, 0.0);
  for (std::size_t i = 0; i < states_.size(); ++i) {
    if (dist[i] == 0.0) continue;
    for (std::size_t s = 0; s < num_machine_states_; ++s) {
      mean[s] += dist[i] * static_cast<double>(states_[i][s]);
    }
  }
  for (std::size_t s = 0; s < num_machine_states_; ++s) {
    mean[s] /= static_cast<double>(options_.n);
  }
  return mean;
}

num::Vec ExactChain::count_stddev(const std::vector<double>& dist) const {
  num::Vec mean(num_machine_states_, 0.0);
  num::Vec second(num_machine_states_, 0.0);
  for (std::size_t i = 0; i < states_.size(); ++i) {
    if (dist[i] == 0.0) continue;
    for (std::size_t s = 0; s < num_machine_states_; ++s) {
      const auto c = static_cast<double>(states_[i][s]);
      mean[s] += dist[i] * c;
      second[s] += dist[i] * c * c;
    }
  }
  num::Vec stddev(num_machine_states_, 0.0);
  for (std::size_t s = 0; s < num_machine_states_; ++s) {
    stddev[s] = std::sqrt(std::max(0.0, second[s] - mean[s] * mean[s]));
  }
  return stddev;
}

}  // namespace deproto::analysis
