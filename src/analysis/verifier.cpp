#include "analysis/verifier.hpp"

#include <algorithm>
#include <exception>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/synthesis.hpp"
#include "net/net_sim.hpp"
#include "sim/group.hpp"

namespace deproto::analysis {

std::vector<Finding> lint_spec(const api::ScenarioSpec& spec) {
  std::vector<Finding> findings;

  if (!spec.initial_counts.empty()) {
    std::size_t total = 0;
    for (const std::size_t c : spec.initial_counts) total += c;
    if (total != spec.n) {
      findings.push_back(
          {Severity::Error, "spec.initial-counts", "initial_counts",
           "initial_counts sums to " + std::to_string(total) +
               " but n = " + std::to_string(spec.n),
           static_cast<double>(total)});
    }
  }

  const api::Backend backend = api::resolve_backend(spec.backend, spec.n);
  if (backend == api::Backend::Net) {
    if (spec.n > net::NetSimulator::kMaxNodes) {
      findings.push_back(
          {Severity::Error, "spec.net-population", "n",
           "net backend opens one UDP socket per node and is capped at " +
               std::to_string(net::NetSimulator::kMaxNodes) + " nodes, got " +
               std::to_string(spec.n),
           static_cast<double>(spec.n)});
    }
    if (spec.network.probe_timeout < 1.0) {
      findings.push_back(
          {Severity::Warning, "spec.net-probe-timeout",
           "network.probe_timeout",
           "probe timeout " + std::to_string(spec.network.probe_timeout) +
               " periods is under one period: pacing jitter alone will be "
               "declared message loss",
           spec.network.probe_timeout});
    }
  }

  if (spec.runtime.tokens.mode == sim::TokenRouting::Mode::RandomWalkTtl &&
      spec.runtime.tokens.ttl > spec.periods) {
    findings.push_back(
        {Severity::Warning, "spec.token-ttl", "runtime.token_ttl",
         "random-walk token TTL " + std::to_string(spec.runtime.tokens.ttl) +
             " exceeds the whole run of " + std::to_string(spec.periods) +
             " periods: tokens effectively never expire",
         static_cast<double>(spec.runtime.tokens.ttl)});
  }

  if (backend == api::Backend::Count && spec.faults.any()) {
    findings.push_back(
        {Severity::Warning, "spec.count-anonymous-faults", "faults",
         "count backend applies faults to anonymous count draws, not "
         "tracked nodes: per-node fault effects (host history, repeat "
         "victims) are approximated",
         0.0});
  }

  if (spec.runtime.message_loss > 0.0 && spec.synthesis.failure_rate == 0.0) {
    findings.push_back(
        {Severity::Info, "spec.uncompensated-loss", "runtime.message_loss",
         "runtime injects message loss " +
             std::to_string(spec.runtime.message_loss) +
             " but synthesis compensates for failure rate 0: the realized "
             "dynamics run slower than the source system",
         spec.runtime.message_loss});
  }

  return findings;
}

Report analyze_spec(const api::ScenarioSpec& spec,
                    const VerifyOptions& options) {
  Report report;
  report.scenario = spec.name;
  report.findings = lint_spec(spec);

  // Resolve + synthesize; breakage becomes error findings so a sweep over
  // many specs reports every broken one instead of throwing on the first.
  std::optional<core::SynthesisResult> synthesis;
  try {
    const ode::EquationSystem source = spec.resolve_source();
    try {
      synthesis.emplace(core::synthesize(source, spec.synthesis));
    } catch (const std::exception& e) {
      report.findings.push_back({Severity::Error, "synthesis.failed",
                                 "synthesis",
                                 std::string("synthesis failed: ") + e.what(),
                                 0.0});
    }
  } catch (const std::exception& e) {
    report.findings.push_back(
        {Severity::Error, "spec.source", "source",
         std::string("source system cannot be resolved: ") + e.what(), 0.0});
  }

  if (synthesis.has_value()) {
    MachineCheckOptions machine_options = options.machine;
    machine_options.failure_rate = spec.synthesis.failure_rate;
    machine_options.seeded_states.clear();
    // Explicit seeding pins the reachability analysis; an empty
    // initial_counts means an even spread over every state, which the
    // machine checks' empty default already models.
    for (std::size_t s = 0; s < spec.initial_counts.size(); ++s) {
      if (spec.initial_counts[s] > 0) {
        machine_options.seeded_states.push_back(s);
      }
    }
    const std::size_t states = synthesis->machine.num_states();
    const api::Backend backend = api::resolve_backend(spec.backend, spec.n);
    if (backend != api::Backend::Count && states > sim::Group::kMaxStates) {
      report.findings.push_back(
          {Severity::Error, "spec.node-states", "source",
           std::string(api::backend_name(backend)) +
               " backend keeps one byte of state per process, so at most " +
               std::to_string(sim::Group::kMaxStates) +
               " states fit; the machine has " + std::to_string(states) +
               " (the count backend has no such cap)",
           static_cast<double>(states)});
    }
    std::vector<Finding> more = analyze_machine(
        synthesis->machine, synthesis->source, machine_options);
    report.findings.insert(report.findings.end(),
                           std::make_move_iterator(more.begin()),
                           std::make_move_iterator(more.end()));

    if (options.exact) {
      // The exact pass runs at its own population size: rescale the
      // spec's seeding there (proportions preserved, seeded states stay
      // populated) and hand the machine over with the runtime's loss and
      // token routing. Fault plans are out of scope for the exact chain.
      const api::ScenarioSpec scaled = spec.scaled_to(options.exact_chain.n);
      more = check_exact(synthesis->machine, scaled.initial_counts,
                         options.exact_chain, spec.runtime.message_loss,
                         spec.runtime.tokens);
      report.findings.insert(report.findings.end(),
                             std::make_move_iterator(more.begin()),
                             std::make_move_iterator(more.end()));
    }
  }

  if (options.apply_suppressions && !spec.lint_suppress.empty()) {
    std::vector<Finding> kept;
    kept.reserve(report.findings.size());
    for (Finding& f : report.findings) {
      const bool muted =
          f.severity != Severity::Error &&
          std::find(spec.lint_suppress.begin(), spec.lint_suppress.end(),
                    f.rule) != spec.lint_suppress.end();
      if (muted) {
        ++report.suppressed;
      } else {
        kept.push_back(std::move(f));
      }
    }
    report.findings = std::move(kept);
  }

  return report;
}

}  // namespace deproto::analysis
