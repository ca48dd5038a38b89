// The static protocol verifier: every machine-level rule firing on a
// minimal hand-built bad machine, every spec-level lint rule firing on a
// minimal bad spec, the suppression contract, the all-registry lint gate,
// and the RuntimeOptions::verify_static Experiment pre-flight.

#include "analysis/verifier.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis/machine_checks.hpp"
#include "api/experiment.hpp"
#include "api/registry.hpp"
#include "core/action.hpp"
#include "core/state_machine.hpp"
#include "core/synthesis.hpp"
#include "ode/parser.hpp"

namespace {

using deproto::analysis::Finding;
using deproto::analysis::MachineCheckOptions;
using deproto::analysis::Report;
using deproto::analysis::Severity;
using deproto::api::ScenarioSpec;
using deproto::core::ProtocolStateMachine;

ProtocolStateMachine flip_machine(double bias) {
  ProtocolStateMachine machine({"x", "y"});
  deproto::core::FlippingAction flip;
  flip.from_state = 0;
  flip.to_state = 1;
  flip.coin_bias = bias;
  flip.rate_constant = bias;
  machine.add_action(flip);
  return machine;
}

bool has_rule(const std::vector<Finding>& findings, const std::string& rule,
              Severity severity) {
  for (const Finding& f : findings) {
    if (f.rule == rule && f.severity == severity) return true;
  }
  return false;
}

// ---------------------------------------------------------------- mass.*

TEST(MachineChecksTest, MassLeakCoinBiasAboveOneIsAnError) {
  const auto findings = deproto::analysis::check_mass(flip_machine(1.5), {});
  ASSERT_TRUE(has_rule(findings, "mass.action-bias", Severity::Error));
  EXPECT_DOUBLE_EQ(findings.front().value, 1.5);
}

TEST(MachineChecksTest, NegativeCoinBiasIsAnError) {
  EXPECT_TRUE(has_rule(deproto::analysis::check_mass(flip_machine(-0.1), {}),
                       "mass.action-bias", Severity::Error));
}

TEST(MachineChecksTest, StateBudgetOverOneIsAWarning) {
  ProtocolStateMachine machine({"x", "y", "z"});
  deproto::core::FlippingAction flip;
  flip.from_state = 0;
  flip.coin_bias = 0.7;
  flip.to_state = 1;
  machine.add_action(flip);
  flip.to_state = 2;
  machine.add_action(flip);
  const auto findings = deproto::analysis::check_mass(machine, {});
  ASSERT_TRUE(has_rule(findings, "mass.state-budget", Severity::Warning));
  EXPECT_FALSE(has_rule(findings, "mass.action-bias", Severity::Error))
      << "each bias is individually fine; only their sum breaches";
}

TEST(MachineChecksTest, CleanMachinePassesMassChecks) {
  EXPECT_TRUE(deproto::analysis::check_mass(flip_machine(0.4), {}).empty());
}

// --------------------------------------------------------------- reach.*

TEST(MachineChecksTest, StateNoActionEntersIsDead) {
  ProtocolStateMachine machine({"x", "y", "z"});
  deproto::core::FlippingAction flip;
  flip.from_state = 0;
  flip.to_state = 1;
  flip.coin_bias = 0.5;
  machine.add_action(flip);
  MachineCheckOptions options;
  options.seeded_states = {0};
  const auto findings =
      deproto::analysis::check_reachability(machine, options);
  EXPECT_TRUE(has_rule(findings, "reach.dead-state", Severity::Error));
}

TEST(MachineChecksTest, EnterableButUnseededStatesAreUnreachable) {
  // x -> nothing; y <-> z feed only each other, and only x is seeded, so
  // the y/z cycle can never acquire mass.
  ProtocolStateMachine machine({"x", "y", "z"});
  deproto::core::FlippingAction flip;
  flip.coin_bias = 0.5;
  flip.from_state = 2;
  flip.to_state = 1;
  machine.add_action(flip);
  flip.from_state = 1;
  flip.to_state = 2;
  machine.add_action(flip);
  MachineCheckOptions options;
  options.seeded_states = {0};
  const auto findings =
      deproto::analysis::check_reachability(machine, options);
  EXPECT_TRUE(has_rule(findings, "reach.unreachable", Severity::Warning));
  EXPECT_FALSE(has_rule(findings, "reach.dead-state", Severity::Error));
}

TEST(MachineChecksTest, UnreachableAbsorbingStateGetsItsOwnRule) {
  // x -> y is gated on z being occupied, y -> z is free; nothing is ever
  // in z at the start, so the absorbing z (and y) never fill.
  ProtocolStateMachine machine({"x", "y", "z"});
  deproto::core::SamplingAction sample;
  sample.from_state = 0;
  sample.to_state = 1;
  sample.target_states = {2};
  sample.coin_bias = 0.5;
  machine.add_action(sample);
  deproto::core::FlippingAction flip;
  flip.from_state = 1;
  flip.to_state = 2;
  flip.coin_bias = 0.5;
  machine.add_action(flip);
  MachineCheckOptions options;
  options.seeded_states = {0};
  const auto findings =
      deproto::analysis::check_reachability(machine, options);
  EXPECT_TRUE(
      has_rule(findings, "reach.absorbing-unreachable", Severity::Warning));
  EXPECT_TRUE(has_rule(findings, "reach.unreachable", Severity::Warning));
}

TEST(MachineChecksTest, ReachableAbsorbingStateIsInfoOnly) {
  const auto findings =
      deproto::analysis::check_reachability(flip_machine(0.4), {});
  ASSERT_TRUE(has_rule(findings, "reach.absorbing", Severity::Info));
  for (const Finding& f : findings) {
    EXPECT_EQ(f.severity, Severity::Info);
  }
}

// ---------------------------------------------------------- mean-field.*

TEST(MachineChecksTest, TamperedNormalizingPBreachesResidual) {
  const deproto::ode::EquationSystem source =
      deproto::ode::parse_system("x' = -0.5*x*y\ny' = 0.5*x*y\n");
  deproto::core::SynthesisResult synthesis = deproto::core::synthesize(source);
  const auto clean = deproto::analysis::check_mean_field(
      synthesis.machine, synthesis.source, {});
  ASSERT_TRUE(has_rule(clean, "mean-field.residual", Severity::Info));

  // The machine now claims a time dilation it does not implement: the
  // re-extracted ODE is off from p * source by a factor of 2.
  synthesis.machine.set_normalizing_p(synthesis.machine.normalizing_p() *
                                      2.0);
  const auto breached = deproto::analysis::check_mean_field(
      synthesis.machine, synthesis.source, {});
  ASSERT_TRUE(has_rule(breached, "mean-field.residual", Severity::Error));
  EXPECT_GT(breached.front().value, 0.1);
}

TEST(MachineChecksTest, StateCountMismatchIsAShapeError) {
  const deproto::ode::EquationSystem source({"x", "y", "z"});
  EXPECT_TRUE(has_rule(
      deproto::analysis::check_mean_field(flip_machine(0.4), source, {}),
      "mean-field.shape", Severity::Error));
}

// --------------------------------------------------------- fixed-point.*

TEST(MachineChecksTest, EpidemicFixedPointsAreClassified) {
  const deproto::ode::EquationSystem source =
      deproto::ode::parse_system("x' = -x*y\ny' = x*y\n");
  const deproto::core::SynthesisResult synthesis =
      deproto::core::synthesize(source);
  const auto findings =
      deproto::analysis::check_fixed_points(synthesis.machine, {});
  EXPECT_TRUE(
      has_rule(findings, "fixed-point.classified", Severity::Info));
  EXPECT_FALSE(has_rule(findings, "fixed-point.none", Severity::Warning));
}

TEST(MachineChecksTest, FixedPointPassCanBeDisabled) {
  const deproto::ode::EquationSystem source =
      deproto::ode::parse_system("x' = -x*y\ny' = x*y\n");
  MachineCheckOptions options;
  options.fixed_points = false;
  EXPECT_TRUE(deproto::analysis::check_fixed_points(
                  deproto::core::synthesize(source).machine, options)
                  .empty());
}

// ----------------------------------------------------------------- spec.*

ScenarioSpec epidemic_spec() {
  ScenarioSpec spec;
  spec.name = "test-epidemic";
  spec.source.catalog = "epidemic";
  spec.n = 100;
  spec.periods = 50;
  spec.initial_counts = {99, 1};
  return spec;
}

TEST(VerifierTest, InitialCountsMismatchIsAnError) {
  ScenarioSpec spec = epidemic_spec();
  spec.initial_counts = {10, 1};
  const Report report = deproto::analysis::analyze_spec(spec);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(
      has_rule(report.findings, "spec.initial-counts", Severity::Error));
}

TEST(VerifierTest, NetBackendPopulationCapIsAnError) {
  ScenarioSpec spec = epidemic_spec();
  spec.backend = deproto::api::Backend::Net;
  spec.n = 5000;
  spec.initial_counts = {4999, 1};
  const Report report = deproto::analysis::analyze_spec(spec);
  EXPECT_TRUE(
      has_rule(report.findings, "spec.net-population", Severity::Error));
  EXPECT_TRUE(has_rule(report.findings, "spec.net-probe-timeout",
                       Severity::Warning))
      << "the default 0.5-period probe timeout is under one period";
}

TEST(VerifierTest, PerNodeStateCapIsAnErrorOnEveryPerNodeBackend) {
  // A 256-state ring of flips, s_i' = -s_i + s_(i-1): one state more than
  // sim::Group holds. Every per-node backend would refuse it at launch, so
  // the lint must refuse it first; the count backend has no such cap.
  std::string ring;
  for (int i = 0; i < 256; ++i) {
    ring += "s" + std::to_string(i) + "' = -s" + std::to_string(i) + " + s" +
            std::to_string((i + 255) % 256) + "\n";
  }
  ScenarioSpec spec;
  spec.name = "test-wide-ring";
  spec.source.ode_text = ring;
  spec.n = 64;
  spec.periods = 10;
  // The cap needs only the synthesized state count; skip the multi-start
  // equilibrium search, which dominates on 256 dimensions.
  deproto::analysis::VerifyOptions options;
  options.machine.fixed_points = false;
  const auto analyze = [&] {
    return deproto::analysis::analyze_spec(spec, options);
  };
  for (const auto backend :
       {deproto::api::Backend::Sync, deproto::api::Backend::Event,
        deproto::api::Backend::Net, deproto::api::Backend::Auto}) {
    spec.backend = backend;
    const Report report = analyze();
    EXPECT_FALSE(report.ok()) << deproto::api::backend_name(backend);
    EXPECT_TRUE(
        has_rule(report.findings, "spec.node-states", Severity::Error))
        << deproto::api::backend_name(backend);
  }
  spec.backend = deproto::api::Backend::Count;
  EXPECT_FALSE(
      has_rule(analyze().findings, "spec.node-states", Severity::Error));
  // Auto at a population that resolves to the count backend: no cap.
  spec.backend = deproto::api::Backend::Auto;
  spec.n = deproto::api::kAutoBackendCrossoverN;
  EXPECT_FALSE(
      has_rule(analyze().findings, "spec.node-states", Severity::Error));
}

TEST(VerifierTest, NodeStateCapAdmitsTheWidestGroup) {
  // 255 states fit one byte per process: no error on a per-node backend.
  std::string ring;
  for (int i = 0; i < 255; ++i) {
    ring += "s" + std::to_string(i) + "' = -s" + std::to_string(i) + " + s" +
            std::to_string((i + 254) % 255) + "\n";
  }
  ScenarioSpec spec;
  spec.name = "test-widest-ring";
  spec.source.ode_text = ring;
  spec.backend = deproto::api::Backend::Event;
  spec.n = 64;
  spec.periods = 10;
  deproto::analysis::VerifyOptions options;
  options.machine.fixed_points = false;  // as above
  EXPECT_FALSE(has_rule(deproto::analysis::analyze_spec(spec, options).findings,
                        "spec.node-states", Severity::Error));
}

TEST(VerifierTest, TokenTtlBeyondRunLengthIsAWarning) {
  ScenarioSpec spec = epidemic_spec();
  spec.runtime.tokens.mode =
      deproto::sim::TokenRouting::Mode::RandomWalkTtl;
  spec.runtime.tokens.ttl = 500;
  EXPECT_TRUE(has_rule(deproto::analysis::analyze_spec(spec).findings,
                       "spec.token-ttl", Severity::Warning));
}

TEST(VerifierTest, CountBackendWithFaultsIsAWarning) {
  ScenarioSpec spec = epidemic_spec();
  spec.backend = deproto::api::Backend::Count;
  spec.faults.crash_recovery.crash_prob = 0.01;
  spec.faults.crash_recovery.mean_downtime_periods = 5.0;
  EXPECT_TRUE(has_rule(deproto::analysis::analyze_spec(spec).findings,
                       "spec.count-anonymous-faults", Severity::Warning));
}

TEST(VerifierTest, UncompensatedLossIsInfo) {
  ScenarioSpec spec = epidemic_spec();
  spec.runtime.message_loss = 0.1;
  EXPECT_TRUE(has_rule(deproto::analysis::analyze_spec(spec).findings,
                       "spec.uncompensated-loss", Severity::Info));
}

TEST(VerifierTest, UnknownSourceBecomesAFindingNotAThrow) {
  ScenarioSpec spec;
  spec.source.catalog = "no-such-system";
  const Report report = deproto::analysis::analyze_spec(spec);
  EXPECT_TRUE(has_rule(report.findings, "spec.source", Severity::Error));
}

TEST(VerifierTest, UnsynthesizableSystemBecomesAFinding) {
  ScenarioSpec spec;
  spec.source.ode_text = "x' = -x\ny' = 0.5*x\n";  // not complete
  const Report report = deproto::analysis::analyze_spec(spec);
  EXPECT_TRUE(
      has_rule(report.findings, "synthesis.failed", Severity::Error));
}

// ----------------------------------------------------------- suppression

TEST(VerifierTest, SuppressionsMuteWarningsAndCount) {
  ScenarioSpec spec = epidemic_spec();
  spec.backend = deproto::api::Backend::Count;
  spec.faults.crash_recovery.crash_prob = 0.01;
  spec.faults.crash_recovery.mean_downtime_periods = 5.0;
  spec.lint_suppress = {"spec.count-anonymous-faults"};
  const Report report = deproto::analysis::analyze_spec(spec);
  EXPECT_FALSE(has_rule(report.findings, "spec.count-anonymous-faults",
                        Severity::Warning));
  EXPECT_EQ(report.suppressed, 1U);
}

TEST(VerifierTest, ErrorsAreNeverSuppressible) {
  ScenarioSpec spec = epidemic_spec();
  spec.initial_counts = {10, 1};
  spec.lint_suppress = {"spec.initial-counts"};
  const Report report = deproto::analysis::analyze_spec(spec);
  EXPECT_TRUE(
      has_rule(report.findings, "spec.initial-counts", Severity::Error));
  EXPECT_EQ(report.suppressed, 0U);
}

TEST(VerifierTest, NoSuppressOptionShowsMutedFindings) {
  ScenarioSpec spec = epidemic_spec();
  spec.backend = deproto::api::Backend::Count;
  spec.faults.crash_recovery.crash_prob = 0.01;
  spec.faults.crash_recovery.mean_downtime_periods = 5.0;
  spec.lint_suppress = {"spec.count-anonymous-faults"};
  deproto::analysis::VerifyOptions options;
  options.apply_suppressions = false;
  const Report report = deproto::analysis::analyze_spec(spec, options);
  EXPECT_TRUE(has_rule(report.findings, "spec.count-anonymous-faults",
                       Severity::Warning));
  EXPECT_EQ(report.suppressed, 0U);
}

// ------------------------------------------------------- registry + spec

TEST(VerifierTest, EveryRegistryScenarioLintsClean) {
  for (const std::string& name : deproto::api::registry_names()) {
    const Report report =
        deproto::analysis::analyze_spec(deproto::api::registry_get(name));
    EXPECT_EQ(report.errors(), 0U) << name;
    EXPECT_EQ(report.warnings(), 0U)
        << name << ": registry warnings must be fixed or suppressed";
  }
}

TEST(VerifierTest, LintSuppressRoundTripsThroughSpecJson) {
  ScenarioSpec spec = epidemic_spec();
  EXPECT_FALSE(spec.to_json().contains("lint_suppress"))
      << "empty suppressions must not perturb cache keys";
  spec.lint_suppress = {"spec.count-anonymous-faults", "spec.token-ttl"};
  const ScenarioSpec back = ScenarioSpec::from_json(spec.to_json());
  EXPECT_EQ(back.lint_suppress, spec.lint_suppress);
  EXPECT_EQ(back, spec);
}

TEST(VerifierTest, VerifyStaticRoundTripsAndKeepsCacheKeysStable) {
  ScenarioSpec spec = epidemic_spec();
  const std::string before = spec.to_json().dump();
  EXPECT_EQ(before.find("verify_static"), std::string::npos);
  spec.runtime.verify_static = true;
  const ScenarioSpec back = ScenarioSpec::from_json(spec.to_json());
  EXPECT_TRUE(back.runtime.verify_static);
}

// ------------------------------------------------------------ pre-flight

TEST(VerifierTest, PreFlightBlocksBrokenSpecs) {
  ScenarioSpec spec = epidemic_spec();
  spec.initial_counts = {10, 1};
  spec.runtime.verify_static = true;
  deproto::api::Experiment experiment(spec);
  EXPECT_THROW(
      {
        try {
          (void)experiment.launch();
        } catch (const deproto::api::SpecError& e) {
          EXPECT_NE(std::string(e.what()).find("static verification"),
                    std::string::npos);
          EXPECT_NE(std::string(e.what()).find("spec.initial-counts"),
                    std::string::npos);
          throw;
        }
      },
      deproto::api::SpecError);
}

TEST(VerifierTest, PreFlightPassesCleanSpecsThrough) {
  ScenarioSpec spec = epidemic_spec();
  spec.runtime.verify_static = true;
  deproto::api::Experiment experiment(spec);
  const deproto::api::ExperimentResult result = experiment.run();
  EXPECT_EQ(result.final_counts.size(), 2U);
}

}  // namespace
