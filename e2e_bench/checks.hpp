#pragma once

// Per-job output checks. They are semantic -- what the paper says must
// happen to the population -- so a change that legitimately reorders
// random draws still passes them:
//   * epidemic jobs absorb (every alive process infective);
//   * Lotka-Volterra jobs converge to the majority they were seeded with:
//     it holds at least kMajorityFraction of the alive population at the
//     end (the last stragglers of the minority can take hundreds more
//     periods to vanish, so full absorption is not required);
//   * endemic jobs hold their alive-normalized state fractions, averaged
//     over the last kEndemicWindow periods, within kEndemicTolerance
//     (L-inf) of the eq. (2) fixed point -- the mean-field tolerance of
//     tests/integration/backend_equivalence_test.cpp.
// The expectation is fixed when a job is generated, from the spec the
// workload intended, and is never re-derived from the spec the program
// ran: a spec seeded with the wrong majority fails its check.

#include <cstddef>
#include <string>
#include <vector>

#include "api/experiment.hpp"
#include "api/spec.hpp"

namespace e2e {

inline constexpr std::size_t kEndemicWindow = 20;
inline constexpr double kEndemicTolerance = 0.17;
inline constexpr double kMajorityFraction = 0.99;

struct Expectation {
  enum class Kind { Absorb, Majority, Endemic };
  Kind kind = Kind::Absorb;
  std::size_t state = 0;            // Absorb / Majority: the winning state
  std::vector<double> fixed_point;  // Endemic: eq. (2) fractions
};

/// The expectation for a spec built from the epidemic, lv, or endemic
/// catalog entries; throws std::invalid_argument for any other source.
[[nodiscard]] Expectation expect_for(const deproto::api::ScenarioSpec& spec);

/// Empty when `result` meets `expect`, otherwise a one-line reason.
[[nodiscard]] std::string check_result(
    const deproto::api::ExperimentResult& result, const Expectation& expect);

}  // namespace e2e
