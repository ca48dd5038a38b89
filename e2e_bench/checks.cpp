#include "checks.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace e2e {

namespace {

using deproto::api::ExperimentResult;
using deproto::api::ScenarioSpec;

std::string format(const char* fmt, double a, double b) {
  char buf[160];
  std::snprintf(buf, sizeof buf, fmt, a, b);
  return buf;
}

}  // namespace

Expectation expect_for(const ScenarioSpec& spec) {
  const std::string& catalog = spec.source.catalog;
  Expectation e;
  if (catalog == "epidemic") {
    e.kind = Expectation::Kind::Absorb;
    e.state = 1;  // the infective state
    return e;
  }
  if (catalog == "lv") {
    e.kind = Expectation::Kind::Majority;
    const auto& c = spec.initial_counts;
    e.state = static_cast<std::size_t>(
        std::max_element(c.begin(), c.end()) - c.begin());
    return e;
  }
  if (catalog == "endemic" && spec.source.params.size() >= 3) {
    // Eq. (2): x* = gamma / beta, y* = (1 - x*) / (1 + gamma / alpha).
    const double beta = spec.source.params[0];
    const double gamma = spec.source.params[1];
    const double alpha = spec.source.params[2];
    const double x = gamma / beta;
    const double y = (1.0 - x) / (1.0 + gamma / alpha);
    e.kind = Expectation::Kind::Endemic;
    e.fixed_point = {x, y, 1.0 - x - y};
    return e;
  }
  throw std::invalid_argument("no output check for source '" + catalog + "'");
}

std::string check_result(const ExperimentResult& result,
                         const Expectation& expect) {
  const auto& conv = result.convergence;
  switch (expect.kind) {
    case Expectation::Kind::Absorb:
      if (!conv.absorbed || conv.dominant_state != expect.state) {
        return format(
            "expected absorption into state %.0f, ended with dominant state "
            "%.0f",
            static_cast<double>(expect.state),
            static_cast<double>(conv.dominant_state)) +
               (conv.absorbed ? "" : " (not absorbed)");
      }
      return "";
    case Expectation::Kind::Majority:
      if (conv.dominant_state != expect.state ||
          conv.dominant_fraction < kMajorityFraction) {
        char buf[160];
        std::snprintf(buf, sizeof buf,
                      "expected the seeded majority (state %zu) to hold %.2f "
                      "of the alive population, ended with state %zu at %.4f",
                      expect.state, kMajorityFraction, conv.dominant_state,
                      conv.dominant_fraction);
        return buf;
      }
      return "";
    case Expectation::Kind::Endemic: {
      const std::size_t m = expect.fixed_point.size();
      if (result.series.empty() || result.state_names.size() != m) {
        return "endemic result has no series to check";
      }
      std::vector<double> mean(m, 0.0);
      std::size_t used = 0;
      const std::size_t first = result.series.size() > kEndemicWindow
                                    ? result.series.size() - kEndemicWindow
                                    : 0;
      for (std::size_t i = first; i < result.series.size(); ++i) {
        const auto& point = result.series[i];
        if (point.total_alive == 0) continue;
        for (std::size_t s = 0; s < m; ++s) {
          mean[s] += static_cast<double>(point.counts[s]) /
                     static_cast<double>(point.total_alive);
        }
        ++used;
      }
      if (used == 0) return "endemic population died out";
      double gap = 0.0;
      for (std::size_t s = 0; s < m; ++s) {
        gap = std::max(gap, std::abs(mean[s] / static_cast<double>(used) -
                                     expect.fixed_point[s]));
      }
      if (gap > kEndemicTolerance) {
        return format("endemic tail %.4f from the eq. (2) fixed point "
                      "(tolerance %.2f)",
                      gap, kEndemicTolerance);
      }
      return "";
    }
  }
  return "unknown expectation";
}

}  // namespace e2e
