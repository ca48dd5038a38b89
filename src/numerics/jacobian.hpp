#pragma once

// Jacobians of polynomial equation systems evaluated at a point.
// Polynomial right-hand sides differentiate exactly, so no finite
// differencing is needed anywhere in the analysis pipeline.

#include "numerics/matrix.hpp"
#include "ode/equation_system.hpp"

namespace deproto::num {

/// Evaluate the Jacobian of `sys` at point `x`.
[[nodiscard]] Matrix jacobian_at(const ode::EquationSystem& sys,
                                 const Vec& x);

/// Jacobian of a *complete* system restricted to the invariant simplex
/// Sum x = const: eliminate the last variable (x_m = S - Sum_{i<m} x_i),
/// giving the (m-1)x(m-1) reduced Jacobian
///   Jr[i][j] = J[i][j] - J[i][m-1].
/// Stability on the simplex is decided by this matrix; the full Jacobian
/// always carries a spurious neutral direction along (1,...,1).
[[nodiscard]] Matrix reduced_jacobian_at(const ode::EquationSystem& sys,
                                         const Vec& x);

}  // namespace deproto::num
