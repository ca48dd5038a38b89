#include "numerics/jacobian.hpp"

#include <stdexcept>

namespace deproto::num {

Matrix jacobian_at(const ode::EquationSystem& sys, const Vec& x) {
  const std::size_t m = sys.num_vars();
  if (x.size() < m) {
    throw std::invalid_argument("jacobian_at: point has too few coordinates");
  }
  Matrix j(m, m);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t c = 0; c < m; ++c) {
      j(i, c) = ode::evaluate(ode::derivative(sys.rhs(i), c), x);
    }
  }
  return j;
}

Matrix reduced_jacobian_at(const ode::EquationSystem& sys, const Vec& x) {
  const std::size_t m = sys.num_vars();
  if (m < 2) {
    throw std::invalid_argument("reduced_jacobian_at: need >= 2 variables");
  }
  const Matrix full = jacobian_at(sys, x);
  Matrix r(m - 1, m - 1);
  for (std::size_t i = 0; i + 1 < m; ++i) {
    for (std::size_t j = 0; j + 1 < m; ++j) {
      r(i, j) = full(i, j) - full(i, m - 1);
    }
  }
  return r;
}

}  // namespace deproto::num
