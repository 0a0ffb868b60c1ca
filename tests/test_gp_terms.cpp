// Unit + property tests for monomials/posynomials, including finite-difference
// verification of the log-space gradient and Hessian the solver relies on.
#include <gtest/gtest.h>

#include <cmath>

#include "gp/terms.h"
#include "util/rng.h"

namespace gp = hydra::gp;
namespace la = hydra::linalg;

TEST(Monomial, EvaluatesPowerProduct) {
  // 2 · x^2 / y at (3, 4) = 2·9/4 = 4.5.
  const gp::Monomial m = gp::Monomial(2.0, 2).with(0, 2.0).with(1, -1.0);
  EXPECT_DOUBLE_EQ(m.eval({3.0, 4.0}), 4.5);
}

TEST(Monomial, WithAccumulatesExponents) {
  const gp::Monomial m = gp::Monomial(1.0, 1).with(0, 1.0).with(0, 1.5);
  EXPECT_DOUBLE_EQ(m.exponent(0), 2.5);
}

TEST(Monomial, RejectsNonPositiveCoefficient) {
  EXPECT_THROW(gp::Monomial(0.0, 1), std::invalid_argument);
  EXPECT_THROW(gp::Monomial(-1.0, 1), std::invalid_argument);
}

TEST(Monomial, ProductAndReciprocal) {
  const gp::Monomial a = gp::Monomial(2.0, 2).with(0, 1.0);
  const gp::Monomial b = gp::Monomial(3.0, 2).with(1, -2.0);
  const gp::Monomial prod = a * b;
  EXPECT_DOUBLE_EQ(prod.coeff(), 6.0);
  EXPECT_DOUBLE_EQ(prod.exponent(0), 1.0);
  EXPECT_DOUBLE_EQ(prod.exponent(1), -2.0);

  const gp::Monomial inv = prod.reciprocal();
  EXPECT_DOUBLE_EQ(inv.coeff(), 1.0 / 6.0);
  EXPECT_DOUBLE_EQ(inv.exponent(0), -1.0);
  EXPECT_DOUBLE_EQ(inv.exponent(1), 2.0);
  // m · 1/m == 1 pointwise.
  EXPECT_NEAR((prod * inv).eval({0.7, 1.9}), 1.0, 1e-12);
}

TEST(Monomial, LogEvalMatchesLogOfEval) {
  const gp::Monomial m = gp::Monomial(5.0, 3).with(0, 1.0).with(1, -0.5).with(2, 2.0);
  const std::vector<double> x{1.5, 2.5, 0.5};
  la::Vector y(3);
  for (std::size_t i = 0; i < 3; ++i) y[i] = std::log(x[i]);
  EXPECT_NEAR(gp::Posynomial(m).log_value(y), std::log(m.eval(x)), 1e-12);
}

TEST(Posynomial, EvalIsSumOfTerms) {
  gp::Posynomial p(2);
  p += gp::Monomial(1.0, 2).with(0, 1.0);   // x
  p += gp::Monomial(2.0, 2).with(1, 1.0);   // 2y
  EXPECT_DOUBLE_EQ(p.eval({3.0, 4.0}), 11.0);
}

TEST(Posynomial, TimesMonomialDistributes) {
  gp::Posynomial p(2);
  p += gp::Monomial(1.0, 2).with(0, 1.0);
  p += gp::Monomial(1.0, 2).with(1, 1.0);
  const gp::Posynomial q = p.times(gp::Monomial(2.0, 2).with(0, -1.0));  // (x+y)·2/x
  const std::vector<double> x{2.0, 6.0};
  EXPECT_NEAR(q.eval(x), 2.0 * (x[0] + x[1]) / x[0], 1e-12);
}

TEST(Posynomial, LogEvalValueIsLogSumExp) {
  gp::Posynomial p(1);
  p += gp::Monomial(1.0, 1).with(0, 1.0);   // x
  p += gp::Monomial(1.0, 1).with(0, -1.0);  // 1/x
  la::Vector y(1);
  y[0] = 0.3;
  const auto le = p.log_eval(y, false);
  const double x = std::exp(0.3);
  EXPECT_NEAR(le.value, std::log(x + 1.0 / x), 1e-12);
}

TEST(Posynomial, LogEvalStableForHugeExponents) {
  gp::Posynomial p(1);
  p += gp::Monomial(1.0, 1).with(0, 1.0);
  la::Vector y(1);
  y[0] = 800.0;  // exp(800) overflows double; max-shift must handle it
  const auto le = p.log_eval(y, true);
  EXPECT_NEAR(le.value, 800.0, 1e-9);
  EXPECT_TRUE(std::isfinite(le.grad[0]));
}

namespace {

/// Finite-difference gradient check of log_eval on random posynomials.
void check_derivatives(const gp::Posynomial& p, const la::Vector& y) {
  const double h = 1e-5;
  const auto le = p.log_eval(y, true);
  for (std::size_t i = 0; i < y.size(); ++i) {
    la::Vector yp = y, ym = y;
    yp[i] += h;
    ym[i] -= h;
    const auto lep = p.log_eval(yp, false);
    const auto lem = p.log_eval(ym, false);
    const double fd_grad = (lep.value - lem.value) / (2.0 * h);
    EXPECT_NEAR(le.grad[i], fd_grad, 1e-6) << "grad mismatch at coord " << i;
    // Hessian row i from central differences of the gradient.
    for (std::size_t j = 0; j < y.size(); ++j) {
      EXPECT_NEAR(le.hess(i, j), (lep.grad[j] - lem.grad[j]) / (2.0 * h), 1e-5)
          << "hess mismatch at (" << i << "," << j << ")";
    }
  }
}

}  // namespace

TEST(Posynomial, GradientAndHessianMatchFiniteDifferences) {
  hydra::util::Xoshiro256 rng(12345);
  for (int rep = 0; rep < 10; ++rep) {
    const std::size_t n = 1 + static_cast<std::size_t>(rng.uniform_int(0, 3));
    gp::Posynomial p(n);
    const int terms = 1 + static_cast<int>(rng.uniform_int(0, 4));
    for (int t = 0; t < terms; ++t) {
      gp::Monomial m(rng.uniform(0.1, 5.0), n);
      for (std::size_t v = 0; v < n; ++v) m.with(v, rng.uniform(-2.0, 2.0));
      p += m;
    }
    la::Vector y(n);
    for (std::size_t v = 0; v < n; ++v) y[v] = rng.uniform(-1.0, 1.0);
    check_derivatives(p, y);
  }
}

TEST(Posynomial, HessianIsPositiveSemidefiniteOnRandomDirections) {
  // Convexity of log-sum-exp: dᵀHd >= 0 for all d.
  hydra::util::Xoshiro256 rng(777);
  gp::Posynomial p(3);
  for (int t = 0; t < 4; ++t) {
    gp::Monomial m(rng.uniform(0.5, 2.0), 3);
    for (std::size_t v = 0; v < 3; ++v) m.with(v, rng.uniform(-3.0, 3.0));
    p += m;
  }
  la::Vector y(3);
  const auto le = p.log_eval(y, true);
  for (int rep = 0; rep < 50; ++rep) {
    la::Vector d(3);
    for (std::size_t v = 0; v < 3; ++v) d[v] = rng.uniform(-1.0, 1.0);
    EXPECT_GE(dot(d, le.hess * d), -1e-10);
  }
}

TEST(Posynomial, EmptyLogEvalThrows) {
  gp::Posynomial p(2);
  EXPECT_THROW(p.log_eval(la::Vector(2), false), std::invalid_argument);
}

TEST(Posynomial, SizeMismatchThrows) {
  gp::Posynomial p(2);
  EXPECT_THROW(p += gp::Monomial(1.0, 3), std::invalid_argument);
}
