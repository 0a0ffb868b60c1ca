// Direct tests of the barrier interior-point core (below the GP wrapper):
// known convex programs, strict-feasibility enforcement, unboundedness, and
// the value-only / full evaluation contract (callbacks fill a caller-owned
// FnEval; affine ones leave the Hessian unwritten).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "gp/barrier.h"

namespace gp = hydra::gp;
namespace la = hydra::linalg;

namespace {

/// f(y) = Σ (y_i − c_i)² — smooth, strongly convex, minimum at c.
gp::SmoothFn quadratic(std::vector<double> center) {
  return [center](const la::Vector& y, gp::EvalLevel level, gp::FnEval& out) {
    const std::size_t n = y.size();
    out.value = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double d = y[i] - center[i];
      out.value += d * d;
    }
    if (level == gp::EvalLevel::kFull) {
      out.grad.assign(n);
      out.hess.assign(n, n);
      out.affine = false;
      for (std::size_t i = 0; i < n; ++i) {
        out.grad[i] = 2.0 * (y[i] - center[i]);
        out.hess(i, i) = 2.0;
      }
    }
  };
}

/// Linear constraint a·y + b < 0.
gp::SmoothFn halfspace(std::vector<double> a, double b) {
  return [a, b](const la::Vector& y, gp::EvalLevel level, gp::FnEval& out) {
    out.value = b;
    for (std::size_t i = 0; i < y.size(); ++i) out.value += a[i] * y[i];
    if (level == gp::EvalLevel::kFull) {
      out.grad.assign(y.size());
      for (std::size_t i = 0; i < y.size(); ++i) out.grad[i] = a[i];
      out.affine = true;
    }
  };
}

}  // namespace

TEST(Barrier, UnconstrainedQuadraticFindsCenter) {
  la::Vector y0(2);
  const auto r = gp::barrier_minimize(quadratic({3.0, -1.5}), {}, y0);
  EXPECT_EQ(r.status, gp::BarrierStatus::kOptimal);
  EXPECT_NEAR(r.y[0], 3.0, 1e-6);
  EXPECT_NEAR(r.y[1], -1.5, 1e-6);
  EXPECT_NEAR(r.objective, 0.0, 1e-9);
}

TEST(Barrier, ActiveHalfspaceConstraint) {
  // min (y0 − 3)² s.t. y0 <= 1: optimum at the boundary y0 = 1.
  la::Vector y0(1);
  y0[0] = 0.0;
  const auto r =
      gp::barrier_minimize(quadratic({3.0}), {halfspace({1.0}, -1.0)}, y0);
  EXPECT_EQ(r.status, gp::BarrierStatus::kOptimal);
  EXPECT_NEAR(r.y[0], 1.0, 1e-4);
  EXPECT_NEAR(r.objective, 4.0, 1e-3);
}

TEST(Barrier, InactiveConstraintDoesNotBias) {
  // Same program but the constraint sits far from the optimum.
  la::Vector y0(1);
  const auto r =
      gp::barrier_minimize(quadratic({3.0}), {halfspace({1.0}, -100.0)}, y0);
  EXPECT_NEAR(r.y[0], 3.0, 1e-5);
}

TEST(Barrier, MultipleConstraintsPolytope) {
  // min ||y − (5,5)||² over the box −1 <= y_i <= 2: optimum at (2,2).
  la::Vector y0(2);
  const std::vector<gp::SmoothFn> cons{
      halfspace({1.0, 0.0}, -2.0), halfspace({-1.0, 0.0}, -1.0),
      halfspace({0.0, 1.0}, -2.0), halfspace({0.0, -1.0}, -1.0)};
  const auto r = gp::barrier_minimize(quadratic({5.0, 5.0}), cons, y0);
  EXPECT_NEAR(r.y[0], 2.0, 1e-4);
  EXPECT_NEAR(r.y[1], 2.0, 1e-4);
}

TEST(Barrier, InfeasibleStartRejected) {
  la::Vector y0(1);
  y0[0] = 5.0;  // violates y <= 1
  EXPECT_THROW(gp::barrier_minimize(quadratic({0.0}), {halfspace({1.0}, -1.0)}, y0),
               std::invalid_argument);
  // Boundary (not strictly feasible) also rejected.
  y0[0] = 1.0;
  EXPECT_THROW(gp::barrier_minimize(quadratic({0.0}), {halfspace({1.0}, -1.0)}, y0),
               std::invalid_argument);
}

TEST(Barrier, EmptyStartRejected) {
  EXPECT_THROW(gp::barrier_minimize(quadratic({}), {}, la::Vector()),
               std::invalid_argument);
}

TEST(Barrier, UnboundedLinearObjectiveDetected) {
  // min y0 with no constraints diverges to −inf.
  la::Vector y0(1);
  const auto r = gp::barrier_minimize(halfspace({1.0}, 0.0), {}, y0);
  EXPECT_EQ(r.status, gp::BarrierStatus::kUnbounded);
}

TEST(Barrier, ValueLevelNeverAsksForDerivatives) {
  // The contract: EvalLevel::kValue calls may leave grad/hess empty.  A
  // callback that *counts* full evaluations shows line searches stay cheap.
  int full_evals = 0;
  int value_evals = 0;
  const auto counting = [&](const la::Vector& y, gp::EvalLevel level, gp::FnEval& out) {
    const double d = y[0] - 2.0;
    out.value = d * d;
    if (level == gp::EvalLevel::kFull) {
      ++full_evals;
      out.grad.assign(1);
      out.grad[0] = 2.0 * d;
      out.hess.assign(1, 1);
      out.hess(0, 0) = 2.0;
      out.affine = false;
    } else {
      ++value_evals;
    }
  };
  la::Vector y0(1);
  const auto r = gp::barrier_minimize(counting, {}, y0);
  EXPECT_EQ(r.status, gp::BarrierStatus::kOptimal);
  EXPECT_NEAR(r.y[0], 2.0, 1e-6);
  EXPECT_GT(value_evals, 0);
  EXPECT_GT(full_evals, 0);
}

TEST(Barrier, TighterToleranceGivesBetterCentering) {
  la::Vector y0(1);
  y0[0] = -3.0;
  gp::BarrierOptions loose;
  loose.duality_gap_tol = 1e-3;
  gp::BarrierOptions tight;
  tight.duality_gap_tol = 1e-10;
  // min (y+5)² s.t. y >= 0 (−y < 0): optimum y = 0... flip: use y >= 0 via
  // halfspace(-1, 0): −y + 0 < 0 ⇔ y > 0. Feasible start −3 violates; use +1.
  y0[0] = 1.0;
  const auto r_loose =
      gp::barrier_minimize(quadratic({-5.0}), {halfspace({-1.0}, 0.0)}, y0, loose);
  const auto r_tight =
      gp::barrier_minimize(quadratic({-5.0}), {halfspace({-1.0}, 0.0)}, y0, tight);
  // Both approach y = 0 from inside; the tighter run must not be further out.
  EXPECT_GT(r_loose.y[0], 0.0);
  EXPECT_GT(r_tight.y[0], 0.0);
  EXPECT_LE(r_tight.y[0], r_loose.y[0] + 1e-9);
}

TEST(Barrier, NonFinitePointIsInfeasible) {
  // Line searches never hand a non-finite trial point to the callbacks: it
  // counts as infeasible, even with no constraint to violate.
  gp::BarrierEval out;
  la::Vector y(2);
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    y[1] = bad;
    for (const auto level : {gp::EvalLevel::kValue, gp::EvalLevel::kFull}) {
      gp::eval_barrier(quadratic({0.0, 0.0}), {}, 8.0, y, level, out);
      EXPECT_FALSE(out.feasible);
      EXPECT_EQ(out.value, std::numeric_limits<double>::infinity());
    }
  }
}
