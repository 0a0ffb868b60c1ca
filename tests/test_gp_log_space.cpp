// Bit-exact differential test of the compiled log-space kernel (gp/log_space.h)
// against the dense evaluation it replaced.
//
// The reference below is the dense arithmetic kept verbatim: a loop over all
// n variables per term with log c recomputed on every call, softmax weights,
// two rank-1 Hessian updates, the phase-I wrapper that copies y out of
// z = (y, s), and the barrier value / full assembly and Newton loop over
// callbacks returning fresh buffers.  Every comparison is memcmp on the
// doubles — value, gradient, Hessian, iterate — never a tolerance: the kernel
// claims to perform the same floating-point operations in the same order.
//
// Coverage: single-term posynomials (the affine path), reciprocal() monomials
// whose absent exponents are −0.0, coefficient 1 (log c = +0), mixed-sign
// exponents, exponents that cancel to zero, coordinates at ±0, phase-I
// slack-augmented functions, barrier assembly at feasible and infeasible
// points, and whole barrier solves (phases I and II) on random GPs.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "gp/barrier.h"
#include "gp/log_space.h"
#include "gp/terms.h"
#include "gp_testlib.h"
#include "linalg/cholesky.h"
#include "util/rng.h"

namespace gp = hydra::gp;
namespace la = hydra::linalg;

namespace {

// ---------------------------------------------------------------------------
// Dense reference, verbatim.
// ---------------------------------------------------------------------------

double ref_monomial_log_eval(const gp::Monomial& m, const la::Vector& y) {
  double acc = std::log(m.coeff());
  for (std::size_t i = 0; i < m.num_vars(); ++i) acc += m.exponent(i) * y[i];
  return acc;
}

gp::LogEval ref_log_eval(const gp::Posynomial& p, const la::Vector& y, bool need_hess) {
  const auto& terms_ = p.terms();
  const std::size_t n = p.num_vars();
  const std::size_t k = terms_.size();

  std::vector<double> u(k);
  double u_max = -1e308;
  for (std::size_t t = 0; t < k; ++t) {
    u[t] = ref_monomial_log_eval(terms_[t], y);
    u_max = std::fmax(u_max, u[t]);
  }
  double wsum = 0.0;
  std::vector<double> w(k);
  for (std::size_t t = 0; t < k; ++t) {
    w[t] = std::exp(u[t] - u_max);
    wsum += w[t];
  }

  gp::LogEval out;
  out.value = u_max + std::log(wsum);
  out.grad = la::Vector(n);
  for (std::size_t t = 0; t < k; ++t) {
    const double p = w[t] / wsum;  // softmax weight
    for (std::size_t i = 0; i < n; ++i) out.grad[i] += p * terms_[t].exponent(i);
  }

  if (need_hess) {
    out.hess = la::Matrix(n, n);
    la::Vector a(n);
    for (std::size_t t = 0; t < k; ++t) {
      const double p = w[t] / wsum;
      for (std::size_t i = 0; i < n; ++i) a[i] = terms_[t].exponent(i);
      out.hess.add_outer(a, p);
    }
    out.hess.add_outer(out.grad, -1.0);
    out.has_hess = true;
  }
  return out;
}

double ref_log_value(const gp::Posynomial& p, const la::Vector& y) {
  double u_max = -1e308;
  for (const auto& t : p.terms()) u_max = std::fmax(u_max, ref_monomial_log_eval(t, y));
  double wsum = 0.0;
  for (const auto& t : p.terms()) wsum += std::exp(ref_monomial_log_eval(t, y) - u_max);
  return u_max + std::log(wsum);
}

/// The callback contract the kernel replaced: fresh buffers per call.
struct RefFnEval {
  double value = 0.0;
  la::Vector grad;
  la::Matrix hess;
};
using RefFn = std::function<RefFnEval(const la::Vector& y, gp::EvalLevel level)>;

RefFn ref_log_fn(const gp::Posynomial& p) {
  return [&p](const la::Vector& y, gp::EvalLevel level) {
    RefFnEval out;
    if (level == gp::EvalLevel::kValue) {
      out.value = ref_log_value(p, y);
      return out;
    }
    gp::LogEval le = ref_log_eval(p, y, /*need_hess=*/true);
    out.value = le.value;
    out.grad = std::move(le.grad);
    out.hess = std::move(le.hess);
    return out;
  };
}

RefFn ref_phase1_objective(std::size_t n) {
  const std::size_t ext = n + 1;
  return [ext, n](const la::Vector& z, gp::EvalLevel level) {
    RefFnEval out;
    out.value = z[n];
    if (level == gp::EvalLevel::kFull) {
      out.grad = la::Vector(ext);
      out.grad[n] = 1.0;
      out.hess = la::Matrix(ext, ext);
    }
    return out;
  };
}

RefFn ref_phase1_constraint(const gp::Posynomial& c) {
  const std::size_t n = c.num_vars();
  const std::size_t ext = n + 1;
  return [&c, n, ext](const la::Vector& z, gp::EvalLevel level) {
    la::Vector y(n);
    for (std::size_t i = 0; i < n; ++i) y[i] = z[i];
    RefFnEval out;
    if (level == gp::EvalLevel::kValue) {
      out.value = ref_log_value(c, y) - z[n];
      return out;
    }
    const gp::LogEval le = ref_log_eval(c, y, /*need_hess=*/true);
    out.value = le.value - z[n];
    out.grad = la::Vector(ext);
    for (std::size_t i = 0; i < n; ++i) out.grad[i] = le.grad[i];
    out.grad[n] = -1.0;
    out.hess = la::Matrix(ext, ext);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) out.hess(i, j) = le.hess(i, j);
    }
    return out;
  };
}

struct RefBarrierEval {
  double value = std::numeric_limits<double>::infinity();
  la::Vector grad;
  la::Matrix hess;
  bool feasible = false;
};

RefBarrierEval ref_eval_barrier_value(const RefFn& f0, const std::vector<RefFn>& cons, double t,
                                      const la::Vector& y) {
  RefBarrierEval out;
  double value = t * f0(y, gp::EvalLevel::kValue).value;
  for (const auto& ci : cons) {
    const double cv = ci(y, gp::EvalLevel::kValue).value;
    if (!(cv < 0.0)) return out;  // infeasible
    value -= std::log(-cv);
  }
  out.value = value;
  out.feasible = true;
  return out;
}

RefBarrierEval ref_eval_barrier_full(const RefFn& f0, const std::vector<RefFn>& cons, double t,
                                     const la::Vector& y) {
  RefBarrierEval out;
  const std::size_t n = y.size();

  const RefFnEval e0 = f0(y, gp::EvalLevel::kFull);
  double value = t * e0.value;
  la::Vector grad = e0.grad;
  grad *= t;
  la::Matrix hess = e0.hess;
  hess *= t;

  for (const auto& ci : cons) {
    const RefFnEval ei = ci(y, gp::EvalLevel::kFull);
    if (!(ei.value < 0.0)) return out;  // infeasible: value stays +inf
    value -= std::log(-ei.value);
    const double inv = 1.0 / (-ei.value);  // > 0
    for (std::size_t k = 0; k < n; ++k) grad[k] += inv * ei.grad[k];
    hess.add_outer(ei.grad, inv * inv);
    hess.add_scaled(ei.hess, inv);
  }

  out.value = value;
  out.feasible = true;
  out.grad = std::move(grad);
  out.hess = std::move(hess);
  return out;
}

gp::BarrierResult ref_barrier_minimize(const RefFn& f0, const std::vector<RefFn>& constraints,
                                       const la::Vector& y0, const gp::BarrierOptions& opts = {}) {
  HYDRA_REQUIRE(y0.size() > 0, "barrier_minimize: empty start point");
  HYDRA_REQUIRE(ref_eval_barrier_value(f0, constraints, opts.t0, y0).feasible,
                "barrier_minimize: start point is not strictly feasible");

  gp::BarrierResult result;
  result.y = y0;
  double t = opts.t0;
  la::SpdWorkspace spd_ws;
  la::Vector neg_grad;
  la::Vector cand;
  const double m = static_cast<double>(constraints.size());
  const double newton_tol =
      constraints.empty() ? std::fmin(opts.newton_tol, 1e-14) : opts.newton_tol;

  while (true) {
    for (int it = 0; it < opts.max_newton_per_stage; ++it) {
      const RefBarrierEval cur = ref_eval_barrier_full(f0, constraints, t, result.y);
      HYDRA_ASSERT(cur.feasible, "iterate left the feasible region");

      neg_grad = cur.grad;
      neg_grad *= -1.0;
      const la::Vector& step = la::solve_spd_into(cur.hess, neg_grad, spd_ws);
      const double decrement = -dot(cur.grad, step);
      if (decrement * 0.5 <= newton_tol) break;

      double step_len = 1.0;
      bool moved = false;
      cand.assign(result.y.size());
      for (int bt = 0; bt < opts.max_backtracks; ++bt) {
        for (std::size_t i = 0; i < cand.size(); ++i) {
          cand[i] = result.y[i] + step_len * step[i];
        }
        const RefBarrierEval ce = ref_eval_barrier_value(f0, constraints, t, cand);
        if (ce.feasible &&
            ce.value <= cur.value - opts.armijo_alpha * step_len * decrement) {
          result.y = cand;
          moved = true;
          break;
        }
        step_len *= opts.backtrack_beta;
      }
      ++result.newton_steps;
      if (!moved) break;

      const double obj = f0(result.y, gp::EvalLevel::kValue).value;
      if (obj < opts.unbounded_below) {
        result.status = gp::BarrierStatus::kUnbounded;
        result.objective = obj;
        return result;
      }
    }

    result.objective = f0(result.y, gp::EvalLevel::kValue).value;
    if (m == 0.0 || m / t < opts.duality_gap_tol) {
      result.status = gp::BarrierStatus::kOptimal;
      return result;
    }
    if (result.newton_steps >= 20 * opts.max_newton_per_stage) {
      result.status = gp::BarrierStatus::kMaxIterations;
      return result;
    }
    t *= opts.mu;
  }
}

// ---------------------------------------------------------------------------
// Bitwise comparison helpers.
// ---------------------------------------------------------------------------

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof(double)) == 0; }

::testing::AssertionResult same_bits(const la::Vector& a, const la::Vector& b) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure() << "size " << a.size() << " vs " << b.size();
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!same_bits(a[i], b[i])) {
      return ::testing::AssertionFailure() << "entry " << i << ": " << a[i] << " vs " << b[i];
    }
  }
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult same_bits(const la::Matrix& a, const la::Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) {
    return ::testing::AssertionFailure() << "shape mismatch";
  }
  if (std::memcmp(a.data(), b.data(), sizeof(double) * a.rows() * a.cols()) != 0) {
    for (std::size_t r = 0; r < a.rows(); ++r) {
      for (std::size_t c = 0; c < a.cols(); ++c) {
        if (!same_bits(a(r, c), b(r, c))) {
          return ::testing::AssertionFailure()
                 << "entry (" << r << "," << c << "): " << a(r, c) << " vs " << b(r, c);
        }
      }
    }
  }
  return ::testing::AssertionSuccess();
}

/// The Hessian a kFull evaluation stands for: an affine one's is zero.
la::Matrix hessian_of(const gp::FnEval& e) {
  return e.affine ? la::Matrix(e.grad.size(), e.grad.size()) : e.hess;
}

// ---------------------------------------------------------------------------
// Random posynomials and points.
// ---------------------------------------------------------------------------

enum class Shape { kSingle, kReciprocal, kUnitCoeff, kMixed, kCancelling, kCount };

double draw_exponent(hydra::util::Xoshiro256& rng) {
  switch (rng.uniform_int(0, 3)) {
    case 0: return 1.0;
    case 1: return -1.0;
    case 2: return rng.uniform(-3.0, 3.0);
    default: return 0.5 * static_cast<double>(rng.uniform_int(1, 4));
  }
}

gp::Monomial draw_monomial(hydra::util::Xoshiro256& rng, std::size_t n, double coeff) {
  gp::Monomial m(coeff, n);
  const std::size_t touched = rng.uniform_int(0, n);
  for (std::size_t k = 0; k < touched; ++k) {
    m.with(rng.uniform_int(0, n - 1), draw_exponent(rng));
  }
  return m;
}

gp::Posynomial draw_posynomial(hydra::util::Xoshiro256& rng, std::size_t n, Shape shape) {
  gp::Posynomial p(n);
  switch (shape) {
    case Shape::kSingle:
      p += draw_monomial(rng, n, rng.uniform(0.05, 20.0));
      break;
    case Shape::kReciprocal: {
      // Absent exponents of a reciprocal are −0.0; add_constraint builds its
      // posynomials exactly this way (lhs.times(rhs.reciprocal())).
      const gp::Monomial rhs = draw_monomial(rng, n, rng.uniform(0.1, 10.0));
      if (rng.uniform_int(0, 1) == 0) {
        p += rhs.reciprocal();
      } else {
        gp::Posynomial lhs(n);
        const std::size_t terms = rng.uniform_int(1, 4);
        for (std::size_t t = 0; t < terms; ++t) lhs += draw_monomial(rng, n, rng.uniform(0.1, 5.0));
        p = lhs.times(rhs.reciprocal());
      }
      break;
    }
    case Shape::kUnitCoeff: {
      const std::size_t terms = rng.uniform_int(1, 3);
      for (std::size_t t = 0; t < terms; ++t) p += draw_monomial(rng, n, 1.0);
      break;
    }
    case Shape::kMixed: {
      const std::size_t terms = rng.uniform_int(2, 6);
      for (std::size_t t = 0; t < terms; ++t) {
        gp::Monomial m(rng.uniform(0.01, 50.0), n);
        for (std::size_t v = 0; v < n; ++v) {
          if (rng.uniform_int(0, 2) != 0) m.with(v, rng.uniform(-2.5, 2.5));
        }
        p += m;
      }
      break;
    }
    case Shape::kCancelling: {
      // Exponents that sum back to exactly zero, next to live ones.
      const std::size_t terms = rng.uniform_int(1, 3);
      for (std::size_t t = 0; t < terms; ++t) {
        gp::Monomial m = draw_monomial(rng, n, rng.uniform(0.5, 2.0));
        const std::size_t v = rng.uniform_int(0, n - 1);
        const double e = draw_exponent(rng);
        m.with(v, e).with(v, -e);
        p += m;
      }
      break;
    }
    case Shape::kCount:
      break;
  }
  return p;
}

la::Vector draw_point(hydra::util::Xoshiro256& rng, std::size_t n) {
  la::Vector y(n);
  for (std::size_t i = 0; i < n; ++i) {
    switch (rng.uniform_int(0, 7)) {
      case 0: y[i] = 0.0; break;
      case 1: y[i] = -0.0; break;
      default: y[i] = rng.uniform(-4.0, 4.0); break;
    }
  }
  return y;
}

/// `p` rescaled so its log-space value at y is −margin (feasible at y).
gp::Posynomial feasible_at(const gp::Posynomial& p, const la::Vector& y, double margin) {
  const double factor = std::exp(-margin - ref_log_value(p, y));
  gp::Posynomial out(p.num_vars());
  for (const auto& m : p.terms()) out += m.scaled(factor);
  return out;
}

}  // namespace

TEST(LogSpaceKernel, MatchesDenseReferenceBitForBit) {
  hydra::util::Xoshiro256 rng(20261018);
  gp::FnEval value_out;  // reused across sizes and shapes: stale buffers would show
  gp::FnEval full_out;
  std::size_t affine_evals = 0;
  constexpr int kPosynomials = 12000;
  for (int rep = 0; rep < kPosynomials; ++rep) {
    const Shape shape = static_cast<Shape>(rep % static_cast<int>(Shape::kCount));
    const std::size_t n = rng.uniform_int(1, 12);
    const gp::Posynomial p = draw_posynomial(rng, n, shape);
    const gp::LogSumExp f(p);
    const la::Vector y = draw_point(rng, n);
    SCOPED_TRACE("posynomial " + std::to_string(rep) + " shape " +
                 std::to_string(static_cast<int>(shape)));

    const gp::LogEval ref = ref_log_eval(p, y, /*need_hess=*/true);
    ASSERT_TRUE(same_bits(ref_log_value(p, y), ref.value));

    f.eval(y, gp::EvalLevel::kValue, value_out);
    ASSERT_TRUE(same_bits(value_out.value, ref.value)) << value_out.value << " vs " << ref.value;

    f.eval(y, gp::EvalLevel::kFull, full_out);
    ASSERT_TRUE(same_bits(full_out.value, ref.value));
    ASSERT_TRUE(same_bits(full_out.grad, ref.grad));
    ASSERT_TRUE(same_bits(hessian_of(full_out), ref.hess));
    if (full_out.affine) ++affine_evals;
    EXPECT_EQ(full_out.affine, p.num_terms() == 1);

    // The public Posynomial entry points run the same kernel.
    ASSERT_TRUE(same_bits(p.log_value(y), ref.value));
    const gp::LogEval pub = p.log_eval(y, /*need_hess=*/true);
    ASSERT_TRUE(same_bits(pub.value, ref.value));
    ASSERT_TRUE(same_bits(pub.grad, ref.grad));
    ASSERT_TRUE(same_bits(pub.hess, ref.hess));
  }
  // Every shape but kMixed yields single-term posynomials often enough for
  // the affine path to carry a large share of the comparisons.
  EXPECT_GT(affine_evals, static_cast<std::size_t>(kPosynomials / 4));
}

TEST(LogSpaceKernel, HugeSingleTermExponentsTakeTheGeneralPath) {
  // |a|² overflows: the dense Hessian is inf − inf = NaN, so the term must not
  // be reported affine.
  gp::Posynomial p(2);
  p += gp::Monomial(2.0, 2).with(0, 1e160).with(1, -1.0);
  la::Vector y(2);
  y[0] = 1e-150;
  y[1] = 0.5;
  gp::FnEval out;
  gp::LogSumExp(p).eval(y, gp::EvalLevel::kFull, out);
  EXPECT_FALSE(out.affine);
  const gp::LogEval ref = ref_log_eval(p, y, true);
  EXPECT_TRUE(same_bits(out.value, ref.value));
  EXPECT_TRUE(same_bits(out.grad, ref.grad));
  EXPECT_TRUE(same_bits(out.hess, ref.hess));
}

TEST(LogSpaceKernel, SingleTermOutsideTheShiftWindowTakesTheGeneralPath) {
  // u = a·y below the −1e308 floor of the running max, or overflowing to
  // +inf: the dense form's weight is not exp(0) = 1 there, so the affine
  // shortcut must step aside (the NaN/−inf results still match bit for bit).
  const std::pair<double, double> cases[] = {  // (exponent, y): u = −1.5e308, −1.5e308, +inf
      {-1e154, 1.5e154}, {1e154, -1.5e154}, {1e154, 1e155}};
  for (const auto& [exponent, y0] : cases) {
    const gp::Posynomial p(gp::Monomial(1.0, 1).with(0, exponent));
    la::Vector y(1);
    y[0] = y0;
    gp::FnEval out;
    gp::LogSumExp(p).eval(y, gp::EvalLevel::kFull, out);
    const gp::LogEval ref = ref_log_eval(p, y, true);
    SCOPED_TRACE(std::to_string(exponent) + " * " + std::to_string(y0));
    EXPECT_FALSE(out.affine);
    EXPECT_TRUE(same_bits(out.value, ref.value)) << out.value << " vs " << ref.value;
    EXPECT_TRUE(same_bits(out.grad, ref.grad));
    EXPECT_TRUE(same_bits(out.hess, ref.hess));
  }
}

TEST(LogSpaceKernel, PhaseOneSlackFunctionsMatchReference) {
  hydra::util::Xoshiro256 rng(4242);
  gp::FnEval out;
  for (int rep = 0; rep < 3000; ++rep) {
    const Shape shape = static_cast<Shape>(rep % static_cast<int>(Shape::kCount));
    const std::size_t n = rng.uniform_int(1, 10);
    const gp::Posynomial p = draw_posynomial(rng, n, shape);
    const gp::LogSumExp f(p);
    const la::Vector y = draw_point(rng, n);
    la::Vector z(n + 1);
    for (std::size_t i = 0; i < n; ++i) z[i] = y[i];
    z[n] = rng.uniform(-3.0, 3.0);
    SCOPED_TRACE("posynomial " + std::to_string(rep));

    const gp::SmoothFn fn = gp::minus_slack(f);
    const RefFn ref_fn = ref_phase1_constraint(p);
    const RefFnEval ref_value = ref_fn(z, gp::EvalLevel::kValue);
    const RefFnEval ref_full = ref_fn(z, gp::EvalLevel::kFull);

    fn(z, gp::EvalLevel::kValue, out);
    ASSERT_TRUE(same_bits(out.value, ref_value.value));
    fn(z, gp::EvalLevel::kFull, out);
    ASSERT_TRUE(same_bits(out.value, ref_full.value));
    ASSERT_TRUE(same_bits(out.grad, ref_full.grad));
    ASSERT_TRUE(same_bits(hessian_of(out), ref_full.hess));
  }
}

namespace {

/// A random log-space program feasible at y (constraints at −margin), with an
/// occasional violated constraint appended to exercise the infeasible exit.
struct RandomProgram {
  gp::Posynomial objective;
  std::vector<gp::Posynomial> constraints;
};

RandomProgram draw_program(hydra::util::Xoshiro256& rng, std::size_t n, const la::Vector& y) {
  RandomProgram prog{draw_posynomial(rng, n, static_cast<Shape>(rng.uniform_int(0, 4))), {}};
  // Box bounds first, like GpProblem::add_bounds, then general constraints.
  for (std::size_t v = 0; v < n; ++v) {
    if (rng.uniform_int(0, 3) == 0) continue;
    prog.constraints.emplace_back(
        feasible_at(gp::Posynomial(gp::Monomial(1.0, n).with(v, -1.0)), y, rng.uniform(0.05, 3.0)));
    prog.constraints.emplace_back(
        feasible_at(gp::Posynomial(gp::Monomial(1.0, n).with(v, 1.0)), y, rng.uniform(0.05, 3.0)));
  }
  const std::size_t extra = rng.uniform_int(0, 4);
  for (std::size_t c = 0; c < extra; ++c) {
    const Shape shape = static_cast<Shape>(rng.uniform_int(0, 4));
    prog.constraints.push_back(
        feasible_at(draw_posynomial(rng, n, shape), y, rng.uniform(0.01, 2.0)));
  }
  if (rng.uniform_int(0, 9) == 0) {
    prog.constraints.push_back(
        feasible_at(draw_posynomial(rng, n, Shape::kMixed), y, -rng.uniform(0.0, 1.0)));
  }
  return prog;
}

void expect_same_barrier(const RefFn& ref_f0, const std::vector<RefFn>& ref_cons,
                         const gp::SmoothFn& f0, const std::vector<gp::SmoothFn>& cons, double t,
                         const la::Vector& y, gp::BarrierEval& out) {
  const RefBarrierEval ref_value = ref_eval_barrier_value(ref_f0, ref_cons, t, y);
  gp::eval_barrier(f0, cons, t, y, gp::EvalLevel::kValue, out);
  ASSERT_EQ(out.feasible, ref_value.feasible);
  ASSERT_TRUE(same_bits(out.value, ref_value.value));

  const RefBarrierEval ref_full = ref_eval_barrier_full(ref_f0, ref_cons, t, y);
  gp::eval_barrier(f0, cons, t, y, gp::EvalLevel::kFull, out);
  ASSERT_EQ(out.feasible, ref_full.feasible);
  ASSERT_TRUE(same_bits(out.value, ref_full.value));
  if (!ref_full.feasible) return;
  ASSERT_TRUE(same_bits(out.grad, ref_full.grad));
  ASSERT_TRUE(same_bits(out.hess, ref_full.hess));
}

}  // namespace

TEST(LogSpaceKernel, BarrierAssemblyMatchesReference) {
  hydra::util::Xoshiro256 rng(777001);
  gp::BarrierEval out;
  int feasible_points = 0;
  for (int rep = 0; rep < 2500; ++rep) {
    const std::size_t n = rng.uniform_int(1, 10);
    const la::Vector y = draw_point(rng, n);
    const RandomProgram prog = draw_program(rng, n, y);
    // The barrier weights a solve visits: t0 = 8 times powers of μ = 30.
    const double t = 8.0 * std::pow(30.0, static_cast<double>(rng.uniform_int(0, 6)));
    SCOPED_TRACE("program " + std::to_string(rep));

    std::vector<gp::LogSumExp> compiled;
    for (const auto& c : prog.constraints) compiled.emplace_back(c);
    const gp::LogSumExp objective(prog.objective);

    // Phase II.
    std::vector<RefFn> ref_cons;
    std::vector<gp::SmoothFn> cons;
    for (std::size_t i = 0; i < compiled.size(); ++i) {
      ref_cons.push_back(ref_log_fn(prog.constraints[i]));
      cons.push_back(gp::smooth_fn(compiled[i]));
    }
    expect_same_barrier(ref_log_fn(prog.objective), ref_cons, gp::smooth_fn(objective), cons, t,
                        y, out);
    if (out.feasible) ++feasible_points;

    // Phase I over z = (y, s): s above the worst constraint.
    std::vector<RefFn> ref_cons1;
    std::vector<gp::SmoothFn> cons1;
    for (std::size_t i = 0; i < compiled.size(); ++i) {
      ref_cons1.push_back(ref_phase1_constraint(prog.constraints[i]));
      cons1.push_back(gp::minus_slack(compiled[i]));
    }
    const gp::SmoothFn obj1 = [n](const la::Vector& z, gp::EvalLevel level, gp::FnEval& e) {
      e.value = z[n];
      if (level == gp::EvalLevel::kFull) {
        e.grad.assign(z.size());
        e.grad[n] = 1.0;
        e.affine = true;
      }
    };
    la::Vector z(n + 1);
    for (std::size_t i = 0; i < n; ++i) z[i] = y[i];
    z[n] = rng.uniform(-1.0, 4.0);
    expect_same_barrier(ref_phase1_objective(n), ref_cons1, obj1, cons1, t, z, out);
  }
  EXPECT_GT(feasible_points, 2000);
}

TEST(LogSpaceKernel, BarrierSolvesMatchReferenceLoop) {
  // Whole solves: the reference Newton loop over dense callbacks and
  // barrier_minimize over the kernel must visit identical iterates.
  hydra::util::Xoshiro256 rng(99173);
  hydra::testlib::RandomGpOptions opt;
  opt.max_variables = 8;
  opt.max_constraints = 5;
  for (int rep = 0; rep < 300; ++rep) {
    const hydra::testlib::RandomGp rgp = hydra::testlib::make_random_gp(rng, opt);
    const gp::GpProblem& problem = rgp.problem;
    const std::size_t n = problem.num_variables();
    SCOPED_TRACE("gp " + std::to_string(rep));
    const gp::LogSpaceProgram program(problem);

    std::vector<RefFn> ref_cons;
    std::vector<gp::SmoothFn> cons;
    for (std::size_t i = 0; i < program.constraints.size(); ++i) {
      ref_cons.push_back(ref_log_fn(problem.constraints()[i]));
      cons.push_back(gp::smooth_fn(program.constraints[i]));
    }

    // Phase II from the witness.
    la::Vector y0(n);
    for (std::size_t i = 0; i < n; ++i) y0[i] = std::log(rgp.witness[i]);
    const gp::BarrierResult ref =
        ref_barrier_minimize(ref_log_fn(problem.objective()), ref_cons, y0);
    const gp::BarrierResult got =
        gp::barrier_minimize(gp::smooth_fn(program.objective), cons, y0);
    ASSERT_EQ(got.status, ref.status);
    ASSERT_EQ(got.newton_steps, ref.newton_steps);
    ASSERT_TRUE(same_bits(got.objective, ref.objective));
    ASSERT_TRUE(same_bits(got.y, ref.y));

    // Phase I from the origin (usually infeasible there).
    std::vector<RefFn> ref_cons1;
    std::vector<gp::SmoothFn> cons1;
    double worst = -std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < program.constraints.size(); ++i) {
      ref_cons1.push_back(ref_phase1_constraint(problem.constraints()[i]));
      cons1.push_back(gp::minus_slack(program.constraints[i]));
      worst = std::fmax(worst, ref_log_value(problem.constraints()[i], la::Vector(n)));
    }
    const gp::SmoothFn obj1 = [n](const la::Vector& z, gp::EvalLevel level, gp::FnEval& e) {
      e.value = z[n];
      if (level == gp::EvalLevel::kFull) {
        e.grad.assign(z.size());
        e.grad[n] = 1.0;
        e.affine = true;
      }
    };
    la::Vector z0(n + 1);
    z0[n] = worst + 1.0;
    gp::BarrierOptions bopts;
    bopts.duality_gap_tol = 1e-10;
    const gp::BarrierResult ref1 = ref_barrier_minimize(ref_phase1_objective(n), ref_cons1, z0, bopts);
    const gp::BarrierResult got1 = gp::barrier_minimize(obj1, cons1, z0, bopts);
    ASSERT_EQ(got1.status, ref1.status);
    ASSERT_EQ(got1.newton_steps, ref1.newton_steps);
    ASSERT_TRUE(same_bits(got1.y, ref1.y));
  }
}
