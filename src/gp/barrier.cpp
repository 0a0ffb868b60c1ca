#include "gp/barrier.h"

#include <cmath>
#include <limits>

#include "linalg/cholesky.h"
#include "util/contracts.h"

namespace hydra::gp {

void eval_barrier(const SmoothFn& f0, const std::vector<SmoothFn>& constraints, double t,
                  const linalg::Vector& y, EvalLevel level, BarrierEval& out) {
  out.value = std::numeric_limits<double>::infinity();
  out.feasible = false;
  if (!y.all_finite()) return;
  const bool full = level == EvalLevel::kFull;
  const std::size_t n = y.size();
  FnEval& fn = out.fn;

  f0(y, level, fn);
  double value = t * fn.value;
  if (full) {
    out.grad = fn.grad;
    out.grad *= t;
    if (fn.affine) {
      out.hess.assign(n, n);
    } else {
      out.hess = fn.hess;
      out.hess *= t;
    }
  }
  for (const auto& ci : constraints) {
    ci(y, level, fn);
    if (!(fn.value < 0.0)) return;  // infeasible
    value -= std::log(-fn.value);
    if (!full) continue;
    const double inv = 1.0 / (-fn.value);  // > 0
    for (std::size_t k = 0; k < n; ++k) out.grad[k] += inv * fn.grad[k];
    // ∇² of −log(−Fi) = (1/Fi²)·g gᵀ + (1/(−Fi))·H.
    out.hess.add_outer(fn.grad, inv * inv);
    if (!fn.affine) out.hess.add_scaled(fn.hess, inv);
  }
  out.value = value;
  out.feasible = true;
}

BarrierResult barrier_minimize(const SmoothFn& f0, const std::vector<SmoothFn>& constraints,
                               const linalg::Vector& y0, const BarrierOptions& opts) {
  HYDRA_REQUIRE(y0.size() > 0, "barrier_minimize: empty start point");
  // `cur` holds the Newton point's full evaluation, `trial` the line search's
  // value-only ones; their buffers live for the whole solve.
  BarrierEval cur;
  BarrierEval trial;
  eval_barrier(f0, constraints, opts.t0, y0, EvalLevel::kValue, trial);
  HYDRA_REQUIRE(trial.feasible, "barrier_minimize: start point is not strictly feasible");

  BarrierResult result;
  result.y = y0;
  double t = opts.t0;
  // One scratch set for the whole solve: every Newton iteration reuses these
  // buffers instead of allocating a fresh Matrix/Vector quartet per step.
  linalg::SpdWorkspace spd_ws;
  linalg::Vector neg_grad;
  linalg::Vector cand;
  const double m = static_cast<double>(constraints.size());
  // With no constraints the inner tolerance IS the final accuracy (there is
  // no outer loop to tighten things); Newton is quadratic near the optimum,
  // so a much smaller tolerance costs only a couple of extra steps.
  const double newton_tol =
      constraints.empty() ? std::fmin(opts.newton_tol, 1e-14) : opts.newton_tol;

  while (true) {
    // --- Inner loop: damped Newton on φ_t. ---
    for (int it = 0; it < opts.max_newton_per_stage; ++it) {
      eval_barrier(f0, constraints, t, result.y, EvalLevel::kFull, cur);
      HYDRA_ASSERT(cur.feasible, "iterate left the feasible region");

      neg_grad = cur.grad;
      neg_grad *= -1.0;
      const linalg::Vector& step = linalg::solve_spd_into(cur.hess, neg_grad, spd_ws);
      // Newton decrement λ² = gradᵀ H⁻¹ grad = −gradᵀ·step.
      const double decrement = -dot(cur.grad, step);
      if (decrement * 0.5 <= newton_tol) break;

      // Backtracking line search: stay strictly feasible + Armijo decrease.
      double step_len = 1.0;
      bool moved = false;
      cand.assign(result.y.size());
      for (int bt = 0; bt < opts.max_backtracks; ++bt) {
        for (std::size_t i = 0; i < cand.size(); ++i) {
          cand[i] = result.y[i] + step_len * step[i];
        }
        eval_barrier(f0, constraints, t, cand, EvalLevel::kValue, trial);
        if (trial.feasible &&
            trial.value <= cur.value - opts.armijo_alpha * step_len * decrement) {
          result.y = cand;
          moved = true;
          break;
        }
        step_len *= opts.backtrack_beta;
      }
      ++result.newton_steps;
      if (!moved) break;  // step too small to make progress at this t

      f0(result.y, EvalLevel::kValue, trial.fn);
      const double obj = trial.fn.value;
      if (obj < opts.unbounded_below) {
        result.status = BarrierStatus::kUnbounded;
        result.objective = obj;
        return result;
      }
    }

    f0(result.y, EvalLevel::kValue, trial.fn);
    result.objective = trial.fn.value;
    if (m == 0.0 || m / t < opts.duality_gap_tol) {
      result.status = BarrierStatus::kOptimal;
      return result;
    }
    if (result.newton_steps >= 20 * opts.max_newton_per_stage) {
      result.status = BarrierStatus::kMaxIterations;
      return result;
    }
    t *= opts.mu;
  }
}

}  // namespace hydra::gp
