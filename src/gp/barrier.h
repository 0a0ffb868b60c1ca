// Primal barrier interior-point method for smooth convex programs
//
//     minimize    F0(y)
//     subject to  Fi(y) < 0,  i = 1..p
//
// following Boyd & Vandenberghe, "Convex Optimization" [29, Ch. 11]: an outer
// loop increases the barrier weight t geometrically; each inner loop runs
// damped Newton with backtracking line search on
//
//     φ_t(y) = t·F0(y) − Σ_i log(−Fi(y)).
//
// The functions are supplied through the `SmoothFn` callback so both the GP
// phase-II problem (log-sum-exp functions) and the phase-I feasibility
// problem (log-sum-exp minus a slack variable) run through this one loop.
//
// Callback contract.  A SmoothFn writes its evaluation into a caller-owned
// FnEval that the barrier reuses across calls and functions, so callbacks
// should assign into its buffers (Vector::assign, Matrix::assign) rather than
// replace them.  Line searches request value-only evaluations
// (EvalLevel::kValue): write `value` and nothing else.  Newton steps request
// EvalLevel::kFull: write `value`, `grad` (sized to y) and `affine`, and
// `hess` unless `affine` is set — an affine function's Hessian is exactly
// zero, so the barrier skips it.  The compiled GP functions of gp/log_space.h
// follow this contract.
#pragma once

#include <functional>
#include <vector>

#include "linalg/matrix.h"
#include "linalg/vector.h"

namespace hydra::gp {

/// How much of the evaluation the solver needs at this point.
enum class EvalLevel {
  kValue,  ///< value only (line searches); grad/hess may be left empty
  kFull,   ///< value, gradient and Hessian (Newton step assembly)
};

/// Value / gradient / Hessian of a smooth scalar function, in caller-owned
/// buffers that successive evaluations overwrite.
struct FnEval {
  double value = 0.0;
  linalg::Vector grad;  ///< kFull: ∇F(y)
  linalg::Matrix hess;  ///< kFull and !affine: ∇²F(y)
  bool affine = false;  ///< kFull: ∇²F ≡ 0 and `hess` was not written
  std::vector<double> scratch;  ///< callee workspace, kept between calls
};

/// Callback evaluating a smooth convex function at y into `out`.
using SmoothFn = std::function<void(const linalg::Vector& y, EvalLevel level, FnEval& out)>;

struct BarrierOptions {
  double t0 = 8.0;              ///< initial barrier weight
  double mu = 30.0;             ///< barrier weight multiplier per outer step
  double duality_gap_tol = 1e-8;  ///< stop when p/t < tol
  /// Inner-loop stop: λ²/2 below this.  Self-concordance theory only needs
  /// modest centering (λ ≲ 0.25); demanding much more wastes Newton steps
  /// fighting floating-point noise at large t.
  double newton_tol = 1e-7;
  int max_newton_per_stage = 120;
  double armijo_alpha = 0.25;   ///< backtracking sufficient-decrease factor
  double backtrack_beta = 0.5;  ///< backtracking step shrink factor
  int max_backtracks = 40;
  /// Treat the problem as unbounded if the objective falls below this.
  double unbounded_below = -1e12;
};

enum class BarrierStatus {
  kOptimal,        ///< converged to tolerance
  kMaxIterations,  ///< iteration budget exhausted (best iterate returned)
  kUnbounded,      ///< objective diverged towards -inf
};

struct BarrierResult {
  BarrierStatus status = BarrierStatus::kMaxIterations;
  linalg::Vector y;          ///< final (strictly feasible) iterate
  double objective = 0.0;    ///< F0 at the final iterate
  int newton_steps = 0;      ///< total Newton iterations across stages
};

/// φ_t at one point, with the buffers of the evaluations behind it.
struct BarrierEval {
  double value = 0.0;
  bool feasible = false;  ///< false: y violates a constraint (value is +inf)
  linalg::Vector grad;    ///< kFull only
  linalg::Matrix hess;    ///< kFull only
  FnEval fn;              ///< scratch for the F0/Fi evaluations
};

/// Evaluates φ_t(y) = t·F0(y) − Σ log(−Fi(y)) into `out` (gradient and Hessian
/// too at EvalLevel::kFull).  A point with a non-finite coordinate counts as
/// infeasible.  barrier_minimize is built on this; it is public so the
/// differential tests can compare its arithmetic with a reference.
void eval_barrier(const SmoothFn& f0, const std::vector<SmoothFn>& constraints, double t,
                  const linalg::Vector& y, EvalLevel level, BarrierEval& out);

/// Minimizes F0 over {y : Fi(y) < 0 ∀i} starting from the *strictly feasible*
/// point y0.  Throws std::invalid_argument if y0 is not strictly feasible.
BarrierResult barrier_minimize(const SmoothFn& f0, const std::vector<SmoothFn>& constraints,
                               const linalg::Vector& y0, const BarrierOptions& opts = {});

}  // namespace hydra::gp
