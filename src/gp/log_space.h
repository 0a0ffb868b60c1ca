// Compiled log-space kernel: the one place a GP's log-sum-exp functions are
// evaluated.
//
// Under x = exp(y) a posynomial Σ_k c_k·Π x_i^{a_ki} becomes
//
//     F(y) = log Σ_k exp(u_k),   u_k = log c_k + a_kᵀy.
//
// LogSumExp compiles one posynomial into that form once per solve: every term
// keeps its cached log c_k and a sparse row of its non-zero exponents in
// ascending variable order.  Evaluations write into a caller-owned FnEval
// (gp/barrier.h) whose buffers are reused, so a solve allocates nothing per
// call.  A single-term function (every add_bounds constraint, every condensed
// SCP objective) is affine in y: it reports its gradient as its exponent row
// and sets FnEval::affine, and its consumers skip its all-zero Hessian.
//
// Exactness.  Every floating-point operation the kernel performs is one the
// dense evaluation it replaced (a loop over all n variables per term, softmax
// weights, two rank-1 Hessian updates) performed, in the same order, so
// values, gradients and Hessians are bit-identical for finite y whose term
// logs u_k are finite and at least −1e308 (the max-shift floor).  The
// operations it drops only ever add a signed zero:
//   * a zero exponent contributes a·y_i = ±0 to u_k.  u_k starts at log c_k,
//     which is +0 (c = 1) or non-zero, and a round-to-nearest sum is −0 only
//     when both addends are −0, so u_k is never −0 and adding ±0 leaves it
//     unchanged;
//   * the same holds for gradient and Hessian entries, which start at +0 and
//     are only ever added to, and for the consumers' accumulators (the
//     barrier's t·∇²F0 with t >= 1, the IPM's condensed matrix);
//   * for one term, u_max = u_0, the weight is exp(0) = 1, and the value is
//     u_0 + log(1) = u_0; the gradient is 0 + 1·a = a with ±0 read as +0; and
//     each Hessian entry is (a_r·a_c) + (−a_r·a_c) = +0 (the compile step
//     only flags a term affine when |a|² cannot overflow).
// tests/test_gp_log_space.cpp keeps the dense reference verbatim and checks
// all of this with memcmp over seeded random posynomials.
#pragma once

#include <cstddef>
#include <vector>

#include "gp/barrier.h"
#include "gp/problem.h"
#include "gp/terms.h"
#include "linalg/vector.h"

namespace hydra::gp {

/// F(y) = log Σ_k exp(log c_k + a_kᵀy) of one posynomial.
class LogSumExp {
 public:
  explicit LogSumExp(const Posynomial& p);

  std::size_t num_vars() const { return num_vars_; }

  /// Evaluates at y (finite, y.size() >= num_vars(); coordinates past
  /// num_vars() are constants of F).  kValue writes out.value only; kFull
  /// also writes out.grad (sized to y) and out.affine, and out.hess (sized
  /// to y) unless the evaluation is affine.
  void eval(const linalg::Vector& y, EvalLevel level, FnEval& out) const;

 private:
  struct Entry {
    std::size_t index;
    double exponent;
  };
  struct Term {
    double log_coeff;
    std::size_t begin;  ///< [begin, end) into entries_
    std::size_t end;
  };

  double term_log(const Term& term, const double* y) const;

  std::size_t num_vars_;
  bool affine_ = false;  ///< one term whose |a|² cannot overflow
  std::vector<Term> terms_;
  std::vector<Entry> entries_;
  std::vector<std::size_t> support_;  ///< ascending union of the terms' indices
};

/// `f` as a barrier callback; `f` must outlive it.
SmoothFn smooth_fn(const LogSumExp& f);

/// Phase I's slack-augmented F(y) − s over z = (y, s) with s = z[f.num_vars()].
/// F reads only y and sizes its gradient and Hessian to z, so the slack's
/// entries stay zero apart from its gradient entry −1.  `f` must outlive it.
SmoothFn minus_slack(const LogSumExp& f);

/// A GpProblem's objective and constraints, compiled once per solve.
struct LogSpaceProgram {
  explicit LogSpaceProgram(const GpProblem& problem);

  LogSumExp objective;
  std::vector<LogSumExp> constraints;
};

}  // namespace hydra::gp
