// Monomials and posynomials — the building blocks of geometric programs.
//
// A *monomial* over positive variables x_1..x_n is  c · Π x_i^{a_i}  with
// coefficient c > 0 and arbitrary real exponents a_i.  A *posynomial* is a sum
// of monomials.  Under the substitution x_i = exp(y_i) a monomial becomes
// exp(aᵀy + log c) and a posynomial's logarithm becomes a log-sum-exp —
// a smooth convex function.  This header provides the original-domain
// representation; the solvers evaluate the log-space image through the
// compiled kernel of gp/log_space.h, which log_eval/log_value also use.
//
// This mirrors what GPkit [20] does symbolically in Python; exponents are
// stored densely because HYDRA's programs have at most a few dozen variables.
#pragma once

#include <cstddef>
#include <vector>

#include "linalg/matrix.h"
#include "linalg/vector.h"
#include "util/contracts.h"

namespace hydra::gp {

/// Index of an optimization variable within a GpProblem.
using VarId = std::size_t;

class Monomial {
 public:
  /// Creates the constant monomial `coeff` over `num_vars` variables.
  /// Requires coeff > 0 (GP coefficients are strictly positive).
  Monomial(double coeff, std::size_t num_vars);

  /// Adds `exponent` to the power of variable `v`; returns *this for chaining:
  ///   Monomial(2.0, n).with(x, 1.0).with(y, -1.0)   represents 2·x/y.
  Monomial& with(VarId v, double exponent);

  double coeff() const { return coeff_; }
  std::size_t num_vars() const { return exponents_.size(); }
  double exponent(VarId v) const;

  /// Value in the original (positive-orthant) domain.
  double eval(const std::vector<double>& x) const;

  /// Product of two monomials (exponents add, coefficients multiply).
  friend Monomial operator*(const Monomial& a, const Monomial& b);

  /// Reciprocal monomial (1/m): exponents negate, coefficient inverts.
  Monomial reciprocal() const;

  /// Monomial scaled by a positive constant.
  Monomial scaled(double factor) const;

 private:
  double coeff_;
  std::vector<double> exponents_;
};

/// Evaluation bundle for the log-space image of a posynomial.
struct LogEval {
  double value = 0.0;      ///< F(y) = log Σ exp(a_kᵀ y + b_k)
  linalg::Vector grad;     ///< ∇F(y)
  linalg::Matrix hess;     ///< ∇²F(y); filled only when requested
  bool has_hess = false;
};

class Posynomial {
 public:
  explicit Posynomial(std::size_t num_vars) : num_vars_(num_vars) {}

  /// Builds a posynomial holding a single monomial.
  explicit Posynomial(Monomial m);

  Posynomial& operator+=(const Monomial& m);
  Posynomial& operator+=(const Posynomial& p);

  std::size_t num_vars() const { return num_vars_; }
  std::size_t num_terms() const { return terms_.size(); }
  const std::vector<Monomial>& terms() const { return terms_; }
  bool empty() const { return terms_.empty(); }

  /// Value in the original domain.
  double eval(const std::vector<double>& x) const;

  /// Log-space value, gradient and (optionally) Hessian at y.
  /// Uses the max-shifted softmax formulation for numerical stability.
  /// Compiles the kernel per call; solvers compile once per solve instead.
  LogEval log_eval(const linalg::Vector& y, bool need_hess) const;

  /// Value-only log_eval.
  double log_value(const linalg::Vector& y) const;

  /// Multiplies every term by a monomial (posynomial × monomial is closed).
  Posynomial times(const Monomial& m) const;

 private:
  std::size_t num_vars_;
  std::vector<Monomial> terms_;
};

}  // namespace hydra::gp
