#include "gp/terms.h"

#include <cmath>
#include <utility>

#include "gp/log_space.h"

namespace hydra::gp {

Monomial::Monomial(double coeff, std::size_t num_vars) : coeff_(coeff), exponents_(num_vars, 0.0) {
  HYDRA_REQUIRE(std::isfinite(coeff) && coeff > 0.0, "monomial coefficient must be positive");
}

Monomial& Monomial::with(VarId v, double exponent) {
  HYDRA_REQUIRE(v < exponents_.size(), "monomial variable index out of range");
  HYDRA_REQUIRE(std::isfinite(exponent), "monomial exponent must be finite");
  exponents_[v] += exponent;
  return *this;
}

double Monomial::exponent(VarId v) const {
  HYDRA_REQUIRE(v < exponents_.size(), "monomial variable index out of range");
  return exponents_[v];
}

double Monomial::eval(const std::vector<double>& x) const {
  HYDRA_REQUIRE(x.size() == exponents_.size(), "monomial evaluation point size mismatch");
  double acc = coeff_;
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (exponents_[i] == 0.0) continue;
    HYDRA_REQUIRE(x[i] > 0.0, "monomial variables must be positive");
    acc *= std::pow(x[i], exponents_[i]);
  }
  return acc;
}

Monomial operator*(const Monomial& a, const Monomial& b) {
  HYDRA_REQUIRE(a.exponents_.size() == b.exponents_.size(), "monomial size mismatch");
  Monomial out(a.coeff_ * b.coeff_, a.exponents_.size());
  for (std::size_t i = 0; i < out.exponents_.size(); ++i) {
    out.exponents_[i] = a.exponents_[i] + b.exponents_[i];
  }
  return out;
}

Monomial Monomial::reciprocal() const {
  Monomial out(1.0 / coeff_, exponents_.size());
  for (std::size_t i = 0; i < exponents_.size(); ++i) out.exponents_[i] = -exponents_[i];
  return out;
}

Monomial Monomial::scaled(double factor) const {
  HYDRA_REQUIRE(std::isfinite(factor) && factor > 0.0, "scale factor must be positive");
  Monomial out = *this;
  out.coeff_ *= factor;
  return out;
}

Posynomial::Posynomial(Monomial m) : num_vars_(m.num_vars()) { terms_.push_back(std::move(m)); }

Posynomial& Posynomial::operator+=(const Monomial& m) {
  HYDRA_REQUIRE(m.num_vars() == num_vars_, "posynomial term size mismatch");
  terms_.push_back(m);
  return *this;
}

Posynomial& Posynomial::operator+=(const Posynomial& p) {
  HYDRA_REQUIRE(p.num_vars_ == num_vars_, "posynomial size mismatch");
  for (const auto& t : p.terms_) terms_.push_back(t);
  return *this;
}

double Posynomial::eval(const std::vector<double>& x) const {
  double acc = 0.0;
  for (const auto& t : terms_) acc += t.eval(x);
  return acc;
}

LogEval Posynomial::log_eval(const linalg::Vector& y, bool need_hess) const {
  HYDRA_REQUIRE(y.size() == num_vars_, "posynomial log point size mismatch");
  FnEval e;
  LogSumExp(*this).eval(y, EvalLevel::kFull, e);
  LogEval out;
  out.value = e.value;
  out.grad = std::move(e.grad);
  if (need_hess) {
    out.hess = e.affine ? linalg::Matrix(num_vars_, num_vars_) : std::move(e.hess);
    out.has_hess = true;
  }
  return out;
}

double Posynomial::log_value(const linalg::Vector& y) const {
  HYDRA_REQUIRE(y.size() == num_vars_, "posynomial log point size mismatch");
  FnEval e;
  LogSumExp(*this).eval(y, EvalLevel::kValue, e);
  return e.value;
}

Posynomial Posynomial::times(const Monomial& m) const {
  Posynomial out(num_vars_);
  for (const auto& t : terms_) out += t * m;
  return out;
}

}  // namespace hydra::gp
