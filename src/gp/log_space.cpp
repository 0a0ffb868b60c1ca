#include "gp/log_space.h"

#include <algorithm>
#include <cmath>

#include "util/contracts.h"

namespace hydra::gp {

namespace {

/// Floor of the running max in the max-shifted log-sum-exp.
constexpr double kShiftFloor = -1e308;

}  // namespace

LogSumExp::LogSumExp(const Posynomial& p) : num_vars_(p.num_vars()) {
  HYDRA_REQUIRE(!p.empty(), "cannot evaluate the log of an empty posynomial");
  terms_.reserve(p.num_terms());
  double max_abs = 0.0;
  for (const Monomial& m : p.terms()) {
    Term term{std::log(m.coeff()), entries_.size(), 0};
    for (VarId v = 0; v < num_vars_; ++v) {
      const double e = m.exponent(v);
      if (e == 0.0) continue;  // +0 and −0 alike: see the header
      entries_.push_back({v, e});
      support_.push_back(v);
      max_abs = std::fmax(max_abs, std::fabs(e));
    }
    term.end = entries_.size();
    terms_.push_back(term);
  }
  std::sort(support_.begin(), support_.end());
  support_.erase(std::unique(support_.begin(), support_.end()), support_.end());
  affine_ = terms_.size() == 1 && std::isfinite(max_abs * max_abs);
}

double LogSumExp::term_log(const Term& term, const double* y) const {
  double acc = term.log_coeff;
  for (std::size_t j = term.begin; j < term.end; ++j) {
    acc += entries_[j].exponent * y[entries_[j].index];
  }
  return acc;
}

void LogSumExp::eval(const linalg::Vector& y, EvalLevel level, FnEval& out) const {
  HYDRA_REQUIRE(y.size() >= num_vars_, "log-space point size mismatch");
  const double* yv = y.data().data();
  const std::size_t n = y.size();

  if (affine_) {
    const double u0 = term_log(terms_[0], yv);
    if (u0 >= kShiftFloor && std::isfinite(u0)) {
      out.value = u0;
      if (level == EvalLevel::kFull) {
        out.grad.assign(n);
        for (std::size_t j = terms_[0].begin; j < terms_[0].end; ++j) {
          out.grad[entries_[j].index] = entries_[j].exponent;
        }
        out.affine = true;
      }
      return;
    }
  }

  // u_k, then in place w_k = exp(u_k − u_max).
  const std::size_t k = terms_.size();
  std::vector<double>& w = out.scratch;
  w.resize(k);
  double u_max = kShiftFloor;
  for (std::size_t t = 0; t < k; ++t) {
    w[t] = term_log(terms_[t], yv);
    u_max = std::fmax(u_max, w[t]);
  }
  double wsum = 0.0;
  for (std::size_t t = 0; t < k; ++t) {
    w[t] = std::exp(w[t] - u_max);
    wsum += w[t];
  }
  out.value = u_max + std::log(wsum);
  if (level == EvalLevel::kValue) return;

  out.affine = false;
  out.grad.assign(n);
  for (std::size_t t = 0; t < k; ++t) {
    const double p = w[t] / wsum;  // softmax weight
    for (std::size_t j = terms_[t].begin; j < terms_[t].end; ++j) {
      out.grad[entries_[j].index] += p * entries_[j].exponent;
    }
  }

  // H = Σ p_k a_k a_kᵀ − g gᵀ, each rank-1 update skipping rows whose scaled
  // entry is zero.
  out.hess.assign(n, n);
  double* h = out.hess.data();
  for (std::size_t t = 0; t < k; ++t) {
    const double p = w[t] / wsum;
    for (std::size_t r = terms_[t].begin; r < terms_[t].end; ++r) {
      const double vr = p * entries_[r].exponent;
      if (vr == 0.0) continue;
      double* row = h + entries_[r].index * n;
      for (std::size_t c = terms_[t].begin; c < terms_[t].end; ++c) {
        row[entries_[c].index] += vr * entries_[c].exponent;
      }
    }
  }
  const linalg::Vector& g = out.grad;
  for (const std::size_t r : support_) {
    const double vr = -1.0 * g[r];
    if (vr == 0.0) continue;
    double* row = h + r * n;
    for (const std::size_t c : support_) row[c] += vr * g[c];
  }
}

SmoothFn smooth_fn(const LogSumExp& f) {
  return [&f](const linalg::Vector& y, EvalLevel level, FnEval& out) { f.eval(y, level, out); };
}

SmoothFn minus_slack(const LogSumExp& f) {
  return [&f](const linalg::Vector& z, EvalLevel level, FnEval& out) {
    const std::size_t s = f.num_vars();
    f.eval(z, level, out);
    out.value -= z[s];
    if (level == EvalLevel::kFull) out.grad[s] = -1.0;
  };
}

LogSpaceProgram::LogSpaceProgram(const GpProblem& problem) : objective(problem.objective()) {
  constraints.reserve(problem.constraints().size());
  for (const Posynomial& c : problem.constraints()) constraints.emplace_back(c);
}

}  // namespace hydra::gp
