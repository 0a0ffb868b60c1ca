#include "gp/solver_registry.h"

#include <utility>

#include "gp/ipm.h"

namespace hydra::gp {

namespace {

/// The incumbent stack: log-space primal barrier with phase-I feasibility
/// (gp/solver.h).  A thin adapter — GpSolver carries the whole
/// implementation — that stamps its registry name onto every result.
class BarrierBackend final : public SolverBackend {
 public:
  BarrierBackend(std::string name, SolveOptions options)
      : name_(std::move(name)), solver_(options) {}

  const std::string& name() const override { return name_; }

  SolveResult solve(const GpProblem& problem,
                    const std::optional<std::vector<double>>& initial_guess) const override {
    SolveResult result = solver_.solve(problem, initial_guess);
    result.backend = name_;
    return result;
  }

 private:
  std::string name_;
  GpSolver solver_;
};

/// Primal-dual filter IPM (gp/ipm.h).  The shared SolveOptions map onto the
/// IPM knobs that have a barrier counterpart; everything else keeps the
/// IpmOptions defaults.
class IpmBackend final : public SolverBackend {
 public:
  IpmBackend(std::string name, const SolveOptions& options) : name_(std::move(name)) {
    options_.tol = options.barrier.duality_gap_tol;
    options_.unbounded_below = options.barrier.unbounded_below;
  }

  const std::string& name() const override { return name_; }

  SolveResult solve(const GpProblem& problem,
                    const std::optional<std::vector<double>>& initial_guess) const override {
    SolveResult result = ipm_solve(problem, initial_guess, options_);
    result.backend = name_;
    return result;
  }

 private:
  std::string name_;
  IpmOptions options_;
};

/// Meta-backend: primary first, secondary when the primary's answer is
/// anything short of a converged optimum, keep the better result.  The
/// adopted result keeps the inner backend's stamp, which is how the
/// differential tests observe a rescue.
class PickBestBackend final : public SolverBackend {
 public:
  PickBestBackend(std::string name, std::unique_ptr<SolverBackend> primary,
                  std::unique_ptr<SolverBackend> secondary)
      : name_(std::move(name)),
        primary_(std::move(primary)),
        secondary_(std::move(secondary)) {}

  const std::string& name() const override { return name_; }

  SolveResult solve(const GpProblem& problem,
                    const std::optional<std::vector<double>>& initial_guess) const override {
    SolveResult first = primary_->solve(problem, initial_guess);
    if (first.ok() && first.converged) return first;
    SolveResult second = secondary_->solve(problem, initial_guess);
    const int r1 = rank(first);
    const int r2 = rank(second);
    if (r2 > r1) return second;
    if (r1 > r2) return first;
    if (first.ok() && second.ok()) {
      // Both usable: keep the better (lower) objective, ties to the primary.
      return second.objective < first.objective ? std::move(second) : std::move(first);
    }
    if (first.status == SolveStatus::kError) {
      first.message = "pick-best: both backends failed — " + primary_->name() + ": " +
                      first.message + "; " + secondary_->name() + ": " + second.message;
    }
    // Matching non-optimal verdicts: the primary's diagnosis stands.
    return first;
  }

 private:
  /// Converged optimum > budget-capped optimum > infeasible/unbounded
  /// verdict > numerical error.
  static int rank(const SolveResult& r) {
    switch (r.status) {
      case SolveStatus::kOptimal:
        return r.converged ? 3 : 2;
      case SolveStatus::kInfeasible:
      case SolveStatus::kUnbounded:
        return 1;
      case SolveStatus::kError:
        return 0;
    }
    return 0;
  }

  std::string name_;
  std::unique_ptr<SolverBackend> primary_;
  std::unique_ptr<SolverBackend> secondary_;
};

SolverRegistry build_global() {
  SolverRegistry registry;
  registry.add("scp/barrier",
               "log-space primal barrier with phase-I feasibility — the "
               "incumbent stack the signomial SCP layer drives (default)",
               [](const SolveOptions& options) {
                 return std::make_unique<BarrierBackend>("scp/barrier", options);
               });
  registry.add("ipm/filter",
               "primal-dual interior point: perturbed KKT Newton system, "
               "fraction-to-boundary rule, inertia-corrected Cholesky, filter "
               "line search; certifies a dual point (kkt_residual)",
               [](const SolveOptions& options) {
                 return std::make_unique<IpmBackend>("ipm/filter", options);
               });
  registry.add("pick-best",
               "meta-backend: scp/barrier first, ipm/filter on error or "
               "non-convergence, better objective wins",
               [](const SolveOptions& options) {
                 return std::make_unique<PickBestBackend>(
                     "pick-best", std::make_unique<BarrierBackend>("scp/barrier", options),
                     std::make_unique<IpmBackend>("ipm/filter", options));
               });
  return registry;
}

}  // namespace

SolverRegistry& SolverRegistry::global() {
  static SolverRegistry registry = build_global();
  return registry;
}

const std::string& resolve_gp_backend(const std::string& configured) {
  static const std::string fallback = kDefaultGpBackend;
  return util::resolve_scoped_name<GpBackendTag>(configured, fallback);
}

SolveResult solve_with_backend(const GpProblem& problem,
                               const std::optional<std::vector<double>>& initial_guess,
                               const std::string& backend, const SolveOptions& options) {
  return SolverRegistry::global()
      .make(resolve_gp_backend(backend), options)
      ->solve(problem, initial_guess);
}

std::string solver_catalog_markdown(const SolverRegistry& registry) {
  return registry.catalog_markdown(
      "# GP solver catalog\n\n"
      "Every GP solver backend registered in `gp::SolverRegistry::global()`, in\n"
      "registration order.  The name is the stable identifier accepted by\n"
      "`--gp-backend` flags and `SweepSpec::gp_backend`, and stamped onto every\n"
      "`SolveResult::backend`.\n\n"
      "**Generated file — do not edit by hand.**  Regenerate after touching the\n"
      "registry with `./build/bench_table1_catalog --solver-catalog-out "
      "docs/solver-catalog.md`\n"
      "(or `HYDRA_UPDATE_CATALOG=1 ./build/test_catalogs`); the ctest suite\n"
      "`test_catalogs` fails whenever this file and the registry disagree.\n\n"
      "| Name | Description |\n|---|---|\n");
}

}  // namespace hydra::gp
