// Name-indexed construction of GP solver backends: CLI flags like
// `--gp-backend ipm/filter` and SweepSpec::gp_backend pick the solver that
// every plain-GP solve in the process runs through, without compiling against
// backend option structs.
//
// The global registry ships three backends: `scp/barrier` (the default),
// `ipm/filter` and the `pick-best` meta-backend over the two;
// docs/solver-catalog.md is the generated list with descriptions.
//
// Backend selection threads through the stack two ways: explicitly (ScpOptions,
// JointPeriodOptions, SweepSpec carry a backend name) and ambiently via
// GpBackendScope, which reaches call sites that have no options plumbing
// (period_adaptation's one-variable GP inside contego).  SweepSpec::gp_backend
// is stamped into sweep_fingerprint, so rows solved by different backends
// disagree loudly.  The registry and scope mechanics are util::NamedRegistry
// and util::ThreadScope (docs/architecture.md, "Registries and ambient
// scopes").  docs/solver-authoring.md walks through adding a backend end to
// end.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "gp/problem.h"
#include "gp/solver.h"
#include "util/named_registry.h"
#include "util/thread_scope.h"

namespace hydra::gp {

/// The backend every call site uses when neither an option struct nor a
/// GpBackendScope names one.  Keeping this the incumbent stack preserves
/// byte-identical sweep rows across the registry refactor (tested).
inline constexpr const char* kDefaultGpBackend = "scp/barrier";

/// A plain-GP solve strategy.  The signomial SCP layer sits ABOVE this
/// interface: it builds condensed convex GPs and solves each through a
/// backend, so every backend automatically serves SCP too.
class SolverBackend {
 public:
  virtual ~SolverBackend() = default;

  /// The registered name (stamped into SolveResult::backend).
  virtual const std::string& name() const = 0;

  /// Solves the program.  Same contract as GpSolver::solve: throws
  /// std::invalid_argument on malformed programs, never throws for numerical
  /// failures (those come back as kError with a diagnostic message).
  virtual SolveResult solve(const GpProblem& problem,
                            const std::optional<std::vector<double>>& initial_guess =
                                std::nullopt) const = 0;
};

class SolverRegistry : public util::NamedRegistry<SolverBackend, const SolveOptions&> {
 public:
  SolverRegistry() : NamedRegistry("GP solver backend") {}

  /// Constructs the backend registered under `name`; the result's
  /// SolverBackend::name() reports exactly `name`.
  std::unique_ptr<SolverBackend> make(const std::string& name,
                                      const SolveOptions& options = {}) const {
    return NamedRegistry::make(name, options);
  }

  /// The process-wide registry pre-populated with the built-in backends.
  static SolverRegistry& global();
};

/// Tags the thread-local backend selection.  The sweep installs one
/// GpBackendScope per unit; an empty name re-selects the default, which is
/// how the sweep-layer warm-start memo pins its canonical solves to
/// scp/barrier regardless of the spec's backend.
struct GpBackendTag {};
using GpBackendScope = util::ThreadScope<std::string, GpBackendTag>;

/// Resolves which backend a call site should use: an explicitly configured
/// non-empty `configured` name wins, else the innermost GpBackendScope, else
/// kDefaultGpBackend.
const std::string& resolve_gp_backend(const std::string& configured);

/// One-shot convenience: resolve (explicit > scope > default), construct from
/// the global registry, solve.  The hot SCP loop instead holds the
/// constructed backend across rounds; this is for one-off solves.
SolveResult solve_with_backend(const GpProblem& problem,
                               const std::optional<std::vector<double>>& initial_guess =
                                   std::nullopt,
                               const std::string& backend = {},
                               const SolveOptions& options = {});

/// Renders the registry as the markdown solver catalog committed at
/// docs/solver-catalog.md.  Regenerate with
/// `bench_table1_catalog --solver-catalog-out docs/solver-catalog.md` (or
/// `HYDRA_UPDATE_CATALOG=1 ./build/test_catalogs`).
std::string solver_catalog_markdown(const SolverRegistry& registry);

}  // namespace hydra::gp
