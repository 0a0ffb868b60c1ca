#include "core/registry.h"

#include <stdexcept>

#include "core/contego.h"
#include "core/hydra.h"
#include "core/optimal.h"
#include "core/period_adapt.h"
#include "core/single_core.h"
#include "core/util_fit.h"

namespace hydra::core {

std::unique_ptr<Allocator> AllocatorRegistry::make(const std::string& name) const {
  auto allocator = NamedRegistry::make(name);
  allocator->set_name(name);
  return allocator;
}

std::vector<std::unique_ptr<Allocator>> AllocatorRegistry::make_all(
    const std::vector<std::string>& names) const {
  if (names.empty()) {
    throw std::invalid_argument("scheme selection names no schemes");
  }
  std::vector<std::unique_ptr<Allocator>> allocators;
  allocators.reserve(names.size());
  for (const auto& name : names) {
    allocators.push_back(make(name));
  }
  return allocators;
}

namespace {

AllocatorRegistry build_global() {
  AllocatorRegistry registry;
  registry.add("hydra", "HYDRA, paper defaults (Algorithm 1, closed-form Eq. 7)",
               [] { return std::make_unique<HydraAllocator>(); });
  registry.add("hydra/gp", "HYDRA with the paper's GP subproblem solver", [] {
    HydraOptions options;
    options.solver = PeriodSolver::kGeometricProgram;
    return std::make_unique<HydraAllocator>(options);
  });
  registry.add("hydra/exact-rta",
               "HYDRA with exact response-time analysis (tighter periods)", [] {
                 HydraOptions options;
                 options.solver = PeriodSolver::kExactRta;
                 return std::make_unique<HydraAllocator>(options);
               });
  registry.add("hydra/first-fit",
               "ablation: first feasible core instead of argmax tightness", [] {
                 HydraOptions options;
                 options.core_pick = CorePick::kFirstFeasible;
                 return std::make_unique<HydraAllocator>(options);
               });
  registry.add("hydra/least-loaded", "ablation: least-loaded feasible core", [] {
    HydraOptions options;
    options.core_pick = CorePick::kLeastLoaded;
    return std::make_unique<HydraAllocator>(options);
  });
  registry.add("hydra/worst-tightness",
               "ablation: adversarial argmin-tightness core pick", [] {
                 HydraOptions options;
                 options.core_pick = CorePick::kWorstTightness;
                 return std::make_unique<HydraAllocator>(options);
               });
  registry.add("hydra/tie=lowest-index",
               "ablation: lowest-index tie break (default spreads load)", [] {
                 HydraOptions options;
                 options.tie_break = TieBreak::kLowestIndex;
                 return std::make_unique<HydraAllocator>(options);
               });
  registry.add("single-core", "all security tasks isolated on a dedicated core",
               [] { return std::make_unique<SingleCoreAllocator>(); });
  registry.add("single-core/joint",
               "single-core with joint GP refinement of the dedicated core", [] {
                 SingleCoreOptions options;
                 options.joint_refinement = true;
                 return std::make_unique<SingleCoreAllocator>(options);
               });
  registry.add("optimal",
               "exhaustive assignment search, signomial SCP joint periods",
               [] { return std::make_unique<OptimalAllocator>(); });
  registry.add("optimal/sum-surrogate",
               "exhaustive assignment search, sum-surrogate GP objective", [] {
                 OptimalOptions options;
                 options.joint.objective = JointObjective::kSumSurrogate;
                 return std::make_unique<OptimalAllocator>(options);
               });
  registry.add("contego",
               "Contego-style adaptive allocation: minimum-mode placement, "
               "slack-aware opportunistic tightening",
               [] { return std::make_unique<ContegoAllocator>(); });
  registry.add("contego/no-adapt",
               "ablation: Contego placement with every monitor left in minimum "
               "mode (Tmax)",
               [] {
                 ContegoOptions options;
                 options.adapt = false;
                 return std::make_unique<ContegoAllocator>(options);
               });
  registry.add("period-adapt",
               "period-adaptation-only baseline: fixed first-fit partition, "
               "per-core slack-aware period optimization",
               [] { return std::make_unique<PeriodAdaptAllocator>(); });
  registry.add("period-adapt/gp",
               "period adaptation with joint GP (signomial SCP) refinement of "
               "the fixed partition",
               [] {
                 PeriodAdaptOptions options;
                 options.joint_gp = true;
                 return std::make_unique<PeriodAdaptAllocator>(options);
               });
  registry.add("util/worst-fit",
               "utilization-aware worst-fit: least security-loaded feasible core",
               [] { return std::make_unique<UtilFitAllocator>(); });
  registry.add("util/best-fit",
               "utilization-aware best-fit: most security-loaded feasible core",
               [] {
                 UtilFitOptions options;
                 options.fit = UtilFit::kBestFit;
                 return std::make_unique<UtilFitAllocator>(options);
               });
  return registry;
}

}  // namespace

AllocatorRegistry& AllocatorRegistry::global() {
  static AllocatorRegistry registry = build_global();
  return registry;
}

std::string scheme_catalog_markdown(const AllocatorRegistry& registry) {
  return registry.catalog_markdown(
      "# Scheme catalog\n\n"
      "Every allocation scheme registered in `AllocatorRegistry::global()`, in\n"
      "registration order.  The name is the stable identifier accepted by every\n"
      "`--schemes` flag and stamped verbatim on result rows.\n\n"
      "**Generated file — do not edit by hand.**  Regenerate after touching the\n"
      "registry with `./build/bench_table1_catalog --catalog-out "
      "docs/scheme-catalog.md`\n"
      "(or `HYDRA_UPDATE_CATALOG=1 ./build/test_catalogs`); the ctest suite\n"
      "`test_catalogs` fails whenever this file and the registry disagree.\n\n"
      "| Name | Description |\n|---|---|\n");
}

}  // namespace hydra::core
