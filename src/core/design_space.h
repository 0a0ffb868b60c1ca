// Design-space exploration driver — the workflow the paper's title and
// conclusion describe: "Since we provide comparisons of our solution with two
// extremes — an 'optimal' assignment strategy and isolating all security
// tasks to a single core — we are able to provide valuable hints to designers
// on how to build security into such systems."
//
// `explore_design_space` is now a thin single-instance convenience over the
// pluggable allocation API (core/allocator.h + core/registry.h): it builds
// the paper's scheme line-up, runs `evaluate_scheme` on each, and collects
// the comparison.  Batch sweeps over many instances — with worker threads and
// streaming sinks — are exp::Sweep (exp/sweep.h).
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/allocator.h"
#include "core/hydra.h"
#include "core/instance.h"
#include "core/optimal.h"
#include "core/single_core.h"

namespace hydra::core {

struct ExplorationOptions {
  HydraOptions hydra;
  SingleCoreOptions single_core;
  /// The exhaustive comparator is exponential in NS; it is skipped unless
  /// M^NS stays within this budget (0 disables it entirely).
  std::size_t optimal_budget = 4096;
  OptimalOptions optimal;
};

struct ExplorationReport {
  std::vector<DesignPoint> points;

  /// The feasible point with the highest cumulative tightness, if any.
  std::optional<std::size_t> best_index() const;

  /// True iff at least one scheme produced a feasible, validated allocation.
  bool any_feasible() const;
};

/// The paper's scheme line-up for one instance, each entry ready for
/// `evaluate_scheme`: HYDRA in the caller's configuration, HYDRA with exact
/// RTA (unless already requested), SingleCore (when M >= 2), and Optimal
/// (when M^NS fits the budget).  Exposed so callers can inspect or extend the
/// line-up before evaluating.
std::vector<std::unique_ptr<Allocator>> paper_scheme_lineup(
    const Instance& instance, const ExplorationOptions& options = {});

/// Evaluates HYDRA (paper configuration), HYDRA with exact RTA, SingleCore,
/// and — when affordable — the exhaustive Optimal on `instance`.
ExplorationReport explore_design_space(const Instance& instance,
                                       const ExplorationOptions& options = {});

/// Evaluates the registry schemes named in `schemes` (e.g. {"hydra",
/// "single-core", "optimal"}) on `instance`.  Unknown names throw.
ExplorationReport explore_design_space(const Instance& instance,
                                       const std::vector<std::string>& schemes);

}  // namespace hydra::core
