// Reusable RowMetric hooks shared by benches and tests.
//
// RowMetrics (exp/batch.h) attach extra deterministic per-row measurements
// to validated (instance, scheme) evaluations.  This header collects the
// library-provided ones so benches declare them by name instead of re-rolling
// the lambdas.
#pragma once

#include <vector>

#include "exp/batch.h"
#include "sim/attack.h"

namespace hydra::exp {

/// Period-mode accounting for the adaptive allocator families (Contego's
/// best/minimum monitoring modes): three RowMetrics counting, over the
/// validated placements of a row,
///
///   * "best_mode_tasks" — monitors at their desired period (Ts ≈ Tdes, η ≈ 1),
///   * "min_mode_tasks"  — monitors left at the loosest period (Ts ≈ Tmax),
///   * "adapted_tasks"   — monitors strictly between the two modes.
///
/// The three counts always sum to NS.  `rel_tol` is the relative tolerance
/// deciding when a period sits ON a mode boundary (solver output is exact for
/// the closed form; the GP route lands within solver tolerance).
std::vector<RowMetric> period_mode_metrics(double rel_tol = 1e-9);

/// Configuration of the runtime-adaptation metric family below.  The
/// detection seed/horizon/trials come from `detection`; the controller knobs
/// from `controller` — both are baked into the metric closures, so the hooks
/// stay pure functions of (instance, DesignPoint) as RowMetrics require.
struct AdaptiveMetricsConfig {
  sim::DetectionConfig detection;
  sim::ModeControllerConfig controller;
  /// Appended to the adaptive_* metric names (NOT the baselines), e.g.
  /// "/boost" — how a bench runs several controller-policy families side by
  /// side in one sweep without name collisions.  The suffixed names feed the
  /// sweep fingerprint like any other metric name.
  std::string name_suffix;
  /// Also emit the frozen-allocation baseline ("static_mean_detection_ms") —
  /// the design-time bound runtime adaptation approaches from above.
  bool include_static = true;
  /// Also emit the static minimum-mode baseline ("min_mode_mean_detection_ms")
  /// — the always-feasible fallback adaptation improves on.
  bool include_min_mode = true;
  /// Also emit the global-slack bound ("global_mean_detection_ms") — the
  /// optimistic migration end of the design space.
  bool include_global = false;
};

/// Detection latency UNDER runtime adaptation, as RowMetrics: for every
/// accepted (instance, scheme) row the mode-switching engine replays the
/// allocation's mode table (sim::measure_detection_times_adaptive) and the
/// hooks report
///
///   * "adaptive_mean_detection_ms" / "adaptive_p95_detection_ms" — latency
///     with the controller live,
///   * "adaptive_switches" — committed mode switches across all monitors,
///   * "adapted_residency" — mean adapted-mode residency fraction over the
///     switchable monitors (0 when the allocation has no headroom),
///   * "adaptive_denied_dwell" / "adaptive_denied_budget" — controller
///     decisions the dwell rate limit / the exhausted switch budget denied
///     (distinguishes a stable controller from a starved one),
///
/// plus the baselines selected in the config (static = the frozen committed
/// periods, min-mode = everything at Tmax, global = global-slack migration).
/// The controller's policy / num_levels / boost_window are part of every
/// adaptive metric's identity (resolved against the DEFAULT policy when the
/// config leaves it empty — the sweep fingerprints its ambient policy
/// separately via SweepSpec::controller_policy).  Throws on an invalid
/// controller config at construction, not first evaluation.
/// All hooks derive from one simulation bundle per row, memoized per worker
/// thread — the cache only short-circuits recomputation of a pure function,
/// so the sweep's byte-identity across --jobs is preserved.
std::vector<RowMetric> adaptive_detection_metrics(const AdaptiveMetricsConfig& config);

/// Canonical RowMetric::identity string for a DetectionConfig — use it when
/// hand-rolling a detection metric (bench_fig1) so the sweep fingerprint can
/// distinguish runs with different horizons/trials/seeds/scopes.
std::string detection_metric_identity(const sim::DetectionConfig& config);

/// Single RowMetric: mean detection latency under global slack scheduling
/// (sim::measure_detection_times_global) — the optimistic
/// security-jobs-migrate-freely bound, directly comparable against a
/// partitioned detection metric computed with the same DetectionConfig.
RowMetric global_detection_metric(const sim::DetectionConfig& config,
                                  std::string name = "global_mean_detection_ms");

}  // namespace hydra::exp
