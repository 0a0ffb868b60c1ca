#include "exp/metrics.h"

#include <limits>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "core/mode_table.h"
#include "io/taskset_io.h"
#include "stats/summary.h"
#include "util/units.h"

namespace hydra::exp {

namespace {

/// Canonical parameter strings for RowMetric::identity — every knob that
/// changes the metric's VALUES must appear, or the sweep fingerprint cannot
/// tell two configurations apart (and a shard merge would silently mix
/// them).
std::string controller_identity(const sim::ModeControllerConfig& config) {
  // An empty policy resolves against the DEFAULT here, not the ambient
  // ControllerScope: a metric identity must be a pure function of the config
  // (the sweep fingerprints its ambient policy separately via
  // SweepSpec::controller_policy).
  const std::string policy =
      config.policy.empty() ? sim::kDefaultControllerPolicy : config.policy;
  return "ctl(p=" + policy + ",w=" + std::to_string(config.slack_window) +
         ",up=" + format_double(config.tighten_threshold) +
         ",down=" + format_double(config.relax_threshold) +
         ",dwell=" + std::to_string(config.min_dwell) +
         ",budget=" + std::to_string(config.switch_budget) +
         ",levels=" + std::to_string(config.num_levels) +
         ",boost=" + std::to_string(config.boost_window) + ")";
}

enum class PeriodMode { kBest, kMin, kAdapted };

PeriodMode mode_of(const core::TaskPlacement& placement, const rt::SecurityTask& task,
                   double rel_tol) {
  if (util::approx_equal(placement.period, task.period_des, rel_tol, rel_tol)) {
    return PeriodMode::kBest;
  }
  if (util::approx_equal(placement.period, task.period_max, rel_tol, rel_tol)) {
    return PeriodMode::kMin;
  }
  return PeriodMode::kAdapted;
}

double count_mode(const core::Instance& instance, const core::DesignPoint& point,
                  PeriodMode mode, double rel_tol) {
  std::size_t count = 0;
  for (std::size_t s = 0; s < instance.security_tasks.size(); ++s) {
    if (mode_of(point.allocation.placements[s], instance.security_tasks[s], rel_tol) ==
        mode) {
      ++count;
    }
  }
  return static_cast<double>(count);
}

}  // namespace

namespace {

/// Everything the adaptive metric family reads off one row, computed in one
/// pass so N hooks cost one simulation bundle, not N.
struct AdaptiveRowResults {
  double adaptive_mean = 0.0;
  double adaptive_p95 = 0.0;
  double switches = 0.0;
  double adapted_residency = 0.0;
  double denied_dwell = 0.0;
  double denied_budget = 0.0;
  double static_mean = 0.0;
  double min_mode_mean = 0.0;
  double global_mean = 0.0;
};

double mean_of(const sim::DetectionResult& result, const char* what) {
  if (result.deadline_misses != 0) {
    throw std::runtime_error(std::string(what) + ": simulation missed deadlines");
  }
  if (result.detection_ms.empty()) {
    throw std::runtime_error(std::string(what) + ": no attack was ever detected");
  }
  return stats::summarize(result.detection_ms).mean;
}

/// Cache key fully determining the bundle: the instance text round-trip, the
/// scheme's committed placements, and every config field that feeds the
/// simulations.  Collisions are impossible (the key IS the input), so the
/// memo can never change a value — only skip recomputing it.
std::string adaptive_row_key(const core::Instance& instance, const core::DesignPoint& point,
                             const AdaptiveMetricsConfig& config) {
  std::ostringstream key;
  key.precision(std::numeric_limits<double>::max_digits10);
  key << point.scheme << '\n';
  for (const auto& place : point.allocation.placements) {
    key << place.core << ':' << place.period << ';';
  }
  key << '\n'
      << config.detection.horizon << ' ' << config.detection.trials << ' '
      << config.detection.seed << ' ' << static_cast<int>(config.detection.scope) << ' '
      // The policy the simulation will ACTUALLY run — resolved through the
      // ambient ControllerScope at call time, so the thread-local memo can
      // never serve a result simulated under a different ambient policy.
      << sim::resolve_controller_policy(config.controller.policy) << ' '
      << config.controller.slack_window << ' ' << config.controller.tighten_threshold
      << ' ' << config.controller.relax_threshold << ' ' << config.controller.min_dwell
      << ' ' << config.controller.switch_budget << ' ' << config.controller.num_levels
      << ' ' << config.controller.boost_window << ' ' << config.include_static << ' '
      << config.include_min_mode << ' ' << config.include_global << '\n'
      << io::to_text(instance);
  return key.str();
}

AdaptiveRowResults compute_adaptive_row(const core::Instance& instance,
                                        const core::DesignPoint& point,
                                        const AdaptiveMetricsConfig& config) {
  AdaptiveRowResults out;
  const auto adaptive = sim::measure_detection_times_adaptive(
      instance, point.allocation, config.detection, config.controller);
  out.adaptive_mean = mean_of(adaptive.detection, "adaptive");
  out.adaptive_p95 = stats::percentile(adaptive.detection.detection_ms, 0.95);
  out.switches = static_cast<double>(adaptive.modes.total_switches());
  out.adapted_residency = adaptive.modes.mean_adapted_fraction(adaptive.switchable_tasks);
  out.denied_dwell = static_cast<double>(adaptive.modes.total_denied_dwell());
  out.denied_budget = static_cast<double>(adaptive.modes.total_denied_budget());
  if (config.include_static) {
    out.static_mean = mean_of(
        sim::measure_detection_times(instance, point.allocation, config.detection),
        "static");
  }
  if (config.include_min_mode) {
    out.min_mode_mean = mean_of(
        sim::measure_detection_times(
            instance, core::min_mode_allocation(instance, point.allocation),
            config.detection),
        "min-mode");
  }
  if (config.include_global) {
    out.global_mean = mean_of(
        sim::measure_detection_times_global(instance, point.allocation, config.detection),
        "global");
  }
  return out;
}

/// Memoized bundle lookup.  The cache is thread_local and size 1: the sweep
/// invokes a row's metric hooks back-to-back on the worker that owns the row,
/// so consecutive hooks hit while concurrent workers never contend.  Values
/// are pure functions of the key, so caching cannot perturb determinism.
const AdaptiveRowResults& cached_adaptive_row(const core::Instance& instance,
                                              const core::DesignPoint& point,
                                              const AdaptiveMetricsConfig& config) {
  thread_local std::string cached_key;
  thread_local AdaptiveRowResults cached_results;
  std::string key = adaptive_row_key(instance, point, config);
  if (key != cached_key) {
    cached_results = compute_adaptive_row(instance, point, config);
    cached_key = std::move(key);
  }
  return cached_results;
}

}  // namespace

std::vector<RowMetric> adaptive_detection_metrics(const AdaptiveMetricsConfig& config) {
  // Fail at construction, not first evaluation: a bench wiring up an
  // impossible controller should die before the sweep starts.
  config.controller.validate();
  std::vector<RowMetric> metrics;
  const std::string identity =
      detection_metric_identity(config.detection) + controller_identity(config.controller);
  const auto add = [&](std::string name, double AdaptiveRowResults::*field,
                       bool suffixed = true) {
    // The suffix marks the policy family; the baselines are policy-free and
    // keep their canonical names (a bench includes them on one family only).
    if (suffixed) name += config.name_suffix;
    metrics.push_back(RowMetric{
        std::move(name),
        [config, field](const core::Instance& instance, const core::DesignPoint& point) {
          return cached_adaptive_row(instance, point, config).*field;
        },
        identity});
  };
  add("adaptive_mean_detection_ms", &AdaptiveRowResults::adaptive_mean);
  add("adaptive_p95_detection_ms", &AdaptiveRowResults::adaptive_p95);
  add("adaptive_switches", &AdaptiveRowResults::switches);
  add("adapted_residency", &AdaptiveRowResults::adapted_residency);
  add("adaptive_denied_dwell", &AdaptiveRowResults::denied_dwell);
  add("adaptive_denied_budget", &AdaptiveRowResults::denied_budget);
  if (config.include_static) {
    add("static_mean_detection_ms", &AdaptiveRowResults::static_mean, false);
  }
  if (config.include_min_mode) {
    add("min_mode_mean_detection_ms", &AdaptiveRowResults::min_mode_mean, false);
  }
  if (config.include_global) {
    add("global_mean_detection_ms", &AdaptiveRowResults::global_mean, false);
  }
  return metrics;
}

std::string detection_metric_identity(const sim::DetectionConfig& config) {
  return "det(h=" + std::to_string(config.horizon) +
         ",n=" + std::to_string(config.trials) +
         ",seed=" + std::to_string(config.seed) +
         ",scope=" + std::to_string(static_cast<int>(config.scope)) + ")";
}

RowMetric global_detection_metric(const sim::DetectionConfig& config, std::string name) {
  return RowMetric{
      std::move(name),
      [config](const core::Instance& instance, const core::DesignPoint& point) {
        return mean_of(
            sim::measure_detection_times_global(instance, point.allocation, config),
            "global");
      },
      detection_metric_identity(config)};
}

std::vector<RowMetric> period_mode_metrics(double rel_tol) {
  const std::string identity = "tol(" + format_double(rel_tol) + ")";
  return {
      RowMetric{"best_mode_tasks",
                [rel_tol](const core::Instance& instance, const core::DesignPoint& point) {
                  return count_mode(instance, point, PeriodMode::kBest, rel_tol);
                },
                identity},
      RowMetric{"min_mode_tasks",
                [rel_tol](const core::Instance& instance, const core::DesignPoint& point) {
                  return count_mode(instance, point, PeriodMode::kMin, rel_tol);
                },
                identity},
      RowMetric{"adapted_tasks",
                [rel_tol](const core::Instance& instance, const core::DesignPoint& point) {
                  return count_mode(instance, point, PeriodMode::kAdapted, rel_tol);
                },
                identity},
  };
}

}  // namespace hydra::exp
