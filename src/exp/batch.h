// Batch specification and per-item kernel of the sweep layer: where the
// instances of a grid point come from, how each one is reproduced, and how
// one instance is evaluated against a scheme list.
//
// Two sources are supported:
//
//   * synthetic — `count` draws from gen/synthetic with a deterministic
//     per-instance seed derived from `base_seed` and the instance index
//     (splitmix64 mix), so instance k is byte-identical no matter which
//     worker thread draws it or in what order;
//   * files — task-set files in io/taskset_io format, one instance per path
//     (set `files`; it overrides the synthetic source when non-empty).
//
// `enumerate` expands a spec into lightweight per-instance descriptors;
// `materialize` performs the actual draw/load for one descriptor.  The split
// exists so the sweep can parallelize materialization across workers while
// the descriptor list stays cheap and ordered.  `evaluate_batch_item` is the
// pure function exp::Sweep fans out to its workers.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/allocator.h"
#include "core/instance.h"
#include "exp/sinks.h"
#include "gen/synthetic.h"

namespace hydra::exp {

struct BatchSpec {
  // Synthetic source.
  std::size_t count = 0;                ///< number of instances to draw
  gen::SyntheticConfig synthetic;       ///< generator configuration
  double total_utilization = 1.0;       ///< RT + security utilization target
  std::uint64_t base_seed = 1;          ///< sweep-level seed
  int max_attempts = 64;                ///< Eq. (1) redraw budget per instance

  // File source (overrides synthetic when non-empty).
  std::vector<std::string> files;

  std::size_t size() const { return files.empty() ? count : files.size(); }
};

/// One instance of a batch, before materialization.
struct BatchItem {
  std::size_t index = 0;      ///< position in the batch (stable output order)
  std::string label;          ///< "seed=..." or the file path
  std::uint64_t seed = 0;     ///< per-instance seed (0 for file items)
  std::string file;           ///< empty for synthetic items
};

/// The deterministic per-instance seed: splitmix64 over (base_seed, index).
std::uint64_t instance_seed(std::uint64_t base_seed, std::size_t index);

/// Expands a workload-corpus path spec into the ordered file list a
/// BatchSpec::files (or SweepPoint::files) source consumes:
///
///   * a directory — every regular file inside with a workload extension
///     (.txt / .taskset / .workload), recursively, sorted lexicographically
///     so the batch order never depends on directory-iteration order;
///   * a pattern whose last component contains '*' or '?' — the matching
///     regular files in the parent directory, sorted;
///   * anything else — the path itself, unchecked (materialize reports a
///     per-instance error if it cannot be loaded).
///
/// Throws std::runtime_error when a directory or pattern matches nothing —
/// an empty regression sweep is always a misconfiguration, not a result.
std::vector<std::string> expand_workload_files(const std::string& spec);

/// Expands the spec into its ordered descriptor list.
std::vector<BatchItem> enumerate(const BatchSpec& spec);

/// Result of materializing one descriptor.  `instance` is empty when the
/// synthetic draw found no Eq.-(1)-satisfying task set (a normal outcome at
/// extreme utilization — the sweep reports it per scheme as "no-instance")
/// or when a file failed to load (`error` carries the reason).
struct MaterializedItem {
  std::optional<core::Instance> instance;
  double rt_utilization = 0.0;
  double sec_utilization = 0.0;
  std::string error;
};

MaterializedItem materialize(const BatchSpec& spec, const BatchItem& item);

/// A per-row metric hook: computed for every feasible, validated (instance,
/// scheme) evaluation and appended to the row's `metrics` in declaration
/// order.  `compute` MUST be a deterministic pure function of its arguments
/// (seed any internal simulation from the instance/row data, never from a
/// clock) — it runs on worker threads and its results are covered by the
/// byte-identical-across-jobs guarantee.  A throwing metric turns the row
/// into an "error" row; it does not abort the sweep.
struct RowMetric {
  std::string name;
  std::function<double(const core::Instance&, const core::DesignPoint&)> compute;
  /// Canonical description of every parameter baked into `compute`'s closure
  /// (trials, horizons, seeds, thresholds...).  Two metrics with the same
  /// name but different parameters produce different row bytes, and this
  /// string is the only way the sweep's spec fingerprint — and therefore the
  /// shard-merge and resume safety checks — can see that.  Library metric
  /// factories (exp/metrics.h) fill it; leave "" only for parameterless
  /// hooks.
  std::string identity;
};

/// Evaluates every scheme on one batch item: the pure function the exp::Sweep
/// work queue fans out to workers.  `preloaded` (optional) bypasses
/// materialization for instance-backed items.
/// Never throws — any failure becomes one "error" row per scheme, which is
/// what keeps an escaped exception from terminating a worker thread.
std::vector<BatchRow> evaluate_batch_item(
    const BatchSpec& spec, const BatchItem& item, const core::Instance* preloaded,
    const std::vector<std::unique_ptr<core::Allocator>>& schemes,
    std::size_t optimal_budget, const std::vector<RowMetric>& metrics = {});

}  // namespace hydra::exp
