// Benchmark-result comparison: the parse/compare/gate logic behind the
// hydra_bench_diff tool, exposed as a library so the regression gate is unit
// testable (the tool is a thin main around these calls).
//
// Inputs are google-benchmark JSON files ("benchmarks" array, one field per
// line — the shape google-benchmark actually emits; we lean on that rather
// than carrying a full JSON parser for two numeric fields).
//
// Comparison semantics the CI gate relies on:
//   * A benchmark present only in the current run is `_new_` — reported,
//     never gated (there is nothing to regress against).
//   * A benchmark present only in the baseline is `_missing_` — it fails the
//     gate: a renamed or deleted benchmark must take its baseline row with
//     it, or the regression it guarded would leave the gate silently.
//   * A baseline row with a zero/absent real_time is `_incomparable_`: a
//     0% delta would silently PASS a --fail-over gate, so it is flagged
//     instead of compared.
//   * A compared benchmark fails the gate when real_time grew more than
//     the threshold OR items_per_second DROPPED more than the threshold —
//     wall-time growth and throughput collapse are both regressions.
#pragma once

#include <istream>
#include <map>
#include <string>
#include <vector>

namespace hydra::io {

struct BenchResult {
  double real_time = 0.0;          ///< in `time_unit` (google-benchmark's field)
  std::string time_unit = "ns";
  double items_per_second = -1.0;  ///< -1 = not reported
};

/// Parses google-benchmark JSON from a stream (`origin` names it in errors).
/// Throws std::runtime_error when no benchmarks are found.
std::map<std::string, BenchResult> parse_bench_results(std::istream& in,
                                                       const std::string& origin);

/// File convenience wrapper; throws std::runtime_error when unreadable.
std::map<std::string, BenchResult> load_bench_results(const std::string& path);

/// One benchmark's comparison verdict.
struct BenchDelta {
  enum class Kind {
    kCompared,      ///< both sides present and comparable
    kNew,           ///< current only
    kMissing,       ///< baseline only
    kIncomparable,  ///< baseline real_time zero/absent — no valid delta exists
  };

  std::string name;
  Kind kind = Kind::kCompared;
  BenchResult baseline;     ///< meaningless when kNew
  BenchResult current;      ///< meaningless when kMissing
  double time_pct = 0.0;    ///< real_time change, % (kCompared only)
  bool has_items = false;   ///< both sides reported items_per_second
  double items_pct = 0.0;   ///< items/s change, % (kCompared && has_items)
};

/// Compares current against baseline: current benchmarks in name order
/// (compared / new / incomparable), then baseline-only benchmarks (missing).
std::vector<BenchDelta> diff_bench_results(
    const std::map<std::string, BenchResult>& baseline,
    const std::map<std::string, BenchResult>& current);

/// The --fail-over gate: human-readable violation lines, empty when the gate
/// passes.  `fail_over_pct < 0` disables the gate.  Violations are compared
/// rows whose real_time grew more than `fail_over_pct` percent or whose
/// items_per_second dropped more than `fail_over_pct` percent, and every
/// missing (baseline-only) row; new and incomparable rows never gate (but
/// render flagged, never as 0%).
std::vector<std::string> bench_gate_violations(const std::vector<BenchDelta>& deltas,
                                               double fail_over_pct);

/// GitHub-flavored markdown table (for $GITHUB_STEP_SUMMARY).
std::string render_bench_diff_markdown(const std::vector<BenchDelta>& deltas);

/// Fixed-width terminal table.
std::string render_bench_diff_text(const std::vector<BenchDelta>& deltas);

}  // namespace hydra::io
