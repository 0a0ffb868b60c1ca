// Scalar summaries and the accounting helpers the experiment harnesses share:
// acceptance-ratio counters (Fig. 2) and relative-change computations.
#pragma once

#include <cstddef>
#include <vector>

namespace hydra::stats {

struct Summary {
  std::size_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;  ///< population standard deviation
  double min = 0.0;
  double max = 0.0;
};

/// Throws on empty input.
Summary summarize(const std::vector<double>& samples);

/// Linear-interpolation percentile (the R-7 / NumPy "linear" definition):
/// with the samples sorted ascending, rank h = p·(n−1) and the result is
/// x[⌊h⌋] + (h − ⌊h⌋)·(x[⌊h⌋+1] − x[⌊h⌋]).  Degenerate cases are exact:
/// n = 1 returns the sample for every p, p = 0 the minimum, p = 1 the
/// maximum, and an even-n median averages the two middle samples.  The input
/// need not be sorted (a copy is sorted internally).  Throws on empty input
/// or p outside [0, 1].
double percentile(std::vector<double> samples, double p);

/// percentile() over already-ascending samples, without the copy/sort — the
/// aggregation layer sorts once and reads several levels.  Requires sorted
/// input (the contract checks the boundary samples; interior disorder is the
/// caller's responsibility).
double percentile_sorted(const std::vector<double>& sorted_samples, double p);

/// Normal-approximation 95 % confidence interval for the mean:
/// mean ± 1.96·s/√n (s = sample standard deviation).  Degenerates to a point
/// for n = 1.  Throws on empty input.
struct MeanCi {
  double mean = 0.0;
  double lo = 0.0;
  double hi = 0.0;
};
MeanCi mean_ci95(const std::vector<double>& samples);

/// Counts schedulable-vs-generated tasksets for one (scheme, utilization)
/// cell of the Fig. 2 sweep.
struct AcceptanceCounter {
  std::size_t accepted = 0;
  std::size_t total = 0;

  void record(bool schedulable) {
    ++total;
    if (schedulable) ++accepted;
  }
  /// δ = accepted/total; 0 when nothing was generated.
  double ratio() const {
    return total == 0 ? 0.0 : static_cast<double>(accepted) / static_cast<double>(total);
  }
};

/// Relative improvement of `ours` over `baseline` in percent:
/// (ours − baseline)/baseline × 100.  Returns 0 when both are 0 and +100 when
/// only the baseline is 0 (the convention used for Fig. 2, where SingleCore's
/// acceptance hits zero first).  NOTE: the paper prints the formula
/// (δ_SingleCore − δ_HYDRA)/δ_SingleCore, which is negative whenever HYDRA is
/// better while its Fig. 2 shows positive improvements — a sign typo we
/// correct here (see the improvement-formula NOTE in the
/// bench/bench_fig2_acceptance.cpp header).
double improvement_percent(double ours, double baseline);

/// Relative gap of `approx` below `reference` in percent:
/// (reference − approx)/reference × 100 (Fig. 3's Δη).  0 when reference is 0.
double gap_percent(double reference, double approx);

/// Fig. 2's improvement metric, normalized to stay within the paper's 0–100 %
/// axis: (δ_HYDRA − δ_SingleCore)/δ_HYDRA × 100.  The paper's printed formula
/// divides by δ_SingleCore (unbounded, and with the operands swapped it would
/// be negative whenever HYDRA wins); dividing by the larger ratio is the only
/// reading consistent with the plotted range.  0 when δ_HYDRA is 0.
double acceptance_improvement_percent(double hydra_ratio, double single_core_ratio);

}  // namespace hydra::stats
