// Tests for the batch exploration layer: the batch descriptors, parity between
// the explore_design_space convenience and the underlying allocators, and the
// row statuses and order exp::Sweep produces over a batch (skip budget,
// no-instance draws, preset instances, instance-major order at --jobs > 1).
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "core/design_space.h"
#include "core/hydra.h"
#include "core/optimal.h"
#include "core/single_core.h"
#include "exp/batch.h"
#include "exp/sweep.h"
#include "gen/uav.h"

namespace core = hydra::core;
namespace hexp = hydra::exp;

namespace {

hexp::BatchSpec small_batch(std::size_t count, double utilization) {
  hexp::BatchSpec spec;
  spec.count = count;
  spec.synthetic.num_cores = 2;
  // NS ∈ [2, 4] keeps the exhaustive optimal's 2^NS joint solves cheap enough
  // for a unit test while still exercising multi-task assignments.
  spec.synthetic.min_sec_per_core = 1;
  spec.synthetic.max_sec_per_core = 2;
  spec.total_utilization = utilization;
  spec.base_seed = 42;
  return spec;
}

/// The Sweep counterpart of small_batch: one synthetic point on the same
/// platform with `replications` instances.
hexp::SweepSpec small_sweep(std::vector<std::string> schemes, std::size_t replications,
                            double utilization) {
  const auto batch = small_batch(replications, utilization);
  hexp::SweepSpec spec;
  spec.schemes = std::move(schemes);
  spec.add_utilization_grid(batch.synthetic, {utilization});
  spec.replications = replications;
  spec.base_seed = batch.base_seed;
  return spec;
}

}  // namespace

TEST(DesignSpace, ConvenienceMatchesDirectAllocatorResults) {
  // explore_design_space is a thin layer over the Allocator interface: its
  // points must equal what the concrete allocators produce directly (the
  // pre-refactor behaviour, pinned on a fixed instance).
  const auto instance = hydra::gen::uav_case_study(2);
  const auto report = core::explore_design_space(instance);
  ASSERT_EQ(report.points.size(), 4u);

  const auto direct_hydra = core::HydraAllocator().allocate(instance);
  EXPECT_DOUBLE_EQ(report.points[0].cumulative_tightness,
                   direct_hydra.cumulative_tightness(instance.security_tasks));

  core::HydraOptions exact;
  exact.solver = core::PeriodSolver::kExactRta;
  const auto direct_exact = core::HydraAllocator(exact).allocate(instance);
  EXPECT_DOUBLE_EQ(report.points[1].cumulative_tightness,
                   direct_exact.cumulative_tightness(instance.security_tasks));

  const auto direct_single = core::SingleCoreAllocator().allocate(instance);
  EXPECT_DOUBLE_EQ(report.points[2].cumulative_tightness,
                   direct_single.cumulative_tightness(instance.security_tasks));

  core::OptimalOptions opt;
  opt.max_assignments = 4096;
  const auto direct_optimal = core::OptimalAllocator(opt).allocate(instance);
  EXPECT_DOUBLE_EQ(report.points[3].cumulative_tightness,
                   direct_optimal.cumulative_tightness(instance.security_tasks));
}

TEST(DesignSpace, RegistrySchemeSelectionOverload) {
  const auto instance = hydra::gen::uav_case_study(2);
  const auto report =
      core::explore_design_space(instance, {"single-core", "hydra/first-fit"});
  ASSERT_EQ(report.points.size(), 2u);
  EXPECT_EQ(report.points[0].scheme, "single-core");
  EXPECT_EQ(report.points[1].scheme, "hydra/first-fit");
  EXPECT_THROW(core::explore_design_space(instance, {"nope"}), std::invalid_argument);
}

TEST(Batch, PerInstanceSeedsAreDeterministicAndDistinct) {
  EXPECT_EQ(hexp::instance_seed(1, 0), hexp::instance_seed(1, 0));
  EXPECT_NE(hexp::instance_seed(1, 0), hexp::instance_seed(1, 1));
  EXPECT_NE(hexp::instance_seed(1, 0), hexp::instance_seed(2, 0));
  const auto items = enumerate(small_batch(5, 1.0));
  ASSERT_EQ(items.size(), 5u);
  for (std::size_t i = 0; i < items.size(); ++i) {
    EXPECT_EQ(items[i].index, i);
    EXPECT_EQ(items[i].seed, hexp::instance_seed(42, i));
  }
}

TEST(Batch, MaterializeIsAPureFunctionOfTheItem) {
  const auto spec = small_batch(3, 1.0);
  const auto items = enumerate(spec);
  const auto once = materialize(spec, items[1]);
  const auto twice = materialize(spec, items[1]);
  ASSERT_TRUE(once.instance.has_value());
  ASSERT_TRUE(twice.instance.has_value());
  EXPECT_EQ(once.instance->rt_tasks.size(), twice.instance->rt_tasks.size());
  EXPECT_DOUBLE_EQ(once.rt_utilization, twice.rt_utilization);
}

TEST(SweepRows, RejectsUnknownSchemesUpFront) {
  EXPECT_THROW(hexp::Sweep(small_sweep({"hydra", "definitely-not-registered"}, 1, 1.0)),
               std::invalid_argument);
  EXPECT_THROW(hexp::Sweep(small_sweep({}, 1, 1.0)), std::invalid_argument);
}

TEST(SweepRows, OptimalSkippedWhenEnumerationExceedsBudget) {
  // M = 2, NS >= 2 ⇒ at least 4 assignments; a budget of 1 skips them all.
  // The note is row bytes, so it is pinned verbatim.
  auto spec = small_sweep({"optimal", "hydra"}, 3, 1.0);
  spec.optimal_budget = 1;
  const auto summary = hexp::Sweep(spec).run();
  std::size_t skipped = 0;
  for (const auto& row : summary.rows) {
    if (row.scheme != "optimal") continue;
    if (row.status == "no-instance") continue;
    EXPECT_EQ(row.status, "skipped");
    EXPECT_EQ(row.note, "search space exceeds the engine budget of 1");
    ++skipped;
  }
  EXPECT_GT(skipped, 0u);
  EXPECT_EQ(summary.skipped, skipped);
}

TEST(SweepRows, ImpossibleUtilizationYieldsNoInstanceRows) {
  // Utilization far beyond M: every draw fails Eq. (1); the sweep reports
  // each (instance, scheme) pair instead of aborting.
  auto spec = small_sweep({"hydra"}, 2, 50.0);
  spec.max_attempts = 2;
  const auto summary = hexp::Sweep(spec).run();
  ASSERT_EQ(summary.rows.size(), 2u);
  for (const auto& row : summary.rows) {
    EXPECT_EQ(row.status, "no-instance");
    EXPECT_FALSE(row.feasible);
  }
  EXPECT_EQ(summary.errors, 2u);
}

TEST(SweepRows, PresetInstancePointEvaluatesTheGivenInstance) {
  hexp::SweepSpec spec;
  spec.schemes = {"hydra", "single-core", "optimal"};
  hexp::SweepPoint point;
  point.instance = hydra::gen::uav_case_study(2);
  spec.points.push_back(point);
  const auto summary = hexp::Sweep(spec).run();
  ASSERT_EQ(summary.rows.size(), 3u);
  for (const auto& row : summary.rows) {
    EXPECT_EQ(row.status, "ok") << row.scheme << ": " << row.note;
    EXPECT_TRUE(row.feasible) << row.scheme;
    EXPECT_TRUE(row.validated) << row.scheme;
  }
  EXPECT_EQ(summary.feasible, 3u);
}

TEST(SweepRows, RowsArriveInInstanceThenSchemeOrderUnderJobs) {
  auto spec = small_sweep({"hydra", "single-core"}, 8, 1.0);
  spec.jobs = 4;
  const auto summary = hexp::Sweep(spec).run();
  ASSERT_EQ(summary.rows.size(), 16u);
  for (std::size_t i = 0; i < summary.rows.size(); ++i) {
    EXPECT_EQ(summary.rows[i].instance_index, i / 2);
    EXPECT_EQ(summary.rows[i].scheme, i % 2 == 0 ? "hydra" : "single-core");
  }
  EXPECT_EQ(summary.cells, 8u);
  EXPECT_EQ(summary.evaluated + summary.skipped + summary.errors, 16u);
}
