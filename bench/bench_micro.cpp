// Micro-benchmarks (google-benchmark): the building blocks whose cost decides
// whether HYDRA-style design-space exploration is interactive — exact RTA,
// Randfixedsum draws, the one-variable GP solve vs its closed form, full
// HYDRA and SingleCore allocations, the exhaustive optimal search, and the
// discrete-event simulator.
#include <benchmark/benchmark.h>

#include <cstdint>

#include "core/hydra.h"
#include "core/joint_period.h"
#include "core/optimal.h"
#include "core/period_adaptation.h"
#include "core/single_core.h"
#include "exp/sweep.h"
#include "gen/randfixedsum.h"
#include "gen/synthetic.h"
#include "gen/uav.h"
#include "gp/solver_registry.h"
#include "rt/analysis.h"
#include "rt/partition.h"
#include "sim/attack.h"
#include "sim/engine.h"

namespace core = hydra::core;
namespace gen = hydra::gen;
namespace rt = hydra::rt;
namespace sim = hydra::sim;

namespace {

std::vector<rt::RtTask> random_rt_tasks(std::size_t n, double total_util,
                                        hydra::util::Xoshiro256& rng) {
  const auto utils = gen::randfixedsum(n, total_util, 1e-4, 0.9, rng);
  std::vector<rt::RtTask> tasks;
  for (std::size_t i = 0; i < n; ++i) {
    const double period = rng.uniform(10.0, 1000.0);
    tasks.push_back(rt::make_rt_task("t" + std::to_string(i), utils[i] * period, period));
  }
  return tasks;
}

}  // namespace

static void BM_ResponseTimeAnalysis(benchmark::State& state) {
  hydra::util::Xoshiro256 rng(1);
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto tasks = random_rt_tasks(n, 0.6, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rt::core_schedulable_rm(tasks));
  }
}
BENCHMARK(BM_ResponseTimeAnalysis)->Arg(5)->Arg(10)->Arg(20)->Arg(40);

static void BM_Randfixedsum(benchmark::State& state) {
  hydra::util::Xoshiro256 rng(2);
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(gen::randfixedsum(n, 0.4 * static_cast<double>(n), 0.0, 1.0, rng));
  }
}
BENCHMARK(BM_Randfixedsum)->Arg(10)->Arg(40)->Arg(80);

static void BM_PeriodAdaptationClosedForm(benchmark::State& state) {
  const auto task = rt::make_security_task("s", 50.0, 1000.0, 10000.0);
  rt::InterferenceBound bound;
  bound.const_part = 200.0;
  bound.util_part = 0.55;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::adapt_period(task, bound, core::PeriodSolver::kClosedForm));
  }
}
BENCHMARK(BM_PeriodAdaptationClosedForm);

static void BM_PeriodAdaptationGp(benchmark::State& state) {
  const auto task = rt::make_security_task("s", 50.0, 1000.0, 10000.0);
  rt::InterferenceBound bound;
  bound.const_part = 200.0;
  bound.util_part = 0.55;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::adapt_period(task, bound, core::PeriodSolver::kGeometricProgram));
  }
}
BENCHMARK(BM_PeriodAdaptationGp);

static void BM_HydraAllocateUav(benchmark::State& state) {
  const auto instance = gen::uav_case_study(static_cast<std::size_t>(state.range(0)));
  const core::HydraAllocator allocator;
  for (auto _ : state) {
    benchmark::DoNotOptimize(allocator.allocate(instance));
  }
}
BENCHMARK(BM_HydraAllocateUav)->Arg(2)->Arg(4)->Arg(8);

static void BM_SingleCoreAllocateUav(benchmark::State& state) {
  const auto instance = gen::uav_case_study(static_cast<std::size_t>(state.range(0)));
  const core::SingleCoreAllocator allocator;
  for (auto _ : state) {
    benchmark::DoNotOptimize(allocator.allocate(instance));
  }
}
BENCHMARK(BM_SingleCoreAllocateUav)->Arg(2)->Arg(4)->Arg(8);

static void BM_HydraAllocateSynthetic(benchmark::State& state) {
  hydra::util::Xoshiro256 rng(4);
  gen::SyntheticConfig config;
  config.num_cores = static_cast<std::size_t>(state.range(0));
  const auto drawn =
      gen::generate_filtered_instance(config, 0.5 * static_cast<double>(state.range(0)), rng);
  if (!drawn.has_value()) {
    state.SkipWithError("no instance drawn");
    return;
  }
  const core::HydraAllocator allocator;
  for (auto _ : state) {
    benchmark::DoNotOptimize(allocator.allocate(drawn->instance));
  }
}
BENCHMARK(BM_HydraAllocateSynthetic)->Arg(2)->Arg(4)->Arg(8);

static void BM_JointPeriodScp(benchmark::State& state) {
  // One signomial SCP joint-period solve (condensation rounds over barrier
  // GP solves) for Arg security tasks sharing one core — the inner kernel of
  // the exhaustive optimal search and the unit the SCP warm-start/scratch
  // work accelerates.
  hydra::util::Xoshiro256 rng(6);
  core::Instance instance;
  instance.num_cores = 1;
  instance.rt_tasks = random_rt_tasks(3, 0.3, rng);
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    const double t_des = rng.uniform(1000.0, 3000.0);
    instance.security_tasks.push_back(rt::make_security_task(
        "s" + std::to_string(i), rng.uniform(0.05, 0.15) * t_des, t_des, 10.0 * t_des));
  }
  rt::Partition partition;
  partition.num_cores = 1;
  partition.core_of.assign(instance.rt_tasks.size(), 0);
  const std::vector<std::size_t> core_of(instance.security_tasks.size(), 0);
  core::JointPeriodOptions options;
  options.objective = core::JointObjective::kSignomialScp;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::optimize_joint_periods(instance, partition, core_of, options));
  }
}
BENCHMARK(BM_JointPeriodScp)->Arg(2)->Arg(4)->Unit(benchmark::kMillisecond);

static void BM_GpSolveBackend(benchmark::State& state, const std::string& backend) {
  // One plain-GP solve of the joint-period program (4 security tasks, one
  // loaded core) through each registered SolverRegistry backend — the
  // apples-to-apples backend cost comparison behind docs/solver-catalog.md.
  // pick-best should track scp/barrier (its primary short-circuits on
  // converged optimality); ipm/filter pays a different per-iteration cost.
  hydra::util::Xoshiro256 rng(6);
  core::Instance instance;
  instance.num_cores = 1;
  instance.rt_tasks = random_rt_tasks(3, 0.3, rng);
  for (std::int64_t i = 0; i < 4; ++i) {
    const double t_des = rng.uniform(1000.0, 3000.0);
    instance.security_tasks.push_back(rt::make_security_task(
        "s" + std::to_string(i), rng.uniform(0.05, 0.15) * t_des, t_des, 10.0 * t_des));
  }
  rt::Partition partition;
  partition.num_cores = 1;
  partition.core_of.assign(instance.rt_tasks.size(), 0);
  const std::vector<std::size_t> core_of(instance.security_tasks.size(), 0);
  const hydra::gp::GpProblem problem =
      core::make_joint_period_gp(instance, partition, core_of);
  for (auto _ : state) {
    const auto result = hydra::gp::solve_with_backend(problem, std::nullopt, backend);
    if (!result.ok()) {
      state.SkipWithError(("backend " + backend + " failed: " + result.message).c_str());
      return;
    }
    benchmark::DoNotOptimize(result.objective);
  }
}
BENCHMARK_CAPTURE(BM_GpSolveBackend, scp_barrier, std::string("scp/barrier"));
BENCHMARK_CAPTURE(BM_GpSolveBackend, ipm_filter, std::string("ipm/filter"));
BENCHMARK_CAPTURE(BM_GpSolveBackend, pick_best, std::string("pick-best"));

static void BM_OptimalExhaustive(benchmark::State& state) {
  // M = 2, NS = range: cost doubles per extra task (2^NS joint solves).
  hydra::util::Xoshiro256 rng(5);
  core::Instance instance;
  instance.num_cores = 2;
  instance.rt_tasks = random_rt_tasks(4, 0.5, rng);
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    const double t_des = rng.uniform(1000.0, 3000.0);
    instance.security_tasks.push_back(rt::make_security_task(
        "s" + std::to_string(i), rng.uniform(0.1, 0.3) * t_des, t_des, 10.0 * t_des));
  }
  const core::OptimalAllocator allocator;
  for (auto _ : state) {
    benchmark::DoNotOptimize(allocator.allocate(instance));
  }
}
BENCHMARK(BM_OptimalExhaustive)->Arg(2)->Arg(4)->Arg(6)->Unit(benchmark::kMillisecond);

static void BM_SimulateUavSecond(benchmark::State& state) {
  // One simulated second of the M=4 UAV system (12 tasks).
  const auto instance = gen::uav_case_study(4);
  const auto allocation = core::HydraAllocator().allocate(instance);
  const auto tasks = sim::build_sim_tasks(instance, allocation);
  sim::SimOptions opts;
  opts.horizon = 1000u * hydra::util::kTicksPerMilli;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::simulate(tasks, opts));
  }
}
BENCHMARK(BM_SimulateUavSecond)->Unit(benchmark::kMicrosecond);

static void BM_SweepBatch(benchmark::State& state) {
  // A 100-instance synthetic sweep (one point, M = 4, mid utilization),
  // Arg = worker threads.  Rows are identical for every thread count
  // (tested); this benchmark measures the wall-clock scaling, so the jobs=8
  // row against jobs=1 is the sweep's parallel speedup.
  hydra::exp::SweepSpec spec;
  spec.schemes = {"hydra", "single-core"};
  gen::SyntheticConfig config;
  config.num_cores = 4;
  spec.add_utilization_grid(config, {2.0});
  spec.replications = 100;
  spec.base_seed = 9;
  spec.jobs = static_cast<std::size_t>(state.range(0));
  const hydra::exp::Sweep sweep(spec);

  std::size_t feasible = 0;
  for (auto _ : state) {
    const auto summary = sweep.run();
    feasible += summary.feasible;
    benchmark::DoNotOptimize(feasible);
  }
  state.counters["feasible"] =
      static_cast<double>(feasible) / static_cast<double>(state.iterations());
  // One item = one (instance, scheme) row, so items_per_second is the
  // sweep's row throughput — the unit hydra_bench_diff tracks across thread
  // counts and baselines.
  state.SetItemsProcessed(static_cast<std::int64_t>(
      state.iterations() * spec.replications * spec.schemes.size()));
}
BENCHMARK(BM_SweepBatch)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
