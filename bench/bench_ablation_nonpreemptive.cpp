// Ablation: non-preemptive security tasks (paper §V future work).
//
// Some monitors cannot be preempted mid-scan.  The analysis handles this with
// a per-core blocking term in Eq. (5); the simulator runs security jobs
// non-preemptively.  This bench measures what the extension costs: acceptance
// ratio and mean detection time of preemptive vs non-preemptive integration
// on the UAV case study and synthetic sweeps.
//
// Usage: bench_ablation_nonpreemptive [--cores 2,4] [--trials 300] [--seed 13]
//                                     [--tasksets 80] [--csv]
#include <algorithm>
#include <iostream>

#include "core/hydra.h"
#include "gen/synthetic.h"
#include "gen/uav.h"
#include "io/table.h"
#include "sim/attack.h"
#include "sim/engine.h"
#include "stats/ecdf.h"
#include "stats/summary.h"
#include "util/cli.h"

namespace core = hydra::core;
namespace gen = hydra::gen;
namespace io = hydra::io;
namespace sim = hydra::sim;

int main(int argc, char** argv) {
  const hydra::util::CliParser cli(argc, argv);
  const auto cores = cli.get_int_list("cores", {2, 4});
  const auto trials = static_cast<std::size_t>(cli.get_int("trials", 300));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 13));
  const int tasksets = static_cast<int>(cli.get_int("tasksets", 80));
  const bool csv = cli.get_bool("csv", false);

  // --- Part 1: detection time on the UAV case study. ---
  io::print_banner(std::cout, "Ablation: non-preemptive security tasks — UAV detection time");
  io::Table detection({"cores", "mode", "mean detection (ms)", "p95 (ms)"});
  for (const auto m : cores) {
    const auto instance = hydra::gen::uav_case_study(static_cast<std::size_t>(m));
    double max_sec_wcet = 0.0;
    for (const auto& s : instance.security_tasks) {
      max_sec_wcet = std::max(max_sec_wcet, s.wcet);
    }

    for (const bool preemptive : {true, false}) {
      core::HydraOptions opts;
      opts.blocking = preemptive ? 0.0 : max_sec_wcet;
      // Full non-preemptive model: cores whose RT tasks cannot absorb the
      // blocking are excluded (otherwise the RT side misses deadlines — see
      // HydraOptions::non_preemptive_security in core/hydra.h).
      opts.non_preemptive_security = !preemptive;
      const auto allocation = core::HydraAllocator(opts).allocate(instance);
      if (!allocation.feasible) {
        detection.add_row({std::to_string(m), preemptive ? "preemptive" : "non-preemptive",
                           "infeasible", "-"});
        continue;
      }
      sim::DetectionConfig config;
      config.horizon = 300u * 1000u * hydra::util::kTicksPerMilli;
      config.trials = trials;
      config.seed = seed;
      // Build the task set with the matching preemption mode.
      const auto tasks = sim::build_sim_tasks(instance, allocation, preemptive);
      sim::SimOptions sim_opts;
      sim_opts.horizon = config.horizon;
      const auto trace = sim::simulate(tasks, sim_opts);
      if (trace.deadline_misses() != 0) {
        detection.add_row({std::to_string(m), preemptive ? "preemptive" : "non-preemptive",
                           "MISSED DEADLINES", "-"});
        continue;
      }
      const auto res = sim::measure_detection_times(instance, allocation, config);
      const auto s = hydra::stats::summarize(res.detection_ms);
      hydra::stats::EmpiricalCdf cdf(res.detection_ms);
      detection.add_row({std::to_string(m), preemptive ? "preemptive" : "non-preemptive",
                         io::fmt(s.mean, 1), io::fmt(cdf.quantile(0.95), 1)});
    }
  }
  if (csv) {
    detection.print_csv(std::cout);
  } else {
    detection.print(std::cout);
  }

  // --- Part 2: acceptance-ratio cost of the blocking term. ---
  io::print_banner(std::cout, "Acceptance-ratio cost of the blocking term (M = 2, synthetic)");
  gen::SyntheticConfig config;
  config.num_cores = 2;
  io::Table acceptance({"utilization", "preemptive", "non-preemptive"});
  for (const double phase : {0.4, 0.6, 0.8}) {
    const double u = phase * 2.0;
    hydra::util::Xoshiro256 rng(seed);
    hydra::stats::AcceptanceCounter pre, non;
    for (int rep = 0; rep < tasksets; ++rep) {
      auto trial_rng = rng.fork();
      const auto drawn = gen::generate_filtered_instance(config, u, trial_rng);
      if (!drawn.has_value()) {
        pre.record(false);
        non.record(false);
        continue;
      }
      double max_sec_wcet = 0.0;
      for (const auto& s : drawn->instance.security_tasks) {
        max_sec_wcet = std::max(max_sec_wcet, s.wcet);
      }
      pre.record(core::HydraAllocator().allocate(drawn->instance).feasible);
      core::HydraOptions blocked;
      blocked.blocking = max_sec_wcet;
      blocked.non_preemptive_security = true;
      non.record(core::HydraAllocator(blocked).allocate(drawn->instance).feasible);
    }
    acceptance.add_row({io::fmt(u, 2), io::fmt(pre.ratio(), 3), io::fmt(non.ratio(), 3)});
  }
  if (csv) {
    acceptance.print_csv(std::cout);
  } else {
    acceptance.print(std::cout);
  }
  std::cout << "\nReading: the blocking term buys non-preemptable scans at a "
               "modest acceptance/tightness cost that grows with utilization.\n";
  return 0;
}
