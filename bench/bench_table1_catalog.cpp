// Table I reproduction: the security-task catalog (Tripwire + Bro) with the
// parameters used throughout the evaluation, plus a sweep-backed integration
// summary — the catalog placed on the UAV platform for each core count and
// scheme, evaluated through exp::Sweep/exp::Aggregator like every other
// bench (the exhaustive optimal is skipped automatically where its M^NS
// enumeration exceeds the sweep budget).
//
// Usage: bench_table1_catalog [--cores 2,4,8]
//                             [--schemes hydra,single-core,optimal]
//                             [--jobs 1] [--out rows.jsonl] [--csv]
//                             [--catalog-md] [--catalog-out docs/scheme-catalog.md]
//                             [--solver-catalog-md]
//                             [--solver-catalog-out docs/solver-catalog.md]
//                             [--controller-catalog-md]
//                             [--controller-catalog-out docs/controller-catalog.md]
//
// --catalog-md prints the full allocator registry (name + description) as the
// markdown scheme catalog and exits; --catalog-out writes it to a file — the
// committed docs/scheme-catalog.md is generated this way.
// --solver-catalog-md/--solver-catalog-out do the same for the GP solver
// registry (docs/solver-catalog.md), and
// --controller-catalog-md/--controller-catalog-out for the runtime
// controller-policy registry (docs/controller-catalog.md).  The test_catalogs
// ctest suite keeps all three committed files in sync with the registries.
#include <fstream>
#include <iostream>
#include <memory>
#include <vector>

#include "core/registry.h"
#include "exp/aggregate.h"
#include "exp/sweep.h"
#include "gp/solver_registry.h"
#include "gen/uav.h"
#include "io/table.h"
#include "sec/catalog.h"
#include "sim/controller.h"
#include "util/cli.h"

namespace hexp = hydra::exp;

int main(int argc, char** argv) {
  const hydra::util::CliParser cli(argc, argv);

  // --<flag>-md prints a registry's markdown catalog, --<flag>-out writes it.
  const struct {
    const char* flag;
    const char* label;
    const char* noun;
    std::string markdown;
    std::size_t entries;
  } catalogs[] = {
      {"catalog", "scheme", "schemes",
       hydra::core::scheme_catalog_markdown(hydra::core::AllocatorRegistry::global()),
       hydra::core::AllocatorRegistry::global().names().size()},
      {"solver-catalog", "solver", "backends",
       hydra::gp::solver_catalog_markdown(hydra::gp::SolverRegistry::global()),
       hydra::gp::SolverRegistry::global().names().size()},
      {"controller-catalog", "controller", "policies",
       hydra::sim::controller_catalog_markdown(hydra::sim::ControllerRegistry::global()),
       hydra::sim::ControllerRegistry::global().names().size()},
  };
  for (const auto& catalog : catalogs) {
    const std::string flag = catalog.flag;
    if (cli.has(flag + "-out")) {
      const std::string path = cli.get_string(flag + "-out", "");
      std::ofstream out(path);
      if (!out) {
        std::cerr << "cannot open " << path << " for writing\n";
        return 2;
      }
      out << catalog.markdown;
      std::cout << "wrote " << catalog.label << " catalog (" << catalog.entries << " "
                << catalog.noun << ") to " << path << "\n";
      return 0;
    }
    if (cli.get_bool(flag + "-md", false)) {
      std::cout << catalog.markdown;
      return 0;
    }
  }
  const auto cores = cli.get_int_list("cores", {2, 4, 8});
  const auto scheme_names =
      cli.get_string_list("schemes", {"hydra", "single-core", "optimal"});
  const bool csv = cli.get_bool("csv", false);

  hydra::io::print_banner(std::cout, "Table I: security tasks (Tripwire TR / Bro BR)");
  hydra::io::Table table({"task", "app", "function", "C (ms)", "Tdes (ms)", "Tmax (ms)",
                          "U_des"});
  for (const auto& entry : hydra::sec::tripwire_bro_catalog()) {
    table.add_row({entry.task.name,
                   entry.app == hydra::sec::SecurityApp::kTripwire ? "TR" : "BR",
                   entry.function, hydra::io::fmt(entry.task.wcet, 0),
                   hydra::io::fmt(entry.task.period_des, 0),
                   hydra::io::fmt(entry.task.period_max, 0),
                   hydra::io::fmt(entry.task.max_utilization(), 3)});
  }
  if (csv) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }

  // The catalog in action: one sweep point per core count, every scheme.
  hexp::SweepSpec spec;
  spec.schemes = scheme_names;
  spec.jobs = static_cast<std::size_t>(cli.get_int("jobs", 1));
  for (const auto m : cores) {
    hexp::SweepPoint point;
    point.instance = hydra::gen::uav_case_study(static_cast<std::size_t>(m));
    point.label = "m=" + std::to_string(m);
    spec.points.push_back(std::move(point));
  }
  const hexp::Sweep sweep(std::move(spec));

  hexp::Aggregator aggregator;
  std::unique_ptr<hexp::ResultSink> file_sink;
  std::vector<hexp::ResultSink*> sinks = {&aggregator};
  if (cli.has("out")) {
    file_sink = hexp::make_file_sink(cli.get_string("out", ""));
    sinks.push_back(file_sink.get());
  }
  sweep.run(sinks);
  const auto cells = aggregator.cells();

  hydra::io::print_banner(std::cout, "catalog integrated on the UAV platform");
  hydra::io::Table integration({"cores", "scheme", "accepted", "normalized tightness"});
  for (std::size_t p = 0; p < sweep.spec().points.size(); ++p) {
    for (const auto& name : scheme_names) {
      const auto* cell = hexp::Aggregator::find(cells, p, name);
      if (cell == nullptr) continue;
      const bool accepted = cell->accepted > 0;
      integration.add_row(
          {sweep.spec().points[p].label, name,
           accepted ? "yes" : (cell->skipped > 0 ? "skipped (budget)" : "no"),
           accepted ? hydra::io::fmt(cell->tightness.mean, 3) : "-"});
    }
  }
  if (csv) {
    integration.print_csv(std::cout);
  } else {
    integration.print(std::cout);
  }
  std::cout << "\nNote: WCETs are representative embedded-board scan costs "
               "(DESIGN.md section 6: the paper measured Tripwire/Bro on an "
               "ARM Cortex-A8; absolute values scale the curves, contention "
               "drives the comparisons).\n";
  return 0;
}
