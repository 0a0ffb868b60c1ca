// Sweep benchmark driver.  One process runs a share of one run of one
// workload:
//
//   perfbench_driver sweep  --workload W --seed S --dir D [--first-chunk K]
//                           [--seconds T] [--min-chunks N] [--replications R]
//   perfbench_driver replay --workload W --seed C --dir D [--replications R]
//                           [--resolve-gp 0]
//   perfbench_driver stamp
//
// `sweep` is the end-to-end pass, tracing off.  It sweeps *chunks* until T
// seconds have passed (and at least N chunks): chunk c is the workload's
// whole grid at R task sets per point (its default chunk size), on base seed
// 1000*S + c.  For each chunk it times the set-up (the workload's
// exp::SweepSpec, the exp::Sweep and its fingerprint, a JSONL file sink and
// an exp::Aggregator, as the figure benches build them), runs
// exp::Sweep::run into those sinks, and then runs fresh Sweeps resumed from
// the file just written.  `replay` re-runs the cells of one chunk (base seed
// C) serially through each layer's public functions, times those calls from
// outside, and checks that its row bytes equal the sweep's.  Each mode
// prints one JSON object on stdout; perfbench/run.py turns them into the
// benchmark's metrics.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/joint_period.h"
#include "core/registry.h"
#include "core/scp_warm.h"
#include "core/validation.h"
#include "exp/aggregate.h"
#include "exp/metrics.h"
#include "exp/scp_warm.h"
#include "exp/sweep.h"
#include "gen/synthetic.h"
#include "gp/solver_registry.h"
#include "rt/partition.h"
#include "sec/tightness.h"
#include "sim/controller.h"
#include "util/rng.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

namespace core = hydra::core;
namespace exp = hydra::exp;
namespace gen = hydra::gen;
namespace gp = hydra::gp;
namespace rt = hydra::rt;
namespace sim = hydra::sim;

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct Workload {
  exp::SweepSpec spec;
  /// Aggregator reference scheme ("" = no gap statistics).
  std::string reference;
  /// Schemes whose feasible rows the replay re-solves through the joint GP.
  std::set<std::string> gp_schemes;
};

/// The Fig. 5 metric wiring of bench_fig5_runtime_adaptation for several
/// policies side by side: "/<policy>"-suffixed families, policy-free
/// baselines on the first family only.
std::vector<exp::RowMetric> runtime_metrics() {
  exp::AdaptiveMetricsConfig config;
  config.detection.horizon = 200u * 1000u * hydra::util::kTicksPerMilli;
  config.detection.trials = 120;
  config.detection.seed = 1;
  config.controller.slack_window = 0;
  config.controller.tighten_threshold = 0.25;
  config.controller.relax_threshold = 0.05;
  config.controller.min_dwell = 0;
  config.controller.num_levels = 3;
  config.controller.boost_window = 0;
  std::vector<exp::RowMetric> metrics;
  const std::vector<std::string> policies = {"hysteresis", "boost", "never-switch"};
  for (std::size_t i = 0; i < policies.size(); ++i) {
    exp::AdaptiveMetricsConfig family = config;
    family.controller.policy = policies[i];
    family.name_suffix = "/" + policies[i];
    family.include_static = i == 0;
    family.include_min_mode = i == 0;
    family.include_global = i == 0;
    auto family_metrics = exp::adaptive_detection_metrics(family);
    metrics.insert(metrics.end(), std::make_move_iterator(family_metrics.begin()),
                   std::make_move_iterator(family_metrics.end()));
  }
  return metrics;
}

/// Builds a workload's spec.  `replications` = 0 keeps the workload's
/// chunk size (task sets per utilization point).
Workload make_workload(const std::string& name, std::uint64_t seed,
                       std::size_t replications) {
  Workload w;
  w.spec.base_seed = seed;
  const auto grid = [&w](std::size_t cores, const std::vector<double>& utilizations) {
    gen::SyntheticConfig config;
    config.num_cores = cores;
    w.spec.add_utilization_grid(config, utilizations);
  };
  std::size_t chunk_replications = 0;
  if (name == "fig2-grid") {
    w.spec.schemes = {"hydra", "single-core"};
    for (const std::size_t m : {2, 4, 8}) grid(m, exp::utilization_axis(m));
    w.spec.jobs = 1;
    chunk_replications = 10;
  } else if (name == "adaptive-grid") {
    w.spec.schemes = {"contego", "period-adapt", "util/worst-fit", "hydra"};
    grid(4, exp::utilization_axis(4));
    w.spec.metrics = exp::period_mode_metrics();
    w.spec.jobs = 1;
    w.reference = "hydra";
    chunk_replications = 25;
  } else if (name == "gp-joint") {
    w.spec.schemes = {"hydra/gp", "period-adapt/gp", "single-core/joint"};
    grid(2, exp::utilization_axis(2));
    w.spec.jobs = 2;
    w.gp_schemes = {w.spec.schemes.begin(), w.spec.schemes.end()};
    chunk_replications = 2;
  } else if (name == "runtime-sim") {
    w.spec.schemes = {"contego"};
    grid(2, {0.6, 1.0, 1.4});
    w.spec.metrics = runtime_metrics();
    w.spec.jobs = 1;
    chunk_replications = 3;
  } else {
    throw std::invalid_argument("unknown workload '" + name +
                                "' (fig2-grid, adaptive-grid, gp-joint, runtime-sim)");
  }
  w.spec.replications = replications > 0 ? replications : chunk_replications;
  return w;
}

// ---------------------------------------------------------------------------
// Small helpers
// ---------------------------------------------------------------------------

struct Args {
  std::string mode;
  std::string workload;
  std::uint64_t seed = 1;
  std::string dir;
  std::size_t replications = 0;
  bool resolve_gp = true;  ///< replay: re-solve GP-scheme rows out of band
  std::size_t first_chunk = 0;  ///< sweep: index of this process's first chunk
  double seconds = 0.0;         ///< sweep: sweep chunks for this long...
  std::size_t min_chunks = 1;   ///< sweep: ...and at least this many
};

Args parse_args(int argc, char** argv) {
  if (argc < 2) throw std::invalid_argument("usage: perfbench_driver sweep|replay|stamp ...");
  Args args;
  args.mode = argv[1];
  for (int i = 2; i < argc; i += 2) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument(key + " needs a value");
    const std::string value = argv[i + 1];
    if (key == "--workload") args.workload = value;
    else if (key == "--seed") args.seed = std::stoull(value);
    else if (key == "--dir") args.dir = value;
    else if (key == "--replications") args.replications = std::stoul(value);
    else if (key == "--resolve-gp") args.resolve_gp = value != "0";
    else if (key == "--first-chunk") args.first_chunk = std::stoul(value);
    else if (key == "--seconds") args.seconds = std::stod(value);
    else if (key == "--min-chunks") args.min_chunks = std::stoul(value);
    else throw std::invalid_argument("unknown option " + key);
  }
  if (args.mode != "stamp" && (args.workload.empty() || args.dir.empty())) {
    throw std::invalid_argument(args.mode + " needs --workload and --dir");
  }
  return args;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  return std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
}

/// 1-based line of the first difference between two row streams, 0 if equal.
std::size_t first_difference(const std::string& a, const std::string& b) {
  if (a == b) return 0;
  std::size_t line = 1;
  for (std::size_t i = 0; i < a.size() && i < b.size() && a[i] == b[i]; ++i) {
    if (a[i] == '\n') ++line;
  }
  return line;
}

/// CPU time this process has used so far (all its threads), in ms.
double cpu_ms() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return 1e3 * static_cast<double>(ts.tv_sec) + 1e-6 * static_cast<double>(ts.tv_nsec);
}

/// Peak resident memory of this process image.  VmHWM rather than
/// getrusage's ru_maxrss, which also counts the parent's pages a fork copied
/// before exec.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

/// Row failure as the benchmark counts it: no usable result, or a feasible
/// verdict the independent validator rejected.
bool row_failed(const exp::BatchRow& row) {
  return row.status == "error" || row.status == "no-instance" ||
         (row.feasible && !row.validated);
}

std::string json_str(const std::string& text) { return '"' + exp::json_escape(text) + '"'; }

/// JSON number that keeps every digit; NaN/inf become null.
std::string json_num(double value) {
  if (!std::isfinite(value)) return "null";
  std::ostringstream out;
  out.precision(17);
  out << value;
  return out.str();
}

// ---------------------------------------------------------------------------
// End-to-end pass
// ---------------------------------------------------------------------------

/// Everything a figure bench builds before its first cell: the workload's
/// spec and metric hooks, the Sweep (scheme validation, labels), its
/// fingerprint, and the sinks.
struct SweepSetup {
  Workload workload;
  std::unique_ptr<exp::Sweep> sweep;
  std::string fingerprint;
  std::unique_ptr<exp::Aggregator> aggregator;
  std::unique_ptr<exp::ResultSink> file_sink;
};

SweepSetup set_up(const std::string& workload, std::uint64_t seed, std::size_t replications,
                  const std::string& rows_path) {
  SweepSetup setup;
  setup.workload = make_workload(workload, seed, replications);
  setup.sweep = std::make_unique<exp::Sweep>(std::move(setup.workload.spec));
  setup.fingerprint = setup.sweep->fingerprint();
  exp::AggregateOptions agg_options;
  agg_options.reference_scheme = setup.workload.reference;
  setup.aggregator = std::make_unique<exp::Aggregator>(agg_options);
  setup.file_sink = exp::make_file_sink(rows_path);
  return setup;
}

std::string json_list(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) out += (i ? "," : "") + json_num(values[i]);
  return out + "]";
}

// ---------------------------------------------------------------------------
// Host-speed reference
// ---------------------------------------------------------------------------

/// A fixed piece of work that calls no hydra code: small dense Cholesky
/// solves and sorts of short vectors, a mix of floating-point, branch and
/// allocation work like a sweep cell's.  Returns a value so it is not
/// optimized away.
double reference_work() {
  std::uint64_t state = 0x9E3779B97F4A7C15ull;
  const auto next = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return static_cast<double>(state % 1000) / 1000.0;
  };
  constexpr std::size_t n = 16;
  std::vector<double> a(n * n), b(n);
  double acc = 0.0;
  for (int rep = 0; rep < 1000; ++rep) {
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j <= i; ++j) a[i * n + j] = a[j * n + i] = next();
      a[i * n + i] += static_cast<double>(n);
      b[i] = next();
    }
    for (std::size_t j = 0; j < n; ++j) {  // Cholesky, lower triangle in place
      for (std::size_t k = 0; k < j; ++k) a[j * n + j] -= a[j * n + k] * a[j * n + k];
      a[j * n + j] = std::sqrt(a[j * n + j]);
      for (std::size_t i = j + 1; i < n; ++i) {
        for (std::size_t k = 0; k < j; ++k) a[i * n + j] -= a[i * n + k] * a[j * n + k];
        a[i * n + j] /= a[j * n + j];
      }
    }
    for (std::size_t i = 0; i < n; ++i) {  // forward substitution
      for (std::size_t k = 0; k < i; ++k) b[i] -= a[i * n + k] * b[k];
      b[i] /= a[i * n + i];
    }
    std::vector<double> keys(64 + rep % 64);
    for (auto& key : keys) key = next();
    std::sort(keys.begin(), keys.end());
    acc += b[n - 1] + keys[keys.size() / 2];
  }
  return acc;
}

/// CPU time of the reference work run on `threads` threads at once, the
/// least of `tries`: how fast the host runs this process at the moment.
/// CPU time, so that time the process spends descheduled does not count.
double reference_cpu_ms(std::size_t threads, int tries) {
  double best = 0.0;
  for (int attempt = 0; attempt < tries; ++attempt) {
    std::vector<double> sums(threads);
    const double started = cpu_ms();
    std::vector<std::thread> workers;
    for (std::size_t t = 1; t < threads; ++t) {
      workers.emplace_back([&sums, t] { sums[t] = reference_work(); });
    }
    sums[0] = reference_work();
    for (auto& worker : workers) worker.join();
    const double ms = cpu_ms() - started;
    if (attempt == 0 || ms < best) best = ms;
    if (!std::isfinite(sums[0])) throw std::runtime_error("reference work diverged");
  }
  return best;
}

/// Base seed of chunk `chunk` of a run with seed `seed`.
std::uint64_t chunk_seed(std::uint64_t seed, std::size_t chunk) { return seed * 1000 + chunk; }

/// Set-ups timed per chunk: one takes well under a millisecond, so a chunk
/// reports several samples, the first being the set-up its sweep uses.
constexpr int kSetupRepeats = 9;
/// The resume pass is repeated until it has run this often and this long.
constexpr std::size_t kMinResumePasses = 3;
constexpr double kMinResumeMs = 60.0;
constexpr std::size_t kMaxResumePasses = 200;

/// Resume passes over the checkpoint `dir/rows.jsonl`: a fresh Sweep must
/// splice every cell and re-emit the same bytes, every time.  A pass takes
/// milliseconds, so each one is preceded by one try of the reference work.
std::string time_resume_passes(const exp::SweepSpec& spec, const std::string& reference,
                               const std::string& dir) {
  const std::string rows_path = dir + "/rows.jsonl";
  const std::string resume_path = dir + "/resume.jsonl";
  const std::string rows = read_file(rows_path);
  exp::AggregateOptions agg_options;
  agg_options.reference_scheme = reference;
  std::vector<double> resume_ms, reference_ms;
  double total_ms = 0.0;
  std::size_t short_passes = 0, diff_line = 0;
  while (resume_ms.size() < kMinResumePasses ||
         (total_ms < kMinResumeMs && resume_ms.size() < kMaxResumePasses)) {
    auto resume_spec = spec;
    resume_spec.resume_path = rows_path;
    reference_ms.push_back(reference_cpu_ms(1, 1));
    const auto started = Clock::now();
    const exp::Sweep resumed(std::move(resume_spec));
    exp::Aggregator aggregator(agg_options);
    auto sink = exp::make_file_sink(resume_path);
    const auto summary = resumed.run({sink.get(), &aggregator});
    sink.reset();
    resume_ms.push_back(ms_since(started));
    total_ms += resume_ms.back();
    if (summary.resumed_cells != summary.cells) ++short_passes;
    if (diff_line == 0) diff_line = first_difference(rows, read_file(resume_path));
  }
  return ",\"resume_ms\":" + json_list(resume_ms) +
         ",\"resume_reference_cpu_ms\":" + json_list(reference_ms) +
         ",\"resume_short_passes\":" + std::to_string(short_passes) +
         ",\"resume_diff_line\":" + std::to_string(diff_line);
}

/// One chunk: timed set-ups, the timed sweep into `dir/rows.jsonl`, the
/// row checks' counts, and the timed resume passes, as one JSON object.
std::string run_chunk(const Args& args, std::size_t chunk, const std::string& dir) {
  const std::uint64_t seed = chunk_seed(args.seed, chunk);
  std::vector<double> setup_ms;
  for (int i = 1; i < kSetupRepeats; ++i) {
    const auto started = Clock::now();
    set_up(args.workload, seed, args.replications, dir + "/setup.jsonl");
    setup_ms.push_back(ms_since(started));
  }
  auto started = Clock::now();
  auto setup = set_up(args.workload, seed, args.replications, dir + "/rows.jsonl");
  setup_ms.push_back(ms_since(started));

  const std::size_t jobs = setup.sweep->spec().jobs;
  const double reference_before_ms = reference_cpu_ms(jobs, 3);
  started = Clock::now();
  const auto summary = setup.sweep->run({setup.file_sink.get(), setup.aggregator.get()});
  const double sweep_ms = ms_since(started);
  const double reference_after_ms = reference_cpu_ms(jobs, 3);
  setup.file_sink.reset();

  std::size_t failed = 0, feasible = 0, validated = 0;
  for (const auto& row : summary.rows) {
    if (row_failed(row)) ++failed;
    if (row.feasible) ++feasible;
    if (row.feasible && row.validated) ++validated;
  }
  std::ostringstream out;
  out << "{\"chunk\":" << chunk << ",\"seed\":" << seed
      << ",\"fingerprint\":" << json_str(setup.fingerprint) << ",\"cells\":" << summary.cells
      << ",\"rows\":" << summary.rows.size() << ",\"failed_rows\":" << failed
      << ",\"feasible_rows\":" << feasible << ",\"validated_rows\":" << validated
      << ",\"setup_ms\":" << json_list(setup_ms) << ",\"sweep_ms\":" << json_num(sweep_ms)
      << ",\"reference_cpu_ms\":" << json_list({reference_before_ms, reference_after_ms})
      << time_resume_passes(setup.sweep->spec(), setup.workload.reference, dir) << '}';
  return out.str();
}

/// Sweeps chunks first_chunk, first_chunk + 1, ... into `dir/c<chunk>/`
/// until `seconds` have passed and `min_chunks` are done.  Peak memory is
/// read after the first chunk, so that it covers the same work in every
/// process (the process-wide memos grow with every further chunk).
int run_sweep(const Args& args) {
  const auto started = Clock::now();
  std::string chunks;
  double rss_mb = 0.0;
  std::size_t jobs = 0;
  for (std::size_t done = 0; done < args.min_chunks || ms_since(started) < 1e3 * args.seconds;
       ++done) {
    const std::size_t chunk = args.first_chunk + done;
    const std::string dir = args.dir + "/c" + std::to_string(chunk);
    std::filesystem::create_directories(dir);
    chunks += (done ? "," : "") + run_chunk(args, chunk, dir);
    if (done == 0) {
      rss_mb = peak_rss_mb();
      jobs = make_workload(args.workload, 0, args.replications).spec.jobs;
    }
  }
  std::cout << "{\"mode\":\"sweep\",\"workload\":" << json_str(args.workload)
            << ",\"jobs\":" << jobs << ",\"peak_rss_mb\":" << json_num(rss_mb)
            << ",\"chunks\":[" << chunks << "]}\n";
  return 0;
}

// ---------------------------------------------------------------------------
// Traced replay
// ---------------------------------------------------------------------------

struct BackendStats {
  double ms = 0.0;
  long long newton_steps = 0;
  std::size_t nonconverged = 0;
  double kkt_residual_max = 0.0;
};

/// Per-layer spans and counts, accumulated over one replay.
struct LayerStats {
  double draw_ms = 0.0, screen_ms = 0.0;
  std::size_t draws = 0, screened = 0, screen_passed = 0;

  double partition_ms = 0.0;
  std::size_t partition_calls = 0, partition_mismatches = 0, partition_rows = 0;
  std::size_t partition_distinct_calls = 0, partition_distinct_results = 0;

  std::map<std::string, double> allocate_ms;
  std::size_t allocate_calls = 0;
  double validate_ms = 0.0;
  std::size_t feasible_rows = 0, validated_rows = 0;

  double joint_ms = 0.0;
  std::size_t joint_calls = 0;
  std::map<std::string, BackendStats> backends;

  double detect_ms = 0.0;
  std::size_t detect_rows = 0;

  double sink_ms = 0.0;
  std::vector<double> cell_ms;
};

class Replayer {
 public:
  /// `gp_schemes` lists the schemes whose feasible assignments are re-solved
  /// out of band through the joint GP (none when the replay only checks rows).
  Replayer(const exp::SweepSpec& spec, std::set<std::string> gp_schemes)
      : spec_(spec),
        gp_schemes_(std::move(gp_schemes)),
        schemes_(core::AllocatorRegistry::global().make_all(spec.schemes)),
        backends_(gp::SolverRegistry::global().names()) {
    point_specs_.resize(spec_.points.size());
    for (std::size_t p = 0; p < spec_.points.size(); ++p) {
      const auto& point = spec_.points[p];
      if (point.instance.has_value() || !point.files.empty()) {
        throw std::invalid_argument("the replay covers synthetic sweep points only");
      }
      auto& point_spec = point_specs_[p];
      point_spec.synthetic = point.synthetic;
      point_spec.total_utilization = point.total_utilization;
      point_spec.base_seed = exp::sweep_point_seed(spec_.base_seed, p);
      point_spec.max_attempts = spec_.max_attempts;
      point_spec.count = spec_.replications;
    }
  }

  /// Replays every cell in the sweep's emission order, streaming rows to
  /// `sinks` (timed as the exp sink layer).
  void run(const std::vector<exp::ResultSink*>& sinks, LayerStats& stats) {
    for (auto* sink : sinks) sink->begin();
    for (std::size_t p = 0; p < spec_.points.size(); ++p) {
      for (const auto& item : exp::enumerate(point_specs_[p])) {
        auto rows = replay_cell(p, item, stats);
        const auto sink_started = Clock::now();
        for (const auto& row : rows) {
          for (auto* sink : sinks) sink->row(row);
        }
        stats.sink_ms += ms_since(sink_started);
      }
    }
    for (auto* sink : sinks) sink->end();
  }

 private:
  /// The per-unit context exp::Sweep installs: GP backend, controller
  /// policy, and the SCP warm start seeded from the grid neighbor (the
  /// nearest preceding point with the same core count, same instance index).
  std::vector<exp::BatchRow> replay_cell(std::size_t p, const exp::BatchItem& item,
                                         LayerStats& stats) {
    const auto cell_started = Clock::now();
    const double partition_before = stats.partition_ms;
    const gp::GpBackendScope backend_scope(spec_.gp_backend);
    const sim::ControllerScope controller_scope(spec_.controller_policy);
    std::optional<core::ScpWarmStartScope> warm_scope;
    if (spec_.scp_warm_start) {
      for (std::size_t q = p; q-- > 0;) {
        if (spec_.points[q].synthetic.num_cores != spec_.points[p].synthetic.num_cores) {
          continue;
        }
        exp::BatchItem neighbor;
        neighbor.index = item.index;
        neighbor.seed = exp::instance_seed(point_specs_[q].base_seed, item.index);
        neighbor.label = "seed=" + std::to_string(neighbor.seed);
        auto cache = std::make_shared<std::optional<std::vector<std::vector<double>>>>();
        const exp::BatchSpec* neighbor_spec = &point_specs_[q];
        core::ScpWarmStartHooks hooks;
        hooks.source = [cache, neighbor_spec, neighbor](std::size_t) {
          if (!cache->has_value()) {
            cache->emplace();
            if (auto warm = exp::sweep_warm_periods(*neighbor_spec, neighbor)) {
              (*cache)->push_back(std::move(*warm));
            }
          }
          return **cache;
        };
        warm_scope.emplace(std::move(hooks));
        break;
      }
    }

    std::vector<exp::BatchRow> rows;
    std::optional<core::Instance> instance;
    std::vector<core::DesignPoint> points;
    try {
      rows = evaluate_cell(p, item, stats, instance, points);
    } catch (const std::exception& e) {
      rows.clear();
      points.clear();
      for (const auto& scheme : schemes_) {
        exp::BatchRow row;
        row.instance_index = item.index;
        row.instance_label = item.label;
        row.seed = item.seed;
        row.scheme = scheme->name();
        row.status = "error";
        row.note = e.what();
        rows.push_back(std::move(row));
      }
    }
    stats.cell_ms.push_back(ms_since(cell_started) - (stats.partition_ms - partition_before));

    const auto& point = spec_.points[p];
    for (auto& row : rows) {
      row.cell = exp::sweep_cell_key(p, point.label, item.index);
      row.point_index = p;
      row.point_label = point.label;
      row.target_utilization = point.total_utilization;
      row.instance_index = item.index;
      row.instance_label = item.label;
      row.seed = item.seed;
    }

    // Out of band: re-solve each feasible GP-scheme assignment through the
    // joint-period optimizer and its GP through every registered backend.
    for (std::size_t j = 0; j < points.size() && instance.has_value(); ++j) {
      if (gp_schemes_.count(points[j].scheme) == 0 || !points[j].allocation.feasible) continue;
      resolve_gp(*instance, *schemes_[j], points[j].allocation, stats);
    }
    return rows;
  }

  /// Mirrors exp::evaluate_batch_item for one synthetic item, with every
  /// layer call timed.  `points` receives the design point of each evaluated
  /// scheme (default-constructed for skipped/error rows).
  std::vector<exp::BatchRow> evaluate_cell(std::size_t p, const exp::BatchItem& item,
                                           LayerStats& stats,
                                           std::optional<core::Instance>& instance,
                                           std::vector<core::DesignPoint>& points) {
    const auto& point_spec = point_specs_[p];
    exp::BatchRow base;
    base.instance_index = item.index;
    base.instance_label = item.label;
    base.seed = item.seed;

    // gen: generate_filtered_instance, split into draws and Eq. (1) screens.
    hydra::util::Xoshiro256 rng(item.seed);
    for (int attempt = 0; attempt < point_spec.max_attempts; ++attempt) {
      auto started = Clock::now();
      auto candidate =
          gen::generate_instance(point_spec.synthetic, point_spec.total_utilization, rng);
      stats.draw_ms += ms_since(started);
      ++stats.draws;
      if (!candidate.has_value()) continue;
      started = Clock::now();
      const bool passed = gen::satisfies_necessary_condition(candidate->instance);
      stats.screen_ms += ms_since(started);
      ++stats.screened;
      if (!passed) continue;
      ++stats.screen_passed;
      base.rt_utilization = candidate->rt_utilization;
      base.sec_utilization = candidate->sec_utilization;
      instance = std::move(candidate->instance);
      break;
    }

    std::vector<exp::BatchRow> rows;
    if (!instance.has_value()) {
      for (const auto& scheme : schemes_) {
        exp::BatchRow row = base;
        row.scheme = scheme->name();
        row.status = "no-instance";
        row.note = "no Eq.(1)-satisfying task set at utilization " +
                   std::to_string(point_spec.total_utilization);
        rows.push_back(std::move(row));
      }
      return rows;
    }

    PartitionsSeen partitions;
    const double budget =
        static_cast<double>(std::max<std::size_t>(spec_.optimal_budget, 1));
    for (const auto& scheme : schemes_) {
      exp::BatchRow row = base;
      row.scheme = scheme->name();
      core::DesignPoint point;
      point.scheme = scheme->name();
      if (scheme->search_space(*instance) > budget) {
        row.status = "skipped";
        row.note = "search space exceeds the engine budget of " +
                   std::to_string(spec_.optimal_budget);
        rows.push_back(std::move(row));
        points.push_back(std::move(point));
        continue;
      }
      try {
        auto started = Clock::now();
        point.allocation = scheme->allocate(*instance);
        stats.allocate_ms[scheme->name()] += ms_since(started);
        ++stats.allocate_calls;
        replay_partition(*instance, *scheme, point.allocation.rt_partition, partitions,
                         stats);

        if (point.allocation.feasible) {
          ++stats.feasible_rows;
          point.cumulative_tightness =
              point.allocation.cumulative_tightness(instance->security_tasks);
          const double upper = hydra::sec::max_cumulative_tightness(instance->security_tasks);
          point.normalized_tightness = upper > 0.0 ? point.cumulative_tightness / upper : 0.0;
          started = Clock::now();
          const auto report = core::validate_allocation(
              *instance, point.allocation, scheme->blocking(), scheme->priority_order(),
              scheme->schedule_test());
          stats.validate_ms += ms_since(started);
          point.validated = report.valid;
          point.validation_problem = report.problem;
          if (point.validated) ++stats.validated_rows;
        }

        row.feasible = point.allocation.feasible;
        row.validated = point.validated;
        row.cumulative_tightness = point.cumulative_tightness;
        row.normalized_tightness = point.normalized_tightness;
        if (!point.allocation.feasible) {
          row.note = point.allocation.failure_reason;
        } else if (!point.validated) {
          row.note = point.validation_problem;
        } else if (!spec_.metrics.empty()) {
          started = Clock::now();
          for (const auto& metric : spec_.metrics) {
            row.metrics.emplace_back(metric.name, metric.compute(*instance, point));
          }
          stats.detect_ms += ms_since(started);
          ++stats.detect_rows;
        }
      } catch (const std::exception& e) {
        row.status = "error";
        row.note = e.what();
        row.metrics.clear();
      }
      rows.push_back(std::move(row));
      points.push_back(std::move(point));
    }
    stats.partition_distinct_calls += partitions.calls.size();
    stats.partition_distinct_results += partitions.results.size();
    return rows;
  }

  /// The RT partitions one cell's schemes used: by call (core count asked
  /// for; the tasks and default options are the same for every scheme of a
  /// cell) and by resulting assignment.
  struct PartitionsSeen {
    std::set<std::size_t> calls;
    std::set<std::vector<std::size_t>> results;
  };

  /// rt: re-runs the partition call the scheme made internally and checks it
  /// reproduces the scheme's partition.  Schemes built on
  /// allocate_with_default_partition partition onto all M cores; the
  /// single-core family onto M-1 (core/single_core.cpp), re-expressed over M.
  static void replay_partition(const core::Instance& instance, const core::Allocator& scheme,
                               const rt::Partition& used, PartitionsSeen& seen,
                               LayerStats& stats) {
    if (used.num_cores == 0) return;
    const bool single_core = scheme.name().rfind("single-core", 0) == 0;
    const std::size_t cores = single_core ? used.num_cores - 1 : used.num_cores;
    ++stats.partition_rows;
    seen.calls.insert(cores);
    seen.results.insert(used.core_of);
    const auto started = Clock::now();
    const auto again = rt::partition_rt_tasks(instance.rt_tasks, cores);
    stats.partition_ms += ms_since(started);
    ++stats.partition_calls;
    if (!again.has_value() || again->core_of != used.core_of) ++stats.partition_mismatches;
  }

  void resolve_gp(const core::Instance& instance, const core::Allocator& scheme,
                  const core::Allocation& allocation, LayerStats& stats) {
    std::vector<std::size_t> core_of;
    core_of.reserve(allocation.placements.size());
    for (const auto& placement : allocation.placements) core_of.push_back(placement.core);
    core::JointPeriodOptions options;
    options.blocking = scheme.blocking();

    auto started = Clock::now();
    core::optimize_joint_periods(instance, allocation.rt_partition, core_of, options);
    stats.joint_ms += ms_since(started);
    ++stats.joint_calls;

    const auto problem =
        core::make_joint_period_gp(instance, allocation.rt_partition, core_of, options);
    for (const auto& backend : backends_) {
      auto& b = stats.backends[backend];
      started = Clock::now();
      const auto result = gp::solve_with_backend(problem, std::nullopt, backend);
      b.ms += ms_since(started);
      b.newton_steps += result.newton_steps;
      if (!result.ok() || !result.converged) ++b.nonconverged;
      if (std::isfinite(result.kkt_residual)) {
        b.kkt_residual_max = std::max(b.kkt_residual_max, result.kkt_residual);
      }
    }
  }

  const exp::SweepSpec& spec_;
  std::set<std::string> gp_schemes_;
  std::vector<std::unique_ptr<core::Allocator>> schemes_;
  std::vector<std::string> backends_;
  std::vector<exp::BatchSpec> point_specs_;
};

int run_replay(const Args& args) {
  auto workload = make_workload(args.workload, args.seed, args.replications);
  const std::string rows_path = args.dir + "/rows.jsonl";
  const std::string replay_path = args.dir + "/replay.jsonl";
  exp::AggregateOptions agg_options;
  agg_options.reference_scheme = workload.reference;
  const exp::Sweep sweep(std::move(workload.spec));  // defaulted labels

  LayerStats stats;
  Replayer replayer(sweep.spec(), args.resolve_gp ? workload.gp_schemes
                                                 : std::set<std::string>{});
  exp::Aggregator aggregator(agg_options);
  auto file_sink = exp::make_file_sink(replay_path);
  const auto started = Clock::now();
  replayer.run({file_sink.get(), &aggregator}, stats);
  file_sink.reset();
  const double replay_ms = ms_since(started);

  const auto load_started = Clock::now();
  const auto checkpoint = exp::load_sweep_checkpoint(rows_path);
  const double resume_load_ms = ms_since(load_started);

  const std::string rows = read_file(rows_path);
  const std::size_t diff_line = first_difference(rows, read_file(replay_path));

  std::ostringstream out;
  out << "{\"mode\":\"replay\",\"workload\":" << json_str(args.workload)
      << ",\"seed\":" << args.seed << ",\"replay_ms\":" << json_num(replay_ms)
      << ",\"diff_line\":" << diff_line << ",\"checkpoint_cells\":" << checkpoint.size()
      << ",\"resume_load_ms\":" << json_num(resume_load_ms)
      << ",\"row_bytes\":" << rows.size() << ",\"sink_ms\":" << json_num(stats.sink_ms)
      << ",\"draw_ms\":" << json_num(stats.draw_ms) << ",\"draws\":" << stats.draws
      << ",\"screen_ms\":" << json_num(stats.screen_ms) << ",\"screened\":" << stats.screened
      << ",\"screen_passed\":" << stats.screen_passed
      << ",\"partition_ms\":" << json_num(stats.partition_ms)
      << ",\"partition_calls\":" << stats.partition_calls
      << ",\"partition_mismatches\":" << stats.partition_mismatches
      << ",\"partition_rows\":" << stats.partition_rows
      << ",\"partition_distinct_calls\":" << stats.partition_distinct_calls
      << ",\"partition_distinct_results\":" << stats.partition_distinct_results
      << ",\"allocate_calls\":" << stats.allocate_calls
      << ",\"validate_ms\":" << json_num(stats.validate_ms)
      << ",\"feasible_rows\":" << stats.feasible_rows
      << ",\"validated_rows\":" << stats.validated_rows
      << ",\"joint_ms\":" << json_num(stats.joint_ms) << ",\"joint_calls\":" << stats.joint_calls
      << ",\"detect_ms\":" << json_num(stats.detect_ms)
      << ",\"detect_rows\":" << stats.detect_rows << ",\"allocate_ms\":{";
  bool first = true;
  for (const auto& [scheme, ms] : stats.allocate_ms) {
    out << (first ? "" : ",") << json_str(scheme) << ':' << json_num(ms);
    first = false;
  }
  out << "},\"backends\":{";
  first = true;
  for (const auto& [backend, b] : stats.backends) {
    out << (first ? "" : ",") << json_str(backend) << ":{\"ms\":" << json_num(b.ms)
        << ",\"newton_steps\":" << b.newton_steps
        << ",\"nonconverged\":" << b.nonconverged
        << ",\"kkt_residual_max\":" << json_num(b.kkt_residual_max) << '}';
    first = false;
  }
  out << "},\"cell_ms\":[";
  for (std::size_t i = 0; i < stats.cell_ms.size(); ++i) {
    out << (i ? "," : "") << json_num(stats.cell_ms[i]);
  }
  out << "]}\n";
  std::cout << out.str();
  return 0;
}

#if defined(__clang__)
constexpr const char* kCompiler = "clang " __clang_version__;
#elif defined(__GNUC__)
constexpr const char* kCompiler = "gcc " __VERSION__;
#else
constexpr const char* kCompiler = "unknown";
#endif

int run_stamp() {
  std::cout << "{\"mode\":\"stamp\",\"build_type\":" << json_str(PERFBENCH_BUILD_TYPE)
            << ",\"compiler\":" << json_str(kCompiler)
#ifdef NDEBUG
            << ",\"ndebug\":true"
#else
            << ",\"ndebug\":false"
#endif
            << "}\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    if (args.mode == "stamp") return run_stamp();
    if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
      std::cerr << "perfbench_driver: refusing to measure a '" << PERFBENCH_BUILD_TYPE
                << "' build; configure with -DCMAKE_BUILD_TYPE=Release\n";
      return 3;
    }
    if (args.mode == "sweep") return run_sweep(args);
    if (args.mode == "replay") return run_replay(args);
    throw std::invalid_argument("unknown mode '" + args.mode + "'");
  } catch (const std::exception& e) {
    std::cerr << "perfbench_driver: " << e.what() << "\n";
    return 2;
  }
}
