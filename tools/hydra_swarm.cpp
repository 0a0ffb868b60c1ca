// hydra_swarm: shard orchestrator.
//
// One mode, `sweep`, named by the first positional: fan a sharded sweep
// command out over N local worker processes, restart the dead and the wedged
// (bounded retries, exponential backoff), surface live partials, and emit a
// final merged stream byte-identical to the single-process run:
//
//     hydra_swarm sweep --shards 3 --dir /tmp/swarm --out merged.jsonl
//         -- ./build/bench_fig2_acceptance --replications 20
//
// Everything after `--` is the worker command; the orchestrator appends
// `--shard i/N --out <dir>/shard_i.jsonl --resume <dir>/shard_i.jsonl` per
// worker, so any sweep tool that understands those three flags can swarm.
//
// With `--launcher` the workers run through a launcher template instead of a
// plain local fork/exec — `{cmd}` becomes the shell-quoted worker command,
// `{host}` round-robins over `--hosts`:
//
//     hydra_swarm sweep --shards 8 --dir /nfs/swarm
//         --launcher "ssh {host} {cmd}" --hosts m1,m2,m3,m4
//         -- ./build/bench_fig2_acceptance --replications 20
//
// The shard directory must live on a filesystem shared with every host
// (liveness and resume both read the checkpoints); `--launcher "sh -c
// {cmd}"` exercises the same path entirely locally (CI does).
//
// Exit codes: 0 success; 1 swarm failure (the salvage command is printed
// before exiting); 2 usage error.
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "swarm/process.h"
#include "swarm/sweep_runner.h"
#include "util/cli.h"

namespace swarm = hydra::swarm;

namespace {

int usage(const std::string& program) {
  std::cerr
      << "usage: " << program << " <mode> [options]\n"
      << "  sweep   --shards N --dir DIR [--out F] [--partial F] [--events F]\n"
      << "          [--poll S] [--merge-every S] [--max-attempts K]\n"
      << "          [--stall-timeout S] [--backoff S] [--expect-fingerprint HEX]\n"
      << "          [--chaos-kill-shard I] [--chaos-after-cells N]\n"
      << "          [--launcher TEMPLATE] [--hosts h1,h2,...]\n"
      << "          -- worker_command worker_args...\n";
  return 2;
}

/// Sink selected by --events: a file stream, or none.
struct EventSink {
  std::ofstream file;
  std::ostream* stream = nullptr;

  explicit EventSink(const std::string& path) {
    if (path.empty()) return;
    file.open(path, std::ios::trunc);
    if (!file) throw std::runtime_error("cannot open events file: " + path);
    stream = &file;
  }
};

int run_sweep(int argc, char** argv) {
  // Everything after a literal `--` is the worker command template; only the
  // part before it belongs to the orchestrator's parser.
  int split = argc;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--") {
      split = i;
      break;
    }
  }
  const hydra::util::CliParser cli(split, argv, /*allow_positionals=*/true);

  swarm::SweepRunnerOptions options;
  options.shards = static_cast<std::size_t>(cli.get_int("shards", 2));
  options.dir = cli.get_string("dir", "");
  options.out_path = cli.get_string("out", "");
  options.partial_path = cli.get_string("partial", "");
  options.poll_interval_s = cli.get_double("poll", 0.25);
  options.merge_interval_s = cli.get_double("merge-every", 5.0);
  options.policy.max_attempts = static_cast<int>(cli.get_int("max-attempts", 3));
  options.policy.stall_timeout_s = cli.get_double("stall-timeout", 0.0);
  options.policy.backoff_initial_s = cli.get_double("backoff", 0.5);
  options.expect_fingerprint = cli.get_string("expect-fingerprint", "");
  options.chaos_kill_shard = static_cast<int>(cli.get_int("chaos-kill-shard", -1));
  options.chaos_after_rows =
      static_cast<std::size_t>(cli.get_int("chaos-after-cells", 1));
  for (int i = split + 1; i < argc; ++i) {
    options.worker_command.emplace_back(argv[i]);
  }
  if (options.dir.empty() || options.worker_command.empty()) {
    std::cerr << "hydra_swarm sweep: need --dir and a worker command after --\n";
    return 2;
  }

  EventSink events(cli.get_string("events", ""));
  swarm::EventLog log(events.stream);
  // --launcher selects the remote backend (a plain local launcher template
  // like "sh -c {cmd}" works too); without it workers fork/exec directly.
  std::unique_ptr<swarm::ProcessBackend> backend;
  const std::string launcher = cli.get_string("launcher", "");
  if (!launcher.empty()) {
    swarm::RemoteBackendOptions remote;
    remote.launcher = launcher;
    remote.hosts = cli.get_string_list("hosts", {});
    backend = std::make_unique<swarm::RemoteProcessBackend>(std::move(remote));
  } else {
    backend = std::make_unique<swarm::LocalProcessBackend>();
  }
  swarm::SweepRunner runner(std::move(options), *backend, log);
  const auto result = runner.run(std::cerr);
  if (!result.ok) {
    std::cerr << "hydra_swarm: " << result.error << "\n";
    return 1;
  }
  std::cerr << "hydra_swarm: swarm complete — " << result.cells << " cells, "
            << result.rows << " rows, " << result.restarts << " restart(s)\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc < 2) return usage(argv[0]);
    const std::string mode = argv[1];
    // Re-point argv so the mode parser sees `hydra_swarm-<mode>` as argv[0]
    // and the mode's own options from argv[1] on.
    if (mode == "sweep") return run_sweep(argc - 1, argv + 1);
    std::cerr << "hydra_swarm: unknown mode \"" << mode << "\"\n";
    return usage(argv[0]);
  } catch (const std::exception& error) {
    std::cerr << "hydra_swarm: " << error.what() << "\n";
    return 1;
  }
}
