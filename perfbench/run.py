#!/usr/bin/env python3
"""Sweep benchmark for the HYDRA design-space exploration.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload fig2-grid --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

The first call builds perfbench_driver (and the libhydra_* libraries it
links) in .bench_build, or in $CARGO_TARGET_DIR when that is set.  A
--trace 0 run splits --seconds over a few driver processes, each of which
sweeps chunks of the workload (its whole grid at a few task sets per point)
on inputs derived from (--seed, chunk index); it reports medians over the
chunks, rescaled to a reference host speed.  A --trace 1 run sweeps one
chunk per process and replays it with every layer call timed.  The last
line of output is one JSON object: the end-to-end metrics with --trace 0,
the per-layer metrics with --trace 1.  Every run checks its rows (see
README.md).
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.dont_write_bytecode = True
sys.path.insert(0, HERE)

import arith  # noqa: E402

WORKLOADS = ("fig2-grid", "adaptive-grid", "gp-joint")
# Runnable but not in BENCHMARK.json: its rows include error rows from a
# known defect of the sim layer (see README.md), and a benchmark workload
# may not fail.
UNLISTED_WORKLOADS = ("runtime-sim",)
# A --trace 0 run splits its time over this many sweep processes, each of
# which sweeps at least MIN_CHUNKS chunks.
PROCESSES = 4
MIN_CHUNKS = 2
DRIVER_TIMEOUT_S = 90
# CPU time per thread of the driver's reference work on the machine the
# benchmark was written on (a 4-vCPU Intel Xeon VM); see host_speed().
REFERENCE_CPU_MS = 5.0

# Every scheme any workload runs and every registered GP backend: the
# per-layer metric set is fixed, so a scheme or backend a workload does not
# use reports 0.
SCHEMES = ("hydra", "single-core", "contego", "period-adapt", "util/worst-fit",
           "hydra/gp", "period-adapt/gp", "single-core/joint")
GP_BACKENDS = ("scp/barrier", "ipm/filter", "pick-best")

END_TO_END = (
    ("cells_per_s", "1/s"),
    ("resume_cells_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_row_ratio", "ratio"),
)


def per_layer_units():
    """Per-layer metric name -> unit, in report order."""
    units = {
        "gen.draw_ms": "ms", "gen.draws": "count", "gen.screen_ms": "ms",
        "gen.screen_pass_ratio": "ratio",
        "rt.partition_ms": "ms", "rt.partition_calls": "count",
        "rt.partition_reuse_ratio": "ratio", "rt.partition_result_reuse_ratio": "ratio",
    }
    for scheme in SCHEMES:
        units["core.allocate_ms." + arith.sanitize(scheme)] = "ms"
    units.update({
        "core.allocate_calls": "count", "core.validate_ms": "ms",
        "core.validated_ratio": "ratio",
        "gp.joint_ms": "ms", "gp.joint_calls": "count",
    })
    for backend in GP_BACKENDS:
        name = arith.sanitize(backend)
        units["gp.solve_ms." + name] = "ms"
        units["gp.newton_steps." + name] = "count"
        units["gp.nonconverged." + name] = "count"
        units["gp.kkt_residual_max." + name] = "ratio"
    units.update({
        "sim.detect_ms": "ms", "sim.rows": "count",
        "exp.cell_ms.p50": "ms", "exp.cell_ms.tail": "ms",
        "exp.cell_ms.tail_pct": "%", "exp.cell_ms.samples": "count",
        "exp.parallel_efficiency": "ratio", "exp.sink_ms": "ms",
        "exp.row_bytes": "bytes", "exp.resume_load_ms": "ms",
        "trace.overhead_ratio": "ratio",
    })
    return units


class BenchError(Exception):
    pass


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_dir():
    configured = os.environ.get("CARGO_TARGET_DIR")
    return os.path.abspath(configured) if configured else os.path.join(ROOT, ".bench_build")


def build(out_dir):
    """Configures (once) and builds perfbench_driver; returns its path."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        raise BenchError(f"{ROOT} is not a hydra checkout (no CMakeLists.txt or src/)")
    steps = []
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out_dir, "--target", "perfbench_driver",
                  "-j", str(min(4, os.cpu_count() or 1))])
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True, check=False)
        if done.returncode != 0:
            log(done.stdout[-4000:])
            raise BenchError("build step failed: " + " ".join(step))
    return os.path.join(out_dir, "perfbench_driver")


def call_driver(driver, args):
    """Runs the driver once and returns its JSON report."""
    try:
        done = subprocess.run([driver] + args, cwd=ROOT, capture_output=True,
                              text=True, timeout=DRIVER_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"perfbench_driver {' '.join(args)} timed out") from exc
    if done.returncode != 0:
        log(done.stderr)
        raise BenchError(f"perfbench_driver {' '.join(args)} exited {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def sha256_of(path):
    digest = hashlib.sha256()
    with open(path, "rb") as rows:
        for block in iter(lambda: rows.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def check_chunk(chunk, problems):
    tag = f"chunk seed {chunk['seed']}"
    if chunk["validated_rows"] != chunk["feasible_rows"]:
        problems.append(f"{tag}: feasible rows not all validated")
    if chunk["resume_short_passes"]:
        problems.append(f"{tag}: {chunk['resume_short_passes']} resume passes did not "
                        "splice every cell")
    if chunk["resume_diff_line"]:
        problems.append(f"{tag}: resumed rows differ at line {chunk['resume_diff_line']}")


def check_replay(report, chunk, problems):
    tag = f"chunk seed {report['seed']}"
    if report["diff_line"]:
        problems.append(f"{tag}: replay rows differ from the sweep's at line "
                        f"{report['diff_line']}")
    if report["checkpoint_cells"] != chunk["cells"]:
        problems.append(f"{tag}: checkpoint holds {report['checkpoint_cells']} cells")
    if report["validated_rows"] != report["feasible_rows"]:
        problems.append(f"{tag}: replay feasible rows not all validated")
    if report["partition_mismatches"]:
        log(f"warning: {tag}: {report['partition_mismatches']} replayed partitions "
            "differ from the scheme's own")


def cell_lines(path, suffix=None):
    """Row lines of a JSONL file, optionally only cells whose key ends in suffix."""
    with open(path, encoding="utf-8") as rows:
        return [line for line in rows
                if suffix is None or json.loads(line)["cell"].endswith(suffix)]


def check_first_instances(driver, workload, seed, chunk, chunk_dir, check_dir, problems):
    """Untimed check of a --trace 0 run, on the first task set of every point.

    Cell seeds do not depend on the replication count, so a one-replication
    sweep of chunk 0 reproduces that chunk's i0 cells.  Its rows must equal
    those, survive resume, and equal the serial replay (on gp-joint, which
    runs --jobs 4, that is the --jobs parity check).
    """
    args = ["--workload", workload, "--replications", "1"]
    sweep = call_driver(driver, ["sweep", "--seed", str(seed), "--dir", check_dir] + args)
    check_chunk(sweep["chunks"][0], problems)
    check_dir = os.path.join(check_dir, "c0")
    replay = call_driver(driver, ["replay", "--seed", str(chunk["seed"]), "--dir", check_dir,
                                  "--resolve-gp", "0"] + args)
    check_replay(replay, sweep["chunks"][0], problems)
    if cell_lines(os.path.join(check_dir, "rows.jsonl")) != cell_lines(
            os.path.join(chunk_dir, "rows.jsonl"), suffix=":i0"):
        problems.append(f"chunk seed {chunk['seed']}: first-instance rows differ "
                        "from the chunk's")


def layer_metrics(sweep, chunk, replay):
    """Per-layer metrics of one traced chunk (cell percentiles aside)."""
    m = {
        "gen.draw_ms": replay["draw_ms"],
        "gen.draws": replay["draws"],
        "gen.screen_ms": replay["screen_ms"],
        "gen.screen_pass_ratio": arith.ratio(replay["screen_passed"], replay["screened"]),
        "rt.partition_ms": replay["partition_ms"],
        "rt.partition_calls": replay["partition_calls"],
        "rt.partition_reuse_ratio": arith.reuse_ratio(replay["partition_distinct_calls"],
                                                      replay["partition_rows"]),
        "rt.partition_result_reuse_ratio": arith.reuse_ratio(
            replay["partition_distinct_results"], replay["partition_rows"]),
        "core.allocate_calls": replay["allocate_calls"],
        "core.validate_ms": replay["validate_ms"],
        "core.validated_ratio": arith.ratio(replay["validated_rows"],
                                            replay["feasible_rows"], empty=1.0),
        "gp.joint_ms": replay["joint_ms"],
        "gp.joint_calls": replay["joint_calls"],
        "sim.detect_ms": replay["detect_ms"],
        "sim.rows": replay["detect_rows"],
        "exp.parallel_efficiency": sum(replay["cell_ms"]) / (sweep["jobs"] * chunk["sweep_ms"]),
        "exp.sink_ms": replay["sink_ms"],
        "exp.row_bytes": replay["row_bytes"],
        "exp.resume_load_ms": replay["resume_load_ms"],
        "trace.overhead_ratio": replay["replay_ms"] / chunk["sweep_ms"],
    }
    for scheme in SCHEMES:
        m["core.allocate_ms." + arith.sanitize(scheme)] = replay["allocate_ms"].get(scheme, 0.0)
    for backend in GP_BACKENDS:
        name = arith.sanitize(backend)
        stats = replay["backends"].get(backend, {})
        m["gp.solve_ms." + name] = stats.get("ms", 0.0)
        m["gp.newton_steps." + name] = stats.get("newton_steps", 0)
        m["gp.nonconverged." + name] = stats.get("nonconverged", 0)
        m["gp.kkt_residual_max." + name] = stats.get("kkt_residual_max") or 0.0
    return m


def host_speed(reference_cpu_ms, threads):
    """arith.host_speed against this benchmark's REFERENCE_CPU_MS.

    The driver times a fixed piece of work that calls no hydra code, on as
    many threads as the measured step uses, right beside each timed step:
    before and after a chunk's sweep, before each resume pass.
    """
    return arith.host_speed(reference_cpu_ms, threads, REFERENCE_CPU_MS)


def resume_rate(chunk):
    """Cells per second of a chunk's resume passes, at reference speed."""
    return arith.median([chunk["cells"] / (ms / 1e3) / host_speed([ref], 1)
                         for ms, ref in zip(chunk["resume_ms"],
                                            chunk["resume_reference_cpu_ms"])])


def sweep_process(driver, workload, seed, work, first_chunk, seconds, min_chunks):
    """Runs one `perfbench_driver sweep` process; checks and digests its chunks."""
    proc_dir = os.path.join(work, f"p{first_chunk}")
    report = call_driver(driver, ["sweep", "--workload", workload, "--seed", str(seed),
                                  "--dir", proc_dir, "--first-chunk", str(first_chunk),
                                  "--seconds", str(seconds), "--min-chunks", str(min_chunks)])
    problems = []
    for chunk in report["chunks"]:
        check_chunk(chunk, problems)
        chunk_dir = os.path.join(proc_dir, f"c{chunk['chunk']}")
        print(f"# digest workload={workload} seed={seed} chunk={chunk['chunk']} "
              f"base_seed={chunk['seed']} rows={chunk['rows']} "
              f"sha256={sha256_of(os.path.join(chunk_dir, 'rows.jsonl'))}")
    print(f"# process chunks={len(report['chunks'])} cells/chunk={report['chunks'][0]['cells']} "
          f"sweep_ms={arith.median([c['sweep_ms'] for c in report['chunks']]):.3f} "
          f"peak_rss_mb={report['peak_rss_mb']:.3f}")
    return report, proc_dir, problems


def run_workload(driver, workload, seed, seconds, trace):
    """Returns the result object of one workload run."""
    work = os.path.join(build_dir(), "work", f"{workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    problems, processes, layers, cell_ms = [], [], [], []
    try:
        started = time.monotonic()
        if trace:
            # One chunk per process, each followed by its traced replay.
            while not processes or time.monotonic() - started < seconds:
                report, proc_dir, found = sweep_process(driver, workload, seed, work,
                                                        len(processes), 0, 1)
                processes.append(report)
                problems += found
                chunk = report["chunks"][0]
                replay = call_driver(driver, [
                    "replay", "--workload", workload, "--seed", str(chunk["seed"]),
                    "--dir", os.path.join(proc_dir, f"c{chunk['chunk']}")])
                check_replay(replay, chunk, problems)
                layers.append(layer_metrics(report, chunk, replay))
                cell_ms.extend(replay["cell_ms"])
                shutil.rmtree(proc_dir)
        else:
            # The run's time is split over PROCESSES processes, so that
            # per-process effects (memory layout) average out as well.
            chunks = 0
            for index in range(PROCESSES):
                budget = (seconds - (time.monotonic() - started)) / (PROCESSES - index)
                report, proc_dir, found = sweep_process(driver, workload, seed, work, chunks,
                                                        max(budget, 0.0), MIN_CHUNKS)
                processes.append(report)
                problems += found
                chunks += len(report["chunks"])
                if index > 0:
                    shutil.rmtree(proc_dir)
            check_first_instances(driver, workload, seed, processes[0]["chunks"][0],
                                  os.path.join(work, "p0", "c0"), os.path.join(work, "check"),
                                  problems)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for problem in problems:
        log(f"CHECK FAILED ({workload}): {problem}")
    chunks = [chunk for report in processes for chunk in report["chunks"]]
    rows = sum(c["rows"] for c in chunks)
    failed = sum(c["failed_rows"] for c in chunks)
    if trace:
        units = per_layer_units()
        values = {name: arith.median([layer[name] for layer in layers])
                  for name in units if name in layers[0]}
        values["exp.cell_ms.p50"] = arith.median(cell_ms)
        tail = arith.tail_percentile(cell_ms)
        values["exp.cell_ms.tail_pct"] = 100.0 * tail[0] if tail else 0.0
        values["exp.cell_ms.tail"] = tail[1] if tail else max(cell_ms)
        values["exp.cell_ms.samples"] = len(cell_ms)
    else:
        units = dict(END_TO_END)
        jobs = processes[0]["jobs"]
        # Set-up runs just before the first reference try, the sweep between
        # the two.
        sweep_speed = [host_speed(c["reference_cpu_ms"], jobs) for c in chunks]
        setup_speed = [host_speed(c["reference_cpu_ms"][:1], jobs) for c in chunks]
        sweep_rates = [c["cells"] / (c["sweep_ms"] / 1e3) for c in chunks]
        setups = [arith.median(c["setup_ms"]) / 1e3 for c in chunks]
        resume_rates = [c["cells"] / (arith.median(c["resume_ms"]) / 1e3) for c in chunks]
        print(f"# as measured: cells_per_s={arith.median(sweep_rates):.6g} "
              f"resume_cells_per_s={arith.median(resume_rates):.6g} "
              f"setup_s={arith.median(setups):.6g} "
              f"host_speed={arith.median(sweep_speed):.4f}")
        values = {
            "cells_per_s": arith.median([r / k for r, k in zip(sweep_rates, sweep_speed)]),
            "resume_cells_per_s": arith.median([resume_rate(c) for c in chunks]),
            "setup_s": arith.median([t * k for t, k in zip(setups, setup_speed)]),
            "peak_rss_mb": arith.median([report["peak_rss_mb"] for report in processes]),
            "ok_row_ratio": 1.0 - arith.ratio(failed, rows),
        }
    print(f"# {workload}: {len(processes)} processes, {len(chunks)} chunks, {rows} rows, "
          f"{sum(c['cells'] for c in chunks)} cells")
    return {
        "correct": not problems,
        "attempted": rows,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + UNLISTED_WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # subprocess.run kills and reaps its child when an exception unwinds
    # through it, so turning SIGTERM into one stops the driver too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    try:
        driver = build(build_dir())
        stamp = call_driver(driver, ["stamp"])
        if stamp["build_type"] != "Release" or not stamp["ndebug"]:
            raise BenchError(f"driver built as {stamp['build_type']} "
                             f"(NDEBUG {stamp['ndebug']}); refusing to measure")
        print(f"# host nproc={os.cpu_count()} cpu={cpu_model()!r} "
              f"compiler={stamp['compiler']!r} build_type={stamp['build_type']}")
        workloads = WORKLOADS if args.workload == "all" else (args.workload,)
        results = {}
        for workload in workloads:
            results[workload] = run_workload(driver, workload, args.seed, args.seconds,
                                             args.trace)
            if len(workloads) > 1:
                print(json.dumps({"workload": workload, **results[workload]}))
    except BenchError as exc:
        log(f"perfbench: {exc}")
        return 1

    if len(results) == 1:
        result = results[args.workload]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{name}": metric for w, r in results.items()
                        for name, metric in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
