#!/usr/bin/env python3
"""The repo benchmark: builds the gsmb library and the perfbench runner
from source, runs one workload, and prints its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

prints the runner's "metric"/"digest" lines and, as the last line, one JSON
object {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
of BENCHMARK.json with --trace 0, the per-layer ones with --trace 1. The
exit code is the runner's: 0 when every operation succeeded and every
digest matched, non-zero otherwise.

    python3 perfbench/run.py --self-test

runs all four workloads, untraced and traced, at a tiny scale in seconds
and checks every metric name, unit and digest.

    python3 perfbench/run.py --record-reference

rewrites perfbench/reference_digests.txt from the current code (default
seed 1 and hold-out seed 2, full and tiny scale). Only do this when a change
is MEANT to change results.

Build output and generated inputs go to .bench_build/perfbench under the
repository root. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
BUILD = ROOT / ".bench_build" / "perfbench"
RUNNER = BUILD / "perfbench_runner"
REFERENCE = BENCH / "reference_digests.txt"
WORKLOADS = ["sweep-clean", "stream-dirty", "prepare-schemes", "serve-mixed"]
REFERENCE_SEEDS = [1, 2]
# A run must end within 180 s; leave room for the build check and Python.
RUN_TIMEOUT_S = 165


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    """Configures once, then (re)builds the runner; a no-op when current."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("library sources not found at %s" % (ROOT / "src"))
    BUILD.mkdir(parents=True, exist_ok=True)
    log = BUILD / "build.log"
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target",
                  "perfbench_runner", "-j", str(os.cpu_count() or 1)])
    with open(log, "w") as out:
        for step in steps:
            if subprocess.call(step, stdout=out, stderr=subprocess.STDOUT) != 0:
                sys.stderr.write(log.read_text()[-4000:])
                fail("build failed (log: %s)" % log)


def run_runner(workload, seed, seconds, trace, tiny=False, check=True):
    """Runs one workload in its own process; returns (code, stdout).
    `check` = compare against the reference digests."""
    data_dir = BUILD / "data"
    traces = BUILD / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    cmd = [str(RUNNER), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--data-dir", str(data_dir),
           "--trace-out", str(traces / ("%s-seed%d.json" % (workload, seed)))]
    if check:
        cmd += ["--reference", str(REFERENCE)]
    if tiny:
        cmd.append("--tiny")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    finally:
        shutil.rmtree(data_dir / ("%s-seed%d" % (workload, seed)),
                      ignore_errors=True)
    return proc.returncode, proc.stdout


def result_of(stdout):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def printed_metrics(stdout):
    """The "metric <name> <value> <unit>" lines as {name: (value, unit)}."""
    metrics = {}
    for line in stdout.splitlines():
        fields = line.split()
        if len(fields) == 4 and fields[0] == "metric":
            metrics[fields[1]] = (float(fields[2]), fields[3])
    return metrics


# -- self-test ---------------------------------------------------------------

# Metrics each workload prints beyond the gated end-to-end set.
EXTRA_METRICS = {
    "sweep-clean": ["precision", "ops_per_s", "candidates_per_s",
                    "op_samples", "failed_ratio"],
    "stream-dirty": ["precision", "ops_per_s", "candidates_per_s",
                     "op_samples", "failed_ratio"],
    "prepare-schemes": ["precision", "ops_per_s", "op_samples",
                        "failed_ratio"],
    "serve-mixed": ["precision", "op_p99_ms", "refresh_p50_ms", "op_samples",
                    "refresh_samples", "failed_ratio",
                    "serve.generator_late_p99_ms",
                    "serve.generator_late_max_ms"],
}

# Per-layer metrics each workload's traced run must measure (non-zero).
LAYERS = {
    "sweep-clean": ["datasets.generate_ms", "blocking.pairs_ms",
                    "core.features_ms", "ml.train_ms", "ml.training_size",
                    "ml.classify_ms", "core.prune_ms", "core.retained_ratio",
                    "core.match_ratio", "api.overhead_ms"],
    "stream-dirty": ["datasets.generate_ms", "stream.regen_ms",
                     "stream.shards", "stream.sweeps", "core.features_ms",
                     "ml.classify_ms", "core.prune_ms", "api.overhead_ms"],
    "prepare-schemes": ["datasets.generate_ms", "datasets.load_ms",
                        "schemes.build_ms", "schemes.blocks",
                        "blocking.purge_ms", "blocking.filter_ms",
                        "blocking.kept_assignment_ratio",
                        "stream.index_count_ms", "stream.candidates",
                        "obs.digest_ms"],
    "serve-mixed": ["datasets.generate_ms", "serve.ingest_ms",
                    "serve.refresh_ms", "serve.dirty_shards",
                    "serve.refresh.pairs_ms", "serve.refresh.features_ms",
                    "serve.refresh.classify_ms", "serve.refresh.prune_ms",
                    "serve.query_ms", "serve.query_wait_ms",
                    "serve.generator_late_max_ms"],
}


def self_test():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in WORKLOADS:
        for trace in (False, True):
            where = "%s trace=%d" % (workload, trace)
            code, stdout = run_runner(workload, 1, 1, trace, tiny=True)
            result = result_of(stdout)
            if code != 0 or result is None or not result.get("correct"):
                problems.append("%s: exit %d, result %s" % (where, code,
                                                            result))
                continue
            if result["failed"] != 0 or result["attempted"] < 1:
                problems.append("%s: %d of %d operations failed" % (
                    where, result["failed"], result["attempted"]))
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != declared[trace]:
                problems.append("%s: result metrics %s != declared %s" % (
                    where, sorted(got.items()),
                    sorted(declared[trace].items())))
            printed = printed_metrics(stdout)
            if printed.get("failed_ratio", (1, ""))[0] != 0:
                problems.append("%s: failed_ratio is not 0" % where)
            wanted = LAYERS[workload] + ["trace.overhead_ms"] if trace else (
                list(declared[False]) + EXTRA_METRICS[workload])
            for name in wanted:
                if name not in printed:
                    problems.append("%s: %s not reported" % (where, name))
                elif (name not in ("trace.overhead_ms", "failed_ratio")
                      and printed[name][0] <= 0):
                    problems.append("%s: %s is %g" % (where, name,
                                                      printed[name][0]))
            if trace:
                trace_file = BUILD / "traces" / ("%s-seed1.json" % workload)
                events = json.loads(trace_file.read_text())["traceEvents"]
                if not events:
                    problems.append("%s: empty span file" % where)
            print("self-test %-28s ok (%d operations)" % (
                where, result["attempted"]))
    if problems:
        print("self-test FAILED:")
        for problem in problems:
            print("  " + problem)
        return 1
    print("self-test passed: %d workloads, untraced and traced" %
          len(WORKLOADS))
    return 0


# -- reference digests ---------------------------------------------------------

def record_reference():
    rows = []
    for tiny in (False, True):
        for workload in WORKLOADS:
            for seed in REFERENCE_SEEDS:
                code, stdout = run_runner(workload, seed, 1, False, tiny=tiny,
                                          check=False)
                if code != 0:
                    fail("%s seed %d failed; not recording:\n%s" % (
                        workload, seed, stdout))
                for line in stdout.splitlines():
                    fields = line.split()
                    if len(fields) == 4 and fields[0] == "digest":
                        rows.append("%s %s %d %s" % (
                            "tiny" if tiny else "full", workload, seed,
                            " ".join(fields[1:])))
    header = ("# Reference digests of the perfbench workloads, per operation "
              "label.\n# Written by `python3 perfbench/run.py "
              "--record-reference`; a run whose (scale, workload, seed)\n"
              "# appears here fails on any differing digest.\n"
              "# scale workload seed label kind digest\n")
    REFERENCE.write_text(header + "\n".join(rows) + "\n")
    print("wrote %d digests to %s" % (len(rows), REFERENCE))
    return 0


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)

    build()
    if args.self_test:
        return self_test()
    if args.record_reference:
        return record_reference()
    if args.workload is None:
        parser.error("--workload is required")
    code, stdout = run_runner(args.workload, args.seed, args.seconds,
                              args.trace == 1)
    sys.stdout.write(stdout)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
