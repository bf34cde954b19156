#!/usr/bin/env python3
"""Build and run the repository's benchmark for one workload.

    python3 perfbench/run.py --workload <paper_cold|churn_sharded|service_trees>
        --seed <n> --seconds <s> --trace <0|1> [--also-parallel]

Builds the `perfbench` package (its own Cargo workspace) from source on the
serial configuration (`parallel` off, `obs` on), runs it, and passes its
output through: the last line on stdout is the JSON result. `--trace 1`
prints the per-layer metrics and writes the spans under `.bench_out/`.
`--also-parallel` (with `--trace 1`) also builds the default `parallel`
configuration, runs the same traced sequence on it and prints both builds'
per-layer numbers side by side; the result line stays the serial one.

Build output goes to `$CARGO_TARGET_DIR` (default `.bench_build`), one
sub-directory per configuration. Exits non-zero without a result when the
build or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "Cargo.toml")
# The run must end within 180 s of a warm start; leave room for the build check.
RUN_TIMEOUT_S = 170


def build(target_root, config):
    """Builds one configuration; returns the binary's path or None."""
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(target_root, config))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST]
    if config == "parallel":
        cmd += ["--features", "parallel"]
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-4000:])
        sys.stderr.write("run.py: building the %s configuration failed\n" % config)
        return None
    return os.path.join(target_root, config, "release", "perfbench")


def run(binary, args, trace_out=None):
    """Runs the benchmark binary; returns (exit code, stdout lines)."""
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.stderr.write("run.py: the run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1, []
    return proc.returncode, out.splitlines()


def result(lines):
    """The JSON result on the last stdout line, or None."""
    try:
        parsed = json.loads(lines[-1]) if lines else None
    except ValueError:
        return None
    return parsed if isinstance(parsed, dict) and "metrics" in parsed else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["paper_cold", "churn_sharded", "service_trees"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", default=0, type=int, choices=[0, 1])
    parser.add_argument("--also-parallel", action="store_true")
    args = parser.parse_args()

    target_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    started = time.time()
    serial = build(target_root, "serial")
    if serial is None:
        return 1
    print("# build check %.1f s" % (time.time() - started), flush=True)

    trace_out = None
    if args.trace:
        trace_out = os.path.join(".bench_out", "%s-seed%d-serial.jsonl" % (args.workload, args.seed))
    code, lines = run(serial, args, trace_out)
    res = result(lines)
    if code != 0 or res is None:
        print("\n".join(lines[:-1] if res is not None else lines))
        sys.stderr.write("run.py: the benchmark exited with code %d\n" % code)
        return code or 1
    print("\n".join(lines[:-1]))

    if args.trace and args.also_parallel:
        parallel = build(target_root, "parallel")
        if parallel is None:
            return 1
        pout = os.path.join(".bench_out", "%s-seed%d-parallel.jsonl" % (args.workload, args.seed))
        pcode, plines = run(parallel, args, pout)
        pres = result(plines)
        if pcode != 0 or pres is None:
            sys.stderr.write("run.py: the parallel traced run failed with code %d\n" % pcode)
            return pcode or 1
        print("\n".join("# parallel: " + line[2:] for line in plines if line.startswith("# ")))
        print("# per-layer metrics, serial | parallel build (parallel ungated)")
        for name, m in res["metrics"].items():
            p = pres["metrics"].get(name, {}).get("value")
            print("side-by-side %-32s %16s | %16s %s" % (name, m["value"], p, m["unit"]))

    print(lines[-1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
