#!/usr/bin/env python3
"""Builds the perfbench binary from this checkout and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. The program (src/) and the benchmark
(perfbench/) are configured and built into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench); build output goes to stderr, so the last
line of stdout is the benchmark's JSON result. Every STARBURST_* variable is
removed from the benchmark's environment, so the numbers do not depend on the
caller's settings. The result must name exactly the metrics BENCHMARK.json
lists for the mode (end_to_end untraced, per_layer traced), in their units;
otherwise it is withheld and the exit code is 1. Else the exit code is the
benchmark's.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.stderr.write("perfbench: no src/ beside perfbench/; nothing to build\n")
        return False
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return False
    cmd = ["cmake", "--build", build_dir, "--parallel", "3", "--target", "perfbench"]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def manifest_mismatch(line, traced):
    """Why the result line does not match BENCHMARK.json, or None."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        manifest = json.load(f)
    want = {m["name"]: m["unit"]
            for m in manifest["per_layer" if traced else "end_to_end"]}
    try:
        result = json.loads(line)
        got = {name: m["unit"] for name, m in result["metrics"].items()}
    except (ValueError, KeyError, TypeError, AttributeError):
        return "the last line is not a result"
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        return "the result's keys are %s" % sorted(result)
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(n for n in set(got) & set(want) if got[n] != want[n])
        return "missing %s, unexpected %s, wrong unit %s" % (missing, extra, units)
    return None


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(target), "perfbench")
    if not build(build_dir):
        sys.stderr.write("perfbench: build failed\n")
        return 2
    env = {k: v for k, v in os.environ.items() if not k.startswith("STARBURST_")}
    binary = os.path.join(build_dir, "perfbench")
    try:
        proc = subprocess.run([binary] + sys.argv[1:], env=env, timeout=RUN_TIMEOUT_S,
                              stdout=subprocess.PIPE, universal_newlines=True)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 3
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        return proc.returncode or 1
    args = sys.argv[1:]
    traced = "--trace" in args[:-1] and args[args.index("--trace") + 1] != "0"
    why = manifest_mismatch(lines[-1], traced)
    if why is not None:
        sys.stdout.write("".join(l + "\n" for l in lines[:-1]))
        sys.stderr.write("perfbench: result does not match BENCHMARK.json: %s\n" % why)
        return 1
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
