#!/usr/bin/env python3
"""Build the iotax benchmark binary from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Configures perfbench/CMakeLists.txt (which compiles the library from
src/) into .bench_build/ at the checkout root, builds the binary, then
replaces this process with it. Temporary files of the build and the run
go to .bench_build/tmp. Build output goes to stderr, so the last
line on stdout is the benchmark's JSON result. Exits non-zero without a
result when the sources or the build are missing, or when the metric
names and units the binary prints differ from BENCHMARK.json's.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def run_quietly(cmd):
    """Run a build step with its output on stderr; return its exit code."""
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode


def metrics_match(binary):
    """Compare the binary's metric tables with BENCHMARK.json's."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        listed = subprocess.run([binary, "--list-metrics"], check=True,
                                capture_output=True, text=True).stdout
        tables = json.loads(listed)
    except (OSError, ValueError, subprocess.CalledProcessError) as e:
        print("perfbench: cannot compare metric tables: %s" % e, file=sys.stderr)
        return False
    ok = True
    for key in ("end_to_end", "per_layer"):
        want = {m["name"]: m["unit"] for m in spec.get(key, [])}
        if tables[key] != want:
            print("perfbench: %s metrics differ between the binary %s and "
                  "BENCHMARK.json %s" % (key, tables[key], want), file=sys.stderr)
            ok = False
    return ok


def main():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no iotax sources at %s/src" % ROOT, file=sys.stderr)
        return 2
    # Compiler and library temporaries stay inside the checkout too.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        code = run_quietly(["cmake", "-S", HERE, "-B", BUILD,
                            "-DCMAKE_BUILD_TYPE=Release"])
        if code != 0:
            return code
    jobs = str(min(4, os.cpu_count() or 1))
    code = run_quietly(["cmake", "--build", BUILD, "-j", jobs,
                        "--target", "perfbench"])
    if code != 0:
        return code
    binary = os.path.join(BUILD, "perfbench")
    if not metrics_match(binary):
        return 3
    sys.stdout.flush()
    sys.stderr.flush()
    os.execv(binary, [binary] + sys.argv[1:] + ["--work-dir", BUILD])
    return 1  # not reached


if __name__ == "__main__":
    sys.exit(main())
