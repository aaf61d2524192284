#!/usr/bin/env python3
"""Build and run the host-cost benchmark from the root of a source tree.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Builds perfbench/perfbench.exe with dune, runs it with the given
arguments, and passes its report through.  The executable's last line is a
JSON object holding every metric it measured; for a single workload this
script reprints it with exactly the metrics BENCHMARK.json lists for the
mode (end_to_end with --trace 0, per_layer with --trace 1).  With
--workload all the line is passed through whole.  Exits non-zero, without
a result line, when the build fails; exits non-zero when the run fails a
correctness check or a listed metric is missing.
"""

import json
import os
import shutil
import signal
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
RUN_TIMEOUT_S = 175


def flag(argv, name, default):
    for key, value in zip(argv, argv[1:]):
        if key == name:
            return value
    return default


def main():
    argv = sys.argv[1:]
    dune = shutil.which("dune")
    if dune is None:
        print("perfbench: dune not found on PATH", file=sys.stderr)
        return 1
    if not os.path.isfile("BENCHMARK.json") or not os.path.isfile("dune-project"):
        print("perfbench: run from the root of the source tree", file=sys.stderr)
        return 1
    build = subprocess.run(
        [dune, "build", "--root", ".", "./perfbench/perfbench.exe"],
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    mode = "per_layer" if flag(argv, "--trace", "0") == "1" else "end_to_end"
    wanted = [m["name"] for m in spec[mode]]
    if flag(argv, "--workload", "") == "all":
        wanted = None
    # one workload must finish well inside three minutes; "all" runs three
    timeout = RUN_TIMEOUT_S if wanted is not None else 3 * RUN_TIMEOUT_S
    child = subprocess.Popen([EXE] + argv, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = child.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % timeout, file=sys.stderr)
        return 1
    finally:
        # also reached on SIGTERM (see below): never leave the run behind
        if child.poll() is None:
            child.kill()
            child.wait()
    lines = stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(stdout)
        print("perfbench: no result line", file=sys.stderr)
        return 1
    for line in lines[:-1]:
        print(line)
    measured = result["metrics"]
    if wanted is not None:
        missing = [name for name in wanted if name not in measured]
        if missing:
            print("perfbench: metrics not measured: " + ", ".join(missing), file=sys.stderr)
            result["correct"] = False
            result["failed"] = result["attempted"]
        result["metrics"] = {name: measured[name] for name in wanted if name in measured}
    print(json.dumps(result, separators=(",", ":")))
    if child.returncode != 0:
        return child.returncode
    return 0 if result["correct"] else 1


def terminate(signum, _frame):
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, terminate)
    sys.exit(main())
