#!/usr/bin/env python3
"""End-to-end benchmark entry point.

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds the library, the gcd_worker and the
wkbench program from source into .bench_build/ (once; later runs reuse the
build), runs one workload and prints its result as the last line of
standard output: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are BENCHMARK.json's end_to_end list, with --trace 1
its per_layer list; traced runs also leave a Chrome trace and a self-time
table per workload in .bench_out/. Exits non-zero, printing no result, when
the build, the run or the result's shape fails.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path(__file__).resolve().parent
BUILD_DIR = ROOT / ".bench_build" / "e2ebench"
WORK_ROOT = ROOT / ".bench_work"
OUT_DIR = ROOT / ".bench_out"
# wkbench must finish well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170
BUILD_JOBS = str(min(4, os.cpu_count() or 1))


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def build():
    """Configures once, then lets the build tool decide what is stale."""
    if not (BUILD_DIR / "Makefile").exists():
        subprocess.run(
            ["cmake", "-S", str(PACKAGE), "-B", str(BUILD_DIR)],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", str(BUILD_DIR), "-j", BUILD_JOBS],
        check=True, stdout=sys.stderr)
    return BUILD_DIR / "wkbench"


def stop_group(pgid):
    """SIGKILLs whatever is left of wkbench's process group (a stray
    gcd_worker) and waits until the group is gone."""
    deadline = time.monotonic() + 5
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.05)
    log(f"process group {pgid} still alive after SIGKILL")


def expected_metrics(spec, trace):
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def check_result(line, spec, trace):
    """The result line must carry exactly the keys and metrics BENCHMARK.json
    names. The bn.*_vs_gmp rows alone may be missing: the build omits them
    when it finds no GMP to compare against."""
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"result keys {sorted(result)}")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1
            and isinstance(result["failed"], int)):
        raise ValueError("attempted/failed must be whole numbers")
    names = expected_metrics(spec, trace)
    got = set(result["metrics"])
    missing = [n for n in names if n not in got and not n.endswith("_vs_gmp")]
    extra = got - set(names)
    if missing or extra:
        raise ValueError(f"metrics missing {missing}, unexpected {sorted(extra)}")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()

    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as e:
        log(f"build failed: {e}")
        return 1

    work_dir = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    env = {k: v for k, v in os.environ.items() if not k.startswith("WEAKKEYS_")}
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(work_dir), "--out-dir", str(OUT_DIR)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"wkbench exceeded {RUN_TIMEOUT_S} s")
        proc.kill()
        proc.wait()
        return 1
    finally:
        stop_group(proc.pid)
        shutil.rmtree(work_dir, ignore_errors=True)
        if WORK_ROOT.exists() and not any(WORK_ROOT.iterdir()):
            WORK_ROOT.rmdir()

    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"wkbench exited with {proc.returncode}")
        return 1
    try:
        check_result(lines[-1], spec, args.trace)
    except ValueError as e:
        log(f"malformed result: {e}")
        return 1
    print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
