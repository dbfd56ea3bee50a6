#!/usr/bin/env python3
"""Runs one workload of the SHAROES repo benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. It builds the SHAROES libraries, the
deployed daemon (tools/sharoes_sspd.cc) and the load generator from source
into $CARGO_TARGET_DIR (default .bench_build), runs the generator in a
fresh work directory and prints its result as the last line of
standard output. Everything else goes to standard error. With --trace 1
the bench-side spans are kept in .bench_build/traces/. See README.md.
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

WORKLOADS = ("read_zipf", "write_churn", "cluster_quorum", "paper_andrew")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build(root, build_dir):
    """Configures once and builds; returns the directory of the binaries."""
    out = build_dir / "perfbench"
    if not (out / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(root / "perfbench"), "-B", str(out),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", str(out), "-j", str(os.cpu_count() or 1),
         "--target", "perfbench", "sharoes_sspd"],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return out


def stop_group(proc):
    """Kills whatever is left of the generator's process group (its daemons
    share it) and reaps the generator."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path(__file__).resolve().parent.parent
    for needed in ("BENCHMARK.json", "src/CMakeLists.txt", "tools/sharoes_sspd.cc"):
        if not (root / needed).is_file():
            log(f"{root / needed} is missing: run from a full checkout")
            return 2
    build_dir = root / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    try:
        bin_dir = build(root, build_dir)
    except (subprocess.CalledProcessError, OSError) as err:
        log(f"build failed: {err}")
        return 2

    workdir = build_dir / "runs" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    cmd = [str(bin_dir / "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--sspd", str(bin_dir / "sharoes_sspd"), "--workdir", str(workdir)]
    start = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                            start_new_session=True, text=True)
    stdout, timed_out = "", False
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        timed_out = True
    finally:
        stop_group(proc)
    log(f"perfbench exited {proc.returncode} after {time.monotonic() - start:.1f} s"
        + (" (timed out)" if timed_out else ""))

    if args.trace:
        trace = workdir / "trace.jsonl"
        if trace.exists():
            keep = build_dir / "traces" / f"{args.workload}-seed{args.seed}.jsonl"
            keep.parent.mkdir(parents=True, exist_ok=True)
            shutil.move(str(trace), keep)
            log(f"spans written to {keep}")
    shutil.rmtree(workdir, ignore_errors=True)
    if timed_out or proc.returncode != 0:
        return proc.returncode or 1
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        log("perfbench printed no result")
        return 1
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        log("malformed result")
        return 1
    # Every metric of the manifest, in its unit, and no other.
    manifest = json.loads((root / "BENCHMARK.json").read_text())
    want = {m["name"]: m["unit"]
            for m in manifest["per_layer" if args.trace else "end_to_end"]}
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != want:
        log("result metrics differ from BENCHMARK.json: missing "
            f"{sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}, "
            f"unit {sorted(n for n in set(want) & set(got) if want[n] != got[n])}")
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
