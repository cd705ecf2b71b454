#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload push-batch|walk-topk|serve-zipf \
        --seed N --seconds S --trace 0|1

Run from the repository root. Builds the library, resacc_serve and the
perfbench program from this checkout into .bench_build/ (or
$CARGO_TARGET_DIR), generates the workload graphs once, prints a host line,
then runs the workload. The program's last stdout line is the result JSON;
the exit code is the program's (1 = a failed answer check). See README.md.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("push-batch", "walk-topk", "serve-zipf")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def source_id():
    """The git sha when there is one, else a hash of the built sources."""
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, check=True)
            return sha.stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha1()
    for top in ("CMakeLists.txt", "src", "tools", "perfbench"):
        paths = [ROOT / top] if (ROOT / top).is_file() else sorted(
            p for p in (ROOT / top).rglob("*") if p.is_file())
        for path in paths:
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "tree-" + digest.hexdigest()


def build(build_dir):
    """Configures once, then an incremental build (a no-op when current)."""
    quiet = {"stdout": sys.stderr, "stderr": sys.stderr}
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(build_dir)],
                       check=True, **quiet)
    subprocess.run(["cmake", "--build", str(build_dir), "--target",
                    "perfbench", "-j", str(os.cpu_count() or 1)],
                   check=True, **quiet)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no ResAcc sources next to {HERE}; run from a full checkout")
    out_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = out_dir / "perfbench"
    data_dir = out_dir / "perfbench-data"
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as error:
        fail(f"build failed: {error}")
    binary = build_dir / "perfbench"
    if subprocess.run([str(binary), "gen", str(data_dir)]).returncode != 0:
        fail("graph generation failed")

    host = subprocess.run([str(binary), "host"], capture_output=True,
                          text=True, check=True)
    block = json.loads(host.stdout)
    block["source"] = source_id()
    print("host: " + json.dumps(block), flush=True)

    # Own process group, so a timeout also takes down a spawned server.
    proc = subprocess.Popen(
        [str(binary), "run", "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", str(args.trace), "--data-dir", str(data_dir)],
        start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S}s")
    sys.exit(code)


if __name__ == "__main__":
    main()
