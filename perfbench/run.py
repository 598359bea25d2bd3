#!/usr/bin/env python3
"""Builds the FgNVM simulator benchmark from source and runs one workload.

Run from the root of the repository:

    python3 perfbench/run.py --workload fig4_sweep --seed 0 --seconds 10 --trace 0

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the current
directory. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. `--test` builds and runs the
benchmark's own tests instead.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def build(build_dir: Path, target: str) -> Path:
    """Configures and builds `target`; returns the binary's path."""
    build_dir.mkdir(parents=True, exist_ok=True)
    log_path = build_dir / "build.log"
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(build_dir),
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", str(build_dir), "--target", target,
         "-j", str(min(4, os.cpu_count() or 1))],
    ]
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=BUILD_TIMEOUT_S).returncode
            except subprocess.TimeoutExpired:
                rc = -1
            if rc != 0:
                log.flush()
                tail = log_path.read_text(errors="replace").splitlines()[-30:]
                sys.stderr.write("\n".join(tail) + "\n")
                sys.exit(f"perfbench: build step failed: {' '.join(cmd)}")
    return build_dir / target


def expected_metrics(trace: bool):
    """Metric names BENCHMARK.json promises for this mode, if it is here."""
    spec = Path("BENCHMARK.json")
    if not spec.exists():
        return None
    data = json.loads(spec.read_text())
    return {m["name"] for m in data["per_layer" if trace else "end_to_end"]}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--test", action="store_true",
                    help="build and run the benchmark's own tests")
    args = ap.parse_args()

    root = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if args.test:
        binary = build(root, "perfbench_tests")
        return subprocess.run([str(binary)], timeout=RUN_TIMEOUT_S).returncode
    if not args.workload:
        ap.error("--workload is required")

    binary = build(root, "perfbench")
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = root / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out",
                str(traces / f"{args.workload}_seed{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: {args.workload} ran past {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        return proc.returncode or 1

    result = json.loads(lines[-1])
    want = expected_metrics(bool(args.trace))
    if want is not None and set(result["metrics"]) != want:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        sys.exit("perfbench: metrics differ from BENCHMARK.json: "
                 f"{sorted(set(result['metrics']) ^ want)}")
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
