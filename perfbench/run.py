#!/usr/bin/env python3
"""Runs one ftvod benchmark workload and prints its result.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. On first use it builds perfbench/ with CMake
into $CARGO_TARGET_DIR (default .bench_build) from the sources in src/. It
then runs the benchmark binary, prints every metric with its unit, and as
the last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics BENCHMARK.json names,
with --trace 1 its per-layer metrics (the traced run also writes its spans
to <build>/traces/). A run is correct when every check of the binary passes,
every named metric is present with its unit, and its simulated-state digest
equals that of any earlier run of the same binary with the same workload,
seed and length; a traced run must therefore reproduce the untraced one.
Exits 1 when the run is not correct, and without a result when the build
or the run fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 170


def build_dir(root: Path) -> Path:
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = root / base
    return base / "perfbench"


def build(root: Path) -> Path:
    """Configures (once) and builds the benchmark; returns the binary."""
    bdir = build_dir(root)
    steps = []
    if not (bdir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(bdir), "-j", "4"])
    for cmd in steps:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                           text=True)
        if p.returncode != 0:
            sys.stderr.write(p.stdout[-4000:])
            raise SystemExit(f"build failed: {' '.join(cmd)}")
    return bdir / "ftvod_perfbench"


def run_binary(exe: Path, args: list) -> tuple:
    """Runs the binary; returns (exit code, parsed result lines, stderr)."""
    try:
        p = subprocess.run([str(exe)] + args, stdout=subprocess.PIPE,
                           stderr=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"benchmark run exceeded {RUN_TIMEOUT_S} s")
    results = [json.loads(line) for line in p.stdout.splitlines()
               if line.startswith("{")]
    return p.returncode, results, p.stderr


def load_spec(root: Path) -> dict:
    with open(root / "BENCHMARK.json") as f:
        return json.load(f)


def check_digest(bdir: Path, exe: Path, key: str, digest: str) -> bool:
    """Records the digest for `key`; False if an earlier run disagreed."""
    path = bdir / "digests.json"
    binary = hashlib.sha256(exe.read_bytes()).hexdigest()[:16]
    known = json.loads(path.read_text()) if path.exists() else {}
    key = f"{binary}:{key}"
    ok = known.setdefault(key, digest) == digest
    path.write_text(json.dumps(known, indent=1, sort_keys=True))
    return ok


def print_table(result: dict) -> None:
    print(f"workload {result['workload']}  seed {result['seed']}  "
          f"digest {result['digest']}")
    print(f"sessions attempted {result['attempted']}  "
          f"failed {result['failed']}")
    for name, ok in result["checks"].items():
        print(f"  check {name:<28} {'ok' if ok else 'FAILED'}")
    for section in ("end_to_end", "per_layer", "info"):
        if result[section]:
            print(f"  [{section}]")
        for name, m in result[section].items():
            print(f"    {name:<34} {m['value']:>16.6g} {m['unit']}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = Path.cwd()
    spec = load_spec(root)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        raise SystemExit(f"unknown workload {args.workload}")
    exe = build(root)
    bin_args = ["--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = build_dir(root) / "traces"
        traces.mkdir(exist_ok=True)
        bin_args += ["--spans",
                     str(traces / f"{args.workload}-{args.seed}.csv")]
    code, results, err = run_binary(exe, bin_args)
    if code not in (0, 1) or len(results) != 1:
        sys.stderr.write(err[-4000:])
        raise SystemExit(f"benchmark binary failed (exit {code})")
    result = results[0]
    print_table(result)

    problems = [f"check {n} failed" for n, ok in result["checks"].items()
                if not ok]
    key = f"{args.workload}:{args.seed}:{args.seconds}"
    if not check_digest(build_dir(root), exe, key, result["digest"]):
        problems.append("digest differs from an earlier run with the same "
                        "inputs (simulation not reproducible or perturbed "
                        "by tracing)")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    found = {**result["end_to_end"], **result["per_layer"]}
    metrics = {}
    for m in wanted:
        got = found.get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            problems.append(f"metric {m['name']} missing or not in {m['unit']}")
            continue
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    for p in problems:
        print(f"INCORRECT: {p}")
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
