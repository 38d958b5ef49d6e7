#!/usr/bin/env python3
"""Self-test of the benchmark at miniature scale (about ten seconds).

    python3 perfbench/selftest.py

Run from the repository root. Builds the benchmark like run.py, then runs
all three workloads in one process at miniature scale, untraced and traced,
and checks that:
  * every check of the binary passes;
  * every metric BENCHMARK.json names is reported with its unit (end-to-end
    ones untraced, per-layer ones traced);
  * the traced run's simulated-state digest equals the untraced run's, so
    observation does not perturb the simulation;
  * the layer shares of the sampled profile sum to one;
  * city_steady's flatness check passes after its warm-up and fails when the
    warm-up is skipped and the window sits in the start-up transient.
Exits 1 on the first failed expectation.
"""

import sys
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

SEED = 7


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"selftest FAILED: {what}")
    print(f"ok  {what}")


def by_workload(results: list) -> dict:
    return {r["workload"]: r for r in results}


def main() -> int:
    root = Path.cwd()
    spec = run.load_spec(root)
    exe = run.build(root)
    names = [w["name"] for w in spec["workloads"]]
    base = ["--workload", "all", "--seed", str(SEED), "--scale", "mini"]

    code, plain, _ = run.run_binary(exe, base + ["--trace", "0"])
    expect(code == 0, "untraced miniature run exits 0")
    code, traced, _ = run.run_binary(exe, base + ["--trace", "1"])
    expect(code == 0, "traced miniature run exits 0")
    plain, traced = by_workload(plain), by_workload(traced)
    expect(sorted(plain) == sorted(names) == sorted(traced),
           f"one result per workload: {', '.join(names)}")

    for w in names:
        p, t = plain[w], traced[w]
        expect(all(p["checks"].values()) and all(t["checks"].values()),
               f"{w}: all checks pass")
        expect(p["digest"] == t["digest"],
               f"{w}: traced digest {t['digest']} equals untraced")
        expect(p["attempted"] >= 1, f"{w}: sessions attempted")
        for m in spec["end_to_end"]:
            got = p["end_to_end"].get(m["name"])
            expect(got is not None and got["unit"] == m["unit"],
                   f"{w}: end-to-end {m['name']} [{m['unit']}]")
        for m in spec["per_layer"]:
            got = t["per_layer"].get(m["name"])
            expect(got is not None and got["unit"] == m["unit"],
                   f"{w}: per-layer {m['name']} [{m['unit']}]")
        shares = sum(v["value"] for k, v in t["per_layer"].items()
                     if k.startswith("self."))
        samples = t["per_layer"]["trace.samples"]["value"]
        expect(samples == 0 or abs(shares - 1.0) < 1e-9,
               f"{w}: layer shares sum to one over {samples:.0f} samples")

    expect(plain["city_steady"]["checks"].get("window_flat") is True,
           "city_steady: window is flat after warm-up")
    code, cold, _ = run.run_binary(
        exe, ["--workload", "city_steady", "--seed", str(SEED), "--scale",
              "mini", "--trace", "0", "--skip-warmup", "1"])
    expect(code == 1 and cold[0]["checks"].get("window_flat") is False,
           "city_steady: window in the start-up transient fails the check")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
