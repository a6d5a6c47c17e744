"""Run the benchmark over several seeds and summarise every metric.

    python3 perfbench/collect.py --seeds 1-10 --out .perfbench_work/runs.json [--workloads glide,audit]

For each workload: one untraced run per seed (end-to-end metrics), then one
traced run with the first seed (per-layer metrics). Prints, per end-to-end
metric, the median, the quartiles and their distance as a share of the
median, against the metric's bound in BENCHMARK.json; writes everything,
with the environment, to --out. Runs are serial; nothing else should run
on the machine meanwhile.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()


def parse_seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
    }


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    t0 = time.perf_counter()
    res = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    wall = time.perf_counter() - t0
    if res.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {res.returncode}\n{res.stderr}")
    lines = res.stdout.strip().splitlines()
    out = json.loads(lines[-1])
    out["wall_s"] = wall
    out["notes"] = [ln.strip() for ln in lines[:-1] if "commands" in ln or "probe" in ln]
    return out


def summarise(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None,
            "values": values}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--out", required=True)
    ap.add_argument("--workloads")
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"environment": environment(), "seeds": seeds,
              "run_seconds": spec["run_seconds"], "workloads": {}}
    for name in names:
        runs = [run_once(name, s, spec["run_seconds"], 0) for s in seeds]
        traced = run_once(name, seeds[0], spec["run_seconds"], 1)
        e2e = {m: summarise([r["metrics"][m]["value"] for r in runs]) for m in bounds}
        report["workloads"][name] = {
            "end_to_end": e2e,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "traced_failed": traced["failed"],
            "wall_s_max": max(r["wall_s"] for r in runs + [traced]),
            "notes": [r["notes"] for r in runs],
        }
        print(f"{name}: {report['workloads'][name]['failed']} failed of "
              f"{report['workloads'][name]['attempted']}; slowest run "
              f"{report['workloads'][name]['wall_s_max']:.1f} s", flush=True)
        for m, st in e2e.items():
            flag = "ok" if st["spread"] < bounds[m] / 3 else "WIDE"
            print(f"  {m}: median {st['median']:.6g} spread {st['spread']:.4f} "
                  f"(bound {bounds[m]}) {flag}", flush=True)
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
