"""Self-test of the benchmark harness; run from the checkout root:

    python3 perfbench/selftest.py

1. Every workload at minimal size (one timed round, or the traced run's
   fixed rounds), untraced and traced: the last stdout line is the result
   object, every metric named in BENCHMARK.json prints with its unit and a
   finite value, and no command fails.
2. Negative control: a verify-transport command with --tolerance 1e-20
   must count as failed.
3. Without glancer sources (only BENCHMARK.json and perfbench/ present) the
   benchmark exits non-zero and prints no result.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run_bench(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def check_result(spec, workload: str, trace: int, problems: list) -> None:
    res = run_bench(ROOT, workload, trace)
    where = f"{workload} --trace {trace}"
    if res.returncode != 0:
        problems.append(f"{where}: exit {res.returncode}: {res.stderr.strip()[-500:]}")
        return
    out = json.loads(res.stdout.strip().splitlines()[-1])
    if set(out) != RESULT_KEYS:
        problems.append(f"{where}: result keys {sorted(out)}")
        return
    if not (out["correct"] and out["failed"] == 0 and out["attempted"] >= 1):
        problems.append(f"{where}: correct={out['correct']} failed={out['failed']}\n{res.stdout}")
    wanted = spec["per_layer" if trace else "end_to_end"]
    if set(out["metrics"]) != {m["name"] for m in wanted}:
        problems.append(f"{where}: metric names differ from BENCHMARK.json")
    for m in wanted:
        got = out["metrics"].get(m["name"])
        if got is None or got.get("unit") != m["unit"]:
            problems.append(f"{where}: {m['name']} missing or not in {m['unit']}: {got}")
        elif not (isinstance(got["value"], (int, float)) and math.isfinite(got["value"])):
            problems.append(f"{where}: {m['name']} = {got['value']!r}")
        elif not trace and got["value"] <= 0:
            problems.append(f"{where}: end-to-end {m['name']} = {got['value']!r} is not positive")
        printed = f"  {m['name']} = "
        if printed not in res.stdout:
            problems.append(f"{where}: {m['name']} not printed by name")


def negative_control(problems: list) -> None:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import glancer
    import glancer.cli  # noqa: F401
    import run
    import workloads

    wl = workloads.Glide(glancer, seed=0)
    cmd = next(c for c in wl.round(0) if c.kind == "verify-transport")
    i = cmd.argv.index("--tolerance")
    cmd.argv[i + 1] = "1e-20"
    runner = run.Runner(glancer)
    out = ROOT / ".perfbench_work" / "selftest_negative"
    runner.run(cmd, out)
    shutil.rmtree(out, ignore_errors=True)
    if len(runner.failures) != 1 or runner.attempted != 1:
        problems.append(f"negative control: tolerance 1e-20 gave failures {runner.failures}")


def bare_checkout(workload: str, problems: list) -> None:
    bare = ROOT / ".perfbench_work" / "selftest_bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    res = run_bench(bare, workload, 0)
    shutil.rmtree(bare)
    if res.returncode == 0 or res.stdout.strip():
        problems.append(f"bare checkout: exit {res.returncode}, stdout {res.stdout.strip()[:200]!r}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems: list[str] = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            check_result(spec, w["name"], trace, problems)
            print(f"{w['name']} --trace {trace}: done", flush=True)
    negative_control(problems)
    bare_checkout(spec["workloads"][0]["name"], problems)
    for p in problems:
        print("PROBLEM " + p)
    print("selftest " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
