"""glancer benchmark: seeded CLI workloads, timed end to end or traced per layer.

Run from the root of a glancer source checkout:

    python3 perfbench/run.py --workload glide --seed 1 --seconds 20 --trace 0

Commands go through ``glancer.cli.main(argv)`` in this one process, serially
(``gcc --workers 1``), on inputs generated from ``--seed``. Every command's
exit code and artifacts are checked. With ``--trace 0`` the run repeats
whole rounds of commands until they have run for ``--seconds`` and reports
the end-to-end metrics, with command times scaled to a reference machine
speed (``speed_probe``); with ``--trace 1`` it runs a fixed number of rounds
untraced and then traced, and reports per-layer metrics. Human-readable
lines come first; the last line of stdout is one JSON object. Exit code 2
means the checkout holds no glancer sources to measure.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

SETUP_REPEATS = 10
TAIL_BEYOND = 10  # the tail percentile keeps at least this many samples above it
TRACED_ROUNDS = 3  # fixed, so that per-layer counts do not depend on timing
PROBE_REF_S = 6.5e-3  # median speed_probe() time on the reference machine (baseline.json)

_SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import glancer
from glancer import scenarios
for src in sys.argv[2:]:
    scenarios.load_scenario(src)
print(repr(time.perf_counter() - t0))
"""


def speed_probe() -> float:
    """Seconds for a fixed piece of interpreter and small-array numpy work.

    A shared virtual machine can change speed by a third for tens of
    seconds at a time, as other tenants load the host. The probe runs around
    every command and calls no glancer code; command times are scaled by
    PROBE_REF_S over the probe time, so that the end-to-end times read as at
    one machine speed.
    """
    t0 = perf_counter()
    s = 0
    for i in range(60_000):
        s += i & 7
    y = np.array([0.1, 0.2, 0.3, 0.4])
    a = np.eye(2)
    for _ in range(300):
        v = y[:2] @ a
        y = y + 1e-3 * np.concatenate((v, v))
    return perf_counter() - t0


def fail_setup(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


# ---------------------------------------------------------------------------
# running and checking one command


class Runner:
    def __init__(self, glancer):
        self.main = glancer.cli.main
        self.attempted = 0
        self.failures: list[str] = []

    def run(self, cmd, out: Path, main=None) -> dict:
        """Run one command through cli.main, time it, and check its outputs."""
        out.mkdir(parents=True, exist_ok=True)
        argv = cmd.argv + ["--out", str(out)]
        stdout, stderr = io.StringIO(), io.StringIO()
        main = main or self.main
        probe = speed_probe()
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                rc = main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash is a failed command, not a failed benchmark
            rc = None
            stderr.write(traceback.format_exc())
        elapsed = perf_counter() - t0
        probe = 0.5 * (probe + speed_probe())
        rec = {"kind": cmd.kind, "start": t0, "seconds": elapsed, "probe": probe,
               "scaled": elapsed * PROBE_REF_S / probe, "rc": rc, "samples": 0, "rays": 0,
               "artifacts": [], "fails": []}
        if rc != cmd.expect_rc:
            rec["fails"].append(f"exit code {rc}, expected {cmd.expect_rc}: {stderr.getvalue().strip()[-300:]}")
        lines = stdout.getvalue().strip().splitlines()
        try:
            summary = json.loads(lines[-1]) if lines else None
        except ValueError:
            summary = None
        if summary is not None and rc is not None:
            if summary.get("ok") is not (cmd.expect_rc == 0):
                rec["fails"].append(f"summary ok = {summary.get('ok')}")
            try:
                info = cmd.check(summary)
            except (OSError, KeyError, ValueError, IndexError, TypeError) as exc:
                info = {"fails": [f"output check raised {type(exc).__name__}: {exc}"]}
            rec["fails"] += info.pop("fails")
            rec.update(info)
            rec["artifacts"] = [Path(summary[k]) for k in ("artifact", "witness") if k in summary]
        elif not rec["fails"]:
            rec["fails"].append("no JSON summary on stdout")
        rec["bytes"] = sum(p.stat().st_size for p in rec["artifacts"] if p.exists())
        self.attempted += 1
        if rec["fails"]:
            self.failures.append(f"{' '.join(cmd.argv)}: {'; '.join(rec['fails'])}")
        return rec

    def compare(self, a: dict, b: dict, what: str) -> None:
        """Fail run b unless it wrote the same bytes as run a of the same command."""
        try:
            same = len(a["artifacts"]) == len(b["artifacts"]) and all(
                pa.read_bytes() == pb.read_bytes() for pa, pb in zip(a["artifacts"], b["artifacts"])
            )
        except OSError:
            same = False
        if not same and not b["fails"]:
            b["fails"].append("artifacts differ between identical runs")
            self.failures.append(f"{what}: artifacts differ between identical runs")


# ---------------------------------------------------------------------------
# metrics


def setup_seconds(root: Path, sources) -> float:
    """Import glancer and load the workload's scenarios in a fresh interpreter."""
    res = subprocess.run(
        [sys.executable, "-c", _SETUP_CODE, str(root / "src"), *sources],
        cwd=root, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(res.stdout.strip().splitlines()[-1])


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples above it."""
    xs = sorted(times)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0
    return xs[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(records, setups) -> tuple[dict, list[str]]:
    """Command metrics from speed-scaled times (see speed_probe); set-up as measured."""
    times = [r["scaled"] for r in records]
    busy = sum(times)
    tail_s, pct = tail(times)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "op_p50_ms": (1e3 * statistics.median(times), "ms"),
        "op_tail_ms": (1e3 * tail_s, "ms"),
        "samples_per_s": (sum(r["samples"] for r in records) / busy, "1/s"),
        "rays_per_s": (sum(r["rays"] for r in records) / busy, "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    probe = statistics.median(r["probe"] for r in records)
    notes = [
        f"op_tail_ms is p{pct:.2f} over {len(times)} commands",
        f"speed probe median {1e3 * probe:.3f} ms (reference {1e3 * PROBE_REF_S:g} ms); "
        f"unscaled op_p50 {1e3 * statistics.median(r['seconds'] for r in records):.1f} ms",
        "setup_s samples: " + " ".join(f"{s:.4f}" for s in setups),
    ]
    kinds = sorted({r["kind"] for r in records})
    for k in kinds:
        ks = [r["scaled"] for r in records if r["kind"] == k]
        notes.append(f"{k}: {len(ks)} commands, median {1e3 * statistics.median(ks):.1f} ms scaled")
    return metrics, notes


def per_layer(tr, records, untraced_s: float, traced_s: float) -> dict:
    spans = tr.span_totals()
    leaves = tr.leaf_totals()
    counts = tr.count_totals()
    ops = len(records)
    samples = counts["samples.interior"] + counts["samples.gliding"]

    def ratio(a, b):
        return a / b if b else 0.0

    def leaf_us(name):
        calls, secs = leaves[name]
        return ratio(1e6 * secs, calls)

    def leaf_per_sample(name):
        return ratio(leaves[name][0], samples)

    def span_mean(name, scale):
        calls, total, _ = spans[name]
        return ratio(scale * total, calls)

    rays = counts["gcc.rays"]
    m = {
        "cli.self_ms_per_op": (1e3 * spans["cli.main"][2] / ops, "ms/op"),
        "cli.artifact_bytes_per_op": (sum(r["bytes"] for r in records) / ops, "bytes/op"),
        "scenarios.load_ms": (span_mean("scenarios.load_scenario", 1e3), "ms"),
    }
    for k in ("g_inv", "dg_inv", "phi", "dphi", "d2phi", "in_domain"):
        m[f"geometry.{k}_us"] = (leaf_us(f"geometry.{k}"), "us")
        m[f"geometry.{k}_calls_per_sample"] = (leaf_per_sample(f"geometry.{k}"), "calls/sample")
    for k in ("gliding_field", "hp2z"):
        m[f"symbol.{k}_us"] = (leaf_us(f"symbol.{k}"), "us")
        m[f"symbol.{k}_calls_per_sample"] = (leaf_per_sample(f"symbol.{k}"), "calls/sample")
    m["symbol.classify_us"] = (leaf_us("symbol.classify"), "us")
    m["symbol.classify_calls_per_op"] = (leaves["symbol.classify"][0] / ops, "calls/op")
    m["flow.interior_us_per_sample"] = (
        ratio(1e6 * spans["flow.integrate_interior"][1], counts["samples.interior"]), "us/sample")
    m["flow.gliding_us_per_sample"] = (
        ratio(1e6 * spans["flow.integrate_gliding"][1], counts["samples.gliding"]), "us/sample")
    m["flow.trace_self_us_per_call"] = (
        ratio(1e6 * spans["flow.trace_generalized"][2], spans["flow.trace_generalized"][0]), "us")
    m["flow.trace_calls_per_op"] = (spans["flow.trace_generalized"][0] / ops, "calls/op")
    m["flow.samples_per_op"] = (samples / ops, "samples/op")
    m["flow.events_per_op"] = (counts["flow.events"] / ops, "events/op")
    m["flow.records_ms_per_op"] = (1e3 * spans["flow.records"][1] / ops, "ms/op")
    m["flow.glancing_step_ms"] = (span_mean("flow.glancing_step_construct", 1e3), "ms")
    m["flow.continuity_probe_ms"] = (span_mean("flow.continuity_probe", 1e3), "ms")
    m["flow.compressed_distance_us"] = (leaf_us("flow.compressed_distance"), "us")
    m["measures.boundary_measure_us_per_sample"] = (
        ratio(1e6 * spans["measures.boundary_measure_of"][1], counts["measures.boundary_measure.samples"]),
        "us/sample")
    m["measures.residual_us_per_sample"] = (
        ratio(1e6 * spans["measures.transport_residual"][1], counts["measures.residual.samples"]),
        "us/sample")
    m["gcc.audit_self_ms_per_ray"] = (ratio(1e3 * spans["gcc.gcc_check"][2], rays), "ms/ray")
    m["gcc.traces_per_ray"] = (ratio(counts["gcc.traces"], rays), "traces/ray")
    m["gcc.useful_sample_ratio"] = (ratio(counts["gcc.samples_useful"], counts["gcc.samples_traced"]), "1")
    m["gcc.skipped_ratio"] = (ratio(counts["gcc.skipped"], rays), "1")
    m["flow.shell_drift_max"] = (max((r.get("shell_drift", 0.0) for r in records), default=0.0), "1")
    m["measures.residual_max"] = (max((r.get("residual", 0.0) for r in records), default=0.0), "1")
    m["trace.overhead_ratio"] = (traced_s / untraced_s - 1.0, "1")
    return m


# ---------------------------------------------------------------------------
# the two kinds of run


def timed_run(runner, wl, work: Path, seconds: float, setup):
    """Whole rounds until the commands have run for `seconds`.

    The set-up samples are taken between rounds, spread evenly over the
    command time, so that set-up and commands see the same stretch of a
    machine whose speed drifts.
    """
    warm = wl.round(0)[0]
    runner.run(warm, work / "warmup")
    records, setups = [], []
    busy = 0.0
    r = 0
    while busy < seconds:
        for i, cmd in enumerate(wl.round(r)):
            records.append(runner.run(cmd, work / f"c{i}"))
            busy += records[-1]["seconds"]
        r += 1
        if len(setups) < SETUP_REPEATS and busy >= len(setups) * seconds / SETUP_REPEATS:
            setups.append(setup())
    while len(setups) < SETUP_REPEATS:
        setups.append(setup())
    # determinism: the last command again, into a fresh directory
    again = runner.run(cmd, work / "repeat")
    runner.compare(records[-1], again, "repeat of " + " ".join(cmd.argv))
    return records, setups, r


def traced_run(runner, wl, work: Path, glancer):
    """Each command untraced and traced, in alternating order, so that both
    passes see the same machine; the spans come from the traced pass."""
    import tracer

    cmds = [c for r in range(TRACED_ROUNDS) for c in wl.round(r)]
    runner.run(cmds[0], work / "warmup")
    tr = tracer.Tracer()
    main = tr.span("cli.main", glancer.cli.main)
    plain, traced = [], []

    def run_traced(k, c):
        tr.begin_op()
        with tracer.instrument(tr, glancer):
            traced.append(runner.run(c, work / "traced" / f"op{k}", main=main))

    for k, c in enumerate(cmds):
        if k % 2:
            run_traced(k, c)
        plain.append(runner.run(c, work / "untraced" / f"op{k}"))
        if not k % 2:
            run_traced(k, c)
        runner.compare(plain[-1], traced[-1], f"traced op {k}")
    tr.dump(work / "trace.json")
    untraced_s = sum(r["seconds"] for r in plain)
    traced_s = sum(r["seconds"] for r in traced)
    return per_layer(tr, traced, untraced_s, traced_s), TRACED_ROUNDS, traced


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "glancer" / "cli.py").is_file():
        return fail_setup(f"no glancer sources under {src}; run from a source checkout")
    sys.path.insert(0, str(src))
    import glancer
    import glancer.cli  # noqa: F401  (cli is not imported by the package)

    if Path(glancer.__file__).resolve().parent != (src / "glancer").resolve():
        return fail_setup(f"imported glancer from {glancer.__file__}, not from {src}")
    import workloads

    if args.workload not in workloads.WORKLOADS:
        return fail_setup(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    if args.seconds <= 0:
        return fail_setup("--seconds must be positive")

    work = root / ".perfbench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    wl_cls = workloads.WORKLOADS[args.workload]
    runner = Runner(glancer)
    t_start = perf_counter()
    if args.trace:
        wl = wl_cls(glancer, args.seed)
        metrics, rounds, records = traced_run(runner, wl, work, glancer)
        notes = [f"traced {len(records)} commands ({rounds} rounds), each also run untraced"]
    else:
        wl = wl_cls(glancer, args.seed)
        records, setups, rounds = timed_run(
            runner, wl, work, args.seconds, lambda: setup_seconds(root, wl_cls.sources))
        metrics, notes = end_to_end(records, setups)
        dump = [{k: r[k] for k in ("kind", "start", "seconds", "probe", "scaled", "samples", "rays")} for r in records]
        (work / "commands.json").write_text(json.dumps({"setup_s": setups, "commands": dump}))
        notes.insert(0, f"timed {len(records)} commands in {rounds} rounds")
    for d in work.iterdir():  # artifacts are checked by now; keep only the JSON dumps
        if d.is_dir():
            shutil.rmtree(d)

    failed = len(runner.failures)
    attempted = runner.attempted
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{perf_counter() - t_start:.1f} s wall")
    for line in notes:
        print("  " + line)
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(f"  fail_ratio = {failed}/{attempted} = {failed / attempted:.6g}")
    for f in runner.failures[:20]:
        print("  FAILED " + f)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
