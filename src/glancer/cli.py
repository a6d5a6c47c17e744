"""Batch entry point: run traces and checks, export machine-readable artifacts.

Artifacts are deterministic: reruns with the same scenario, flags, and seed
produce byte-identical files. Every file opens with a header block carrying
the scenario hash and a parameter echo; trajectories go to line-delimited
JSON, summaries to CSV. Writes are atomic (temp file + rename). Verbosity
is controlled by the GLANCER_LOG environment variable.

Exit codes: 0 success, 1 check failure, 2 usage or config error.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from . import flow, gcc, measures
from . import geometry as geo
from . import scenarios as scen
from . import symbol as sym
from .errors import ConfigError, GlancerError, ValidationError
from .symbol import PhasePoint


# ---------------------------------------------------------------------------
# artifact plumbing


def _atomic_write(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def _fmt(v) -> str:
    if isinstance(v, float):
        return format(v, ".17g")
    if v is None:
        return ""
    return str(v)


def _header_lines(scenario, command: str, params: dict) -> list[str]:
    rows = [
        f"# command = {command}",
        f"# scenario = {scenario.name}",
        f"# scenario_hash = {scenario.config_hash}",
    ]
    for k in sorted(params):
        rows.append(f"# {k} = {_fmt(params[k])}")
    return rows


def _write_csv(path: Path, scenario, command, params, columns, rows) -> None:
    lines = _header_lines(scenario, command, params)
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    _atomic_write(path, "\n".join(lines) + "\n")


def _json_line(rec: dict) -> str:
    """One JSONL line; NaN and infinities raise ValueError (they are not JSON)."""
    return json.dumps(rec, sort_keys=True, allow_nan=False)


def _write_jsonl(path: Path, scenario, command, params, lines) -> None:
    """A header line, then the given JSON lines."""
    head = {
        "record": "header",
        "command": command,
        "scenario": scenario.name,
        "scenario_hash": scenario.config_hash,
        "params": params,
    }
    _atomic_write(path, "\n".join([_json_line(head), *lines]) + "\n")


def _numbers(text: str, flag: str) -> list[float]:
    """The comma-separated numbers given to --flag."""
    try:
        return [float(v) for v in str(text).split(",")]
    except ValueError as exc:
        raise ConfigError(f"--{flag} must be comma-separated numbers: {exc}") from exc


def _parse_start(text: str) -> PhasePoint:
    vals = _numbers(text, "start")
    if len(vals) != len(sym.COLUMNS):
        raise ConfigError(
            f"--start needs {len(sym.COLUMNS)} values {','.join(sym.COLUMNS)}; got {len(vals)}"
        )
    if not np.isfinite(vals).all():
        raise ConfigError(f"--start values must be finite, got {text!r}")
    return PhasePoint.from_vector(np.asarray(vals))


def _check_numbers(args) -> None:
    """Reject a step, horizon or hop length <= 0, a depth, continuity radius
    or tolerance < 0, any of them not finite, fewer than 1 sample or worker,
    and a negative seed."""
    for name in ("h", "t_horizon", "delta"):
        v = getattr(args, name, None)
        if v is not None and not 0 < v < np.inf:
            raise ConfigError(f"--{name.replace('_', '-')} must be positive and finite, got {v!r}")
    for v in _numbers(args.delta_list, "delta") if getattr(args, "delta_list", None) else ():
        if not 0.0 <= v < np.inf:
            raise ConfigError(f"--delta entries must be finite and nonnegative, got {v!r}")
    for name in ("eps", "tolerance"):
        v = getattr(args, name, None)
        if v is not None and not 0 <= v < np.inf:
            raise ConfigError(f"--{name} must be finite and nonnegative, got {v!r}")
    for name in ("samples", "workers"):
        v = getattr(args, name, None)
        if v is not None and v < 1:
            raise ConfigError(f"--{name} must be at least 1, got {v}")
    if args.seed < 0:
        raise ConfigError(f"--seed must be nonnegative, got {args.seed}")


def _require(args, name: str):
    val = getattr(args, name.replace("-", "_"), None)
    if val is None:
        raise ConfigError(f"--{name} is required for command {args.command!r}")
    return val


# ---------------------------------------------------------------------------
# commands


def cmd_trace(args, scenario, out: Path) -> dict:
    rho0 = _parse_start(_require(args, "start"))
    params = flow.IntegratorParams(h=args.h)
    gb = flow.trace_generalized(scenario, rho0, args.t_horizon, params)
    echo = {"h": args.h, "t_horizon": args.t_horizon, "start": args.start}
    lines = flow.trajectory_records(gb, record="sample")
    lines += [_json_line(dict(r, record="event")) for r in flow.event_records(gb)]
    _write_jsonl(out / "trace.jsonl", scenario, "trace", echo, lines)
    return {
        "command": "trace",
        "ok": True,
        "pieces": len(gb.pieces),
        "breaks": len(gb.break_set),
        "junctions": len(gb.junctions),
        "samples": gb.n_samples,
        "artifact": str(out / "trace.jsonl"),
    }


def cmd_classify(args, scenario, out: Path) -> dict:
    rho0 = _parse_start(_require(args, "start"))
    params = flow.IntegratorParams(h=args.h)
    gb = flow.trace_generalized(scenario, rho0, args.t_horizon, params)
    rows = []
    for br in gb.break_set:
        for side, rho in (("in", br.rho_minus), ("out", br.rho_plus)):
            bc = sym.classify_boundary_point(scenario, rho)
            rows.append(
                (br.s, "break", side, bc.tag.value, bc.hpz, bc.hp2z, rho.t)
                + tuple(rho.x)
                + (rho.tau,)
                + tuple(rho.xi)
            )
    for s, bc in gb.junctions:
        rows.append(
            (s, "junction", "", bc.tag.value, bc.hpz, bc.hp2z) + (None,) * len(sym.COLUMNS)
        )
    rows.sort(key=lambda r: (abs(r[0]), r[1], r[2]))
    cols = ["s", "event", "side", "tag", "hpz", "hp2z", *sym.COLUMNS]
    echo = {"h": args.h, "t_horizon": args.t_horizon, "start": args.start}
    _write_csv(out / "classify.csv", scenario, "classify", echo, cols, rows)
    return {
        "command": "classify",
        "ok": True,
        "contacts": len(rows),
        "artifact": str(out / "classify.csv"),
    }


def cmd_glide_step(args, scenario, out: Path) -> dict:
    rho0 = _parse_start(_require(args, "start"))
    delta = _require(args, "delta")
    eps = args.eps if args.eps is not None else 0.1
    poly = flow.glancing_step_construct(scenario, rho0, delta, eps)
    echo = {"delta": delta, "eps": eps, "start": args.start}
    records = []
    for i, (s, rho) in enumerate(zip(poly.s, poly.points)):
        records.append(
            {
                "record": "vertex",
                "s": float(s),
                "segment_kind": "start" if i == 0 else poly.segment_kinds[i - 1],
                **rho.to_dict(),
            }
        )
    for c in poly.contacts:
        records.append({"record": "contact", **c})
    lines = [_json_line(r) for r in records]
    _write_jsonl(out / "glide_step.jsonl", scenario, "glide-step", echo, lines)
    return {
        "command": "glide-step",
        "ok": True,
        "hpz_max": poly.hpz_max,
        "vertices": len(poly.points),
        "contacts": len(poly.contacts),
        "artifact": str(out / "glide_step.jsonl"),
    }


def _default_test_function(gb) -> measures.TestFunction:
    """Bump centered mid-trace, wide enough to never clip in x or xi, with a
    time width that forces vanishing at both trace endpoints."""
    s, states, kinds, idx = gb.all_samples()
    mid = states[len(s) // 2]
    t_span = float(abs(states[-1, sym.T] - states[0, sym.T]))
    x_mid = mid[sym.X]
    x_reach = float(np.max(np.linalg.norm(states[:, sym.X] - x_mid[None, :], axis=1)))
    xi_reach = float(np.max(np.linalg.norm(states[:, sym.XI], axis=1)))
    return measures.TestFunction(
        center=PhasePoint.from_vector(mid),
        width_t=0.45 * max(t_span, 1e-6),
        width_x=2.0 * x_reach + 1.0,
        width_xi=2.0 * xi_reach + 1.0,
    )


def cmd_verify_transport(args, scenario, out: Path) -> dict:
    rho0 = _parse_start(_require(args, "start"))
    params = flow.IntegratorParams(h=args.h)
    gb = flow.trace_generalized(scenario, rho0, args.t_horizon, params)
    cm = measures.dirac_on_bichar(scenario, gb, f=scenario.f)
    nu = measures.boundary_measure_of(scenario, cm)
    a = _default_test_function(gb)
    residual = measures.transport_residual(scenario, cm, nu, a)
    ok = True if args.tolerance is None else residual <= args.tolerance
    echo = {
        "h": args.h,
        "t_horizon": args.t_horizon,
        "start": args.start,
        "tolerance": args.tolerance,
    }
    rows = [(args.h, residual, len(nu.atoms), len(nu.arcs), gb.n_samples, int(ok))]
    cols = ["h", "residual", "n_atoms", "n_arcs", "n_samples", "ok"]
    _write_csv(out / "transport.csv", scenario, "verify-transport", echo, cols, rows)
    return {
        "command": "verify-transport",
        "ok": bool(ok),
        "residual": residual,
        "n_atoms": len(nu.atoms),
        "n_arcs": len(nu.arcs),
        "artifact": str(out / "transport.csv"),
    }


def cmd_gcc(args, scenario, out: Path) -> dict:
    expr = _require(args, "region")
    region = gcc.region_from_expression(expr)
    workers = args.workers if args.workers is not None else (os.cpu_count() or 1)
    samples = gcc.default_sampler(scenario, args.samples, seed=args.seed)
    params = flow.IntegratorParams(h=args.h)
    report = gcc.gcc_check(
        scenario, region, args.t_horizon, samples, params=params, workers=workers
    )
    echo = {
        "region": expr,
        "t_horizon": args.t_horizon,
        "samples": args.samples,
        "seed": args.seed,
    }
    summ = report.summary()
    rows = [
        (
            report.verdict,
            report.T,
            report.n_samples,
            report.n_entered,
            report.n_skipped,
            summ["hit_time_max"],
            summ["hit_time_mean"],
        )
    ]
    cols = ["verdict", "T", "n_samples", "n_entered", "n_skipped", "hit_time_max", "hit_time_mean"]
    _write_csv(out / "gcc_report.csv", scenario, "gcc", echo, cols, rows)
    result = {
        "command": "gcc",
        "ok": report.ok,
        "verdict": report.verdict,
        "n_entered": report.n_entered,
        "n_skipped": report.n_skipped,
        "elapsed_s": report.elapsed,
        "artifact": str(out / "gcc_report.csv"),
    }
    if report.witness is not None:
        lines = flow.trajectory_records(report.witness_backward, record="sample", direction=-1)
        lines.reverse()
        lines += flow.trajectory_records(report.witness, record="sample", direction=1)
        for gb, direction in ((report.witness, 1), (report.witness_backward, -1)):
            lines += [
                _json_line(dict(r, record="event", direction=direction))
                for r in flow.event_records(gb)
            ]
        _write_jsonl(out / "witness.jsonl", scenario, "gcc", echo, lines)
        result["witness"] = str(out / "witness.jsonl")
        result["witness_start"] = report.witness_start.to_dict()
    return result


def cmd_quasi_normal(args, scenario, out: Path) -> dict:
    m0_text = _require(args, "m0")
    m0 = np.asarray(_numbers(m0_text, "m0"), dtype=float)
    if len(m0) != 2:
        raise ConfigError("--m0 needs 2 coordinates")
    if not np.isfinite(m0).all():
        raise ConfigError(f"--m0 coordinates must be finite, got {m0_text!r}")
    n = args.samples if args.samples is not None else 33
    chart = geo.build_quasi_normal_chart(scenario, m0)
    cs = scen.chart_scenario(scenario, chart)
    us = np.linspace(0.9 * chart.domain_lo[0], 0.9 * chart.domain_hi[0], n)
    rows = []
    gdj_max = gdd_max = h2_max = 0.0
    for u in us:
        x = np.array([u, 0.0])
        G = cs.metric.g(x)
        gdj = float(abs(G[1, 0]))
        gdd = float(abs(G[1, 1] - 1.0))
        h2 = float(abs(sym.hz2p(cs, x) - 2.0))
        gdj_max, gdd_max, h2_max = max(gdj_max, gdj), max(gdd_max, gdd), max(h2_max, h2)
        rows.append((float(u), gdj, gdd, h2))
    ok = True
    if args.tolerance is not None:
        ok = max(gdj_max, gdd_max, h2_max) <= args.tolerance
    echo = {"m0": m0_text, "samples": n, "tolerance": args.tolerance}
    cols = ["u", "abs_g_dj", "abs_g_dd_minus_1", "abs_hz2p_minus_2"]
    _write_csv(out / "quasi_normal.csv", scenario, "quasi-normal", echo, cols, rows)
    return {
        "command": "quasi-normal",
        "ok": bool(ok),
        "max_g_dj": gdj_max,
        "max_g_dd_minus_1": gdd_max,
        "max_hz2p_minus_2": h2_max,
        "artifact": str(out / "quasi_normal.csv"),
    }


def cmd_continuity(args, scenario, out: Path) -> dict:
    rho0 = _parse_start(_require(args, "start"))
    deltas = _numbers(_require(args, "delta_list"), "delta")
    params = flow.IntegratorParams(h=args.h)
    sweep = flow.continuity_sweep(
        scenario, rho0, deltas, args.t_horizon, args.samples, params, seed=args.seed
    )
    rows = [(delta, eps_hat, args.samples) for delta, eps_hat in zip(deltas, sweep)]
    echo = {
        "h": args.h,
        "t_horizon": args.t_horizon,
        "start": args.start,
        "samples": args.samples,
        "seed": args.seed,
    }
    _write_csv(
        out / "continuity.csv", scenario, "continuity", echo,
        ["delta", "eps_hat", "n_samples"], rows,
    )
    return {
        "command": "continuity",
        "ok": True,
        "eps_hat": {str(d): e for d, e, _ in rows},
        "artifact": str(out / "continuity.csv"),
    }


_COMMANDS = {
    "trace": cmd_trace,
    "classify": cmd_classify,
    "glide-step": cmd_glide_step,
    "verify-transport": cmd_verify_transport,
    "gcc": cmd_gcc,
    "quasi-normal": cmd_quasi_normal,
    "continuity": cmd_continuity,
}


# ---------------------------------------------------------------------------
# parser


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: parsing leaves it as it is,
    and building it costs about twenty times as much as a parse."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--scenario", required=True,
                        help="built-in scenario name or JSON config path")
    common.add_argument("--out", default="out", help="artifact output directory")
    common.add_argument("--seed", type=int, default=0, help="seed fixing all sampling")
    common.add_argument("--h", type=float, default=1e-3, help="integrator step")
    common.add_argument("--t-horizon", type=float, default=5.0, dest="t_horizon",
                        help="time horizon of traces")

    p = argparse.ArgumentParser(
        prog="glancer",
        description="Trace generalized rays of the wave symbol and audit "
        "measure transport, reflection continuity, and geometric control.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("trace", parents=[common], help="trace one generalized ray")
    sp.add_argument("--start", help="start point t,x1,x2,tau,xi1,xi2")

    sp = sub.add_parser("classify", parents=[common],
                        help="classify every boundary contact along a trace")
    sp.add_argument("--start", help="start point t,x1,x2,tau,xi1,xi2")

    sp = sub.add_parser("glide-step", parents=[common],
                        help="run the discrete glancing-step construction")
    sp.add_argument("--start", help="gliding start point t,x1,x2,tau,xi1,xi2")
    sp.add_argument("--delta", type=float, help="step length")
    sp.add_argument("--eps", type=float, help="interior depth factor (default 0.1)")

    sp = sub.add_parser("verify-transport", parents=[common],
                        help="check the measure transport identity on one trace")
    sp.add_argument("--start", help="start point t,x1,x2,tau,xi1,xi2")
    sp.add_argument("--tolerance", type=float,
                    help="fail (exit 1) if the residual exceeds this")

    sp = sub.add_parser("gcc", parents=[common], help="audit geometric control on samples")
    sp.add_argument("--region", help="observation region as {expr > 0} over t,x1,x2")
    sp.add_argument("--samples", type=int, default=1000, help="number of starts")
    sp.add_argument("--workers", type=int, help="worker processes (default: all cores)")

    sp = sub.add_parser("quasi-normal", parents=[common],
                        help="build a boundary chart and report flatness deviations")
    sp.add_argument("--m0", help="boundary base point x1,x2")
    sp.add_argument("--samples", type=int, help="boundary grid size (default 33)")
    sp.add_argument("--tolerance", type=float,
                    help="fail (exit 1) if any deviation exceeds this")

    sp = sub.add_parser("continuity", parents=[common],
                        help="probe continuity of the flow in compressed distance")
    sp.add_argument("--start", help="reference start point t,x1,x2,tau,xi1,xi2")
    sp.add_argument("--delta", dest="delta_list",
                    help="perturbation radius, or comma list for a sweep")
    sp.add_argument("--samples", type=int, default=64, help="perturbations per delta")

    return p


def main(argv=None) -> int:
    level = os.environ.get("GLANCER_LOG", "WARNING").upper()
    logging.basicConfig(
        level=getattr(logging, level, logging.WARNING),
        format="%(name)s %(levelname)s %(message)s",
    )
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_numbers(args)
        scenario = scen.load_scenario(args.scenario)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        summary = _COMMANDS[args.command](args, scenario, out)
    except (ConfigError, ValidationError) as exc:
        print(json.dumps({"error": "config", "detail": str(exc)}), file=sys.stderr)
        return 2
    except GlancerError as exc:
        print(
            json.dumps({"error": type(exc).__name__, "detail": str(exc)}),
            file=sys.stderr,
        )
        return 1
    print(json.dumps(summary, sort_keys=True))
    return 0 if summary.get("ok", True) else 1


if __name__ == "__main__":
    sys.exit(main())
