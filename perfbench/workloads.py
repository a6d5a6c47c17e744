"""Seeded workloads: CLI argument lists, start validation and output checks.

A workload is an endless sequence of rounds. Round r is drawn from
``numpy.random.default_rng([seed, workload index, r])``, so a seed fixes
every input. Each round holds a few CLI commands of comparable cost; a run
executes whole rounds, so every run sees each command kind in the same
proportion. Starts are validated before any command runs: they lie on the
characteristic set, gliding starts classify as gliding, and curved starts
are predicted (by an independent integration of the exact metric) to strike
the wavy wall transversally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks

HERE = Path(__file__).resolve().parent
CURVED_SCENARIO = HERE / "scenarios" / "wavy.json"

COLLAR = "hypot(x1, x2) - 0.9"
STRIP_WITNESS = "0.2 - x2"


@dataclass
class Command:
    kind: str
    argv: list[str]
    check: Callable[[dict], dict]  # CLI summary -> info with "fails", "samples", "rays"
    expect_rc: int = 0


def fmt_start(t, x, tau, xi) -> str:
    return ",".join(repr(float(v)) for v in (t, x[0], x[1], tau, xi[0], xi[1]))


def identity_g_inv(x):
    return np.broadcast_to(np.eye(2), (len(x), 2, 2))


# ---------------------------------------------------------------------------
# shared checks


def _new_info(rays: int) -> dict:
    return {"fails": [], "samples": 0, "rays": rays}


def _trace_check(tau0, g_inv, min_events=0, circle=None):
    def check(summary):
        info = _new_info(1)
        samples, events = checks.read_jsonl(summary["artifact"])
        info["samples"] = len(samples)
        if len(samples) != summary["samples"]:
            info["fails"].append("sample count differs between summary and artifact")
        checks.check_trace(samples, tau0, g_inv, info["fails"], info)
        if len(events) < min_events:
            info["fails"].append(f"{len(events)} boundary events, expected >= {min_events}")
        if circle is not None:
            err = checks.circle_oracle_error(samples, *circle)
            if not err <= checks.CIRCLE_ORACLE_MAX:
                info["fails"].append(f"circle oracle error {err:.3e}")
        return info

    return check


def _transport_check(tolerance, min_events=0):
    def check(summary):
        info = _new_info(1)
        row = checks.read_csv(summary["artifact"])[0]
        info["samples"] = int(row["n_samples"])
        residual = float(summary["residual"])
        info["residual"] = residual
        if float(row["residual"]) != residual:
            info["fails"].append("residual differs between summary and artifact")
        if not (summary["ok"] is True and residual <= tolerance):
            info["fails"].append(f"transport residual {residual:.3e} > tolerance {tolerance:.0e}")
        if summary["n_atoms"] + summary["n_arcs"] < min_events:
            info["fails"].append("no boundary mass: the ray never met the boundary")
        return info

    return check


# ---------------------------------------------------------------------------
# workloads


class Workload:
    name = ""
    index = 0
    sources: tuple = ()  # scenarios the CLI loads; setup time loads each once

    def __init__(self, glancer, seed: int):
        self.g = glancer
        self.seed = seed
        self.scen = {src: glancer.scenarios.load_scenario(src) for src in self.sources}

    def rng(self, r: int):
        return np.random.default_rng([self.seed, self.index, r])

    def round(self, r: int) -> list[Command]:
        raise NotImplementedError

    # -- validation helpers

    def _require_characteristic(self, src, start: str) -> None:
        sym = self.g.symbol
        vals = [float(v) for v in start.split(",")]
        rho = sym.PhasePoint.from_vector(np.asarray(vals), 2)
        p = sym.p_eval(self.scen[src], rho)
        if abs(p) > 1e-12:
            raise ValueError(f"start {start} on {src} is off the characteristic set: p = {p:.3e}")

    def _unit_xi(self, src, x, direction) -> np.ndarray:
        v = np.asarray(direction, dtype=float)
        return v / math.sqrt(self.g.geometry.conorm_sq(self.scen[src], np.asarray(x), v))


class Glide(Workload):
    """Gliding rays on the unit circle (disk and annulus outer wall) and glide-step."""

    name = "glide"
    index = 1
    sources = ("disk_interior", "annulus")
    H = 1e-3
    T = 1.0
    T_TRACE = 1.2  # a trace writes no measures; the longer arc matches verify-transport's cost
    TOLERANCE = 1e-10
    EPS = 0.1

    def _glide_start(self, src, rng):
        th = rng.uniform(0, 2 * math.pi)
        orient = float(rng.choice([-1.0, 1.0]))
        x = _unit(th)
        xi = orient * np.array([-math.sin(th), math.cos(th)])
        start = fmt_start(0.0, x, 1.0, xi)
        self._require_characteristic(src, start)
        sym = self.g.symbol
        rho = sym.PhasePoint(0.0, x, 1.0, xi)
        tag = sym.classify_boundary_point(self.scen[src], rho).tag
        if tag is not sym.Tag.GLIDING:
            raise ValueError(f"glide start {start} on {src} classifies as {tag.value}")
        return start, th, orient

    def round(self, r):
        rng = self.rng(r)
        common = ["--t-horizon", repr(self.T), "--h", repr(self.H)]
        start, th, orient = self._glide_start("disk_interior", rng)
        cmds = [Command(
            "trace",
            ["trace", "--scenario", "disk_interior", "--start", start,
             "--t-horizon", repr(self.T_TRACE), "--h", repr(self.H)],
            _trace_check(1.0, identity_g_inv, circle=(th, orient)),
        )]
        for src in self.sources:
            start, _, _ = self._glide_start(src, rng)
            cmds.append(Command(
                "verify-transport",
                ["verify-transport", "--scenario", src, "--start", start,
                 "--tolerance", repr(self.TOLERANCE)] + common,
                _transport_check(self.TOLERANCE),
            ))
        start, _, _ = self._glide_start("disk_interior", rng)
        delta = 10.0 ** rng.uniform(-5, -2)
        cmds.append(Command(
            "glide-step",
            ["glide-step", "--scenario", "disk_interior", "--start", start,
             "--delta", repr(delta), "--eps", repr(self.EPS)],
            self._glide_step_check(delta),
        ))
        return cmds

    def _glide_step_check(self, delta):
        def check(summary):
            info = _new_info(0)
            info["samples"] = int(summary["vertices"])
            err = checks.glide_step_error(summary["hpz_max"], self.EPS, delta)
            if not err <= checks.GLIDE_STEP_REL:
                info["fails"].append(f"hpz_max off the sqrt(8 eps delta) law by {err:.1%}")
            return info

        return check


class Curved(Workload):
    """Trace and transport check under an expression metric and a wavy wall."""

    name = "curved"
    index = 2
    sources = (str(CURVED_SCENARIO),)
    H = 7e-3
    T_TRACE = 1.2
    T_TRANSPORT = 0.9
    TOLERANCE = 2e-3

    def _g_inv(self, x):
        # the shell is the program's own (interpolated) metric's, as in criterion 1
        metric = self.scen[self.sources[0]].metric
        return np.stack([metric.g_inv(row) for row in x])

    def _start(self, rng, horizon):
        src = self.sources[0]
        while True:
            x1 = rng.uniform(-1.6, 1.6)
            x = np.array([x1, -0.3 * math.cos(x1) + rng.uniform(0.25, 0.45)])
            a = rng.uniform(-0.6, 0.6)
            xi = self._unit_xi(src, x, [math.sin(a), -math.cos(a)])
            if _predict_wavy_hit(x, xi, horizon / 2.0):
                break
        start = fmt_start(0.0, x, 1.0, xi)
        self._require_characteristic(src, start)
        return start

    def round(self, r):
        rng = self.rng(r)
        src = self.sources[0]
        h = ["--h", repr(self.H)]
        start = self._start(rng, self.T_TRACE)
        cmds = [Command(
            "trace",
            ["trace", "--scenario", src, "--start", start,
             "--t-horizon", repr(self.T_TRACE)] + h,
            _trace_check(1.0, self._g_inv, min_events=1),
        )]
        start = self._start(rng, self.T_TRANSPORT)
        cmds.append(Command(
            "verify-transport",
            ["verify-transport", "--scenario", src, "--start", start,
             "--t-horizon", repr(self.T_TRANSPORT), "--tolerance", repr(self.TOLERANCE)] + h,
            _transport_check(self.TOLERANCE, min_events=1),
        ))
        return cmds


class Audit(Workload):
    """Collar gcc audit, strip witness audit and a continuity sweep."""

    name = "audit"
    index = 3
    sources = ("disk_interior", "strip")
    COLLAR_T = 4.0
    COLLAR_RAYS = 12
    WITNESS_T = 3.0
    CONT_H = 2e-3
    CONT_T = 1.0
    CONT_SAMPLES = 2
    DELTAS = (1e-2, 1e-3, 1e-4)

    def round(self, r):
        rng = self.rng(r)
        gcc = self.g.gcc
        cmds = []

        seed = int(rng.integers(0, 2**31))
        for rho in gcc.default_sampler(self.scen["disk_interior"], self.COLLAR_RAYS, seed=seed):
            self._require_characteristic("disk_interior", fmt_start(rho.t, rho.x, rho.tau, rho.xi))
        cmds.append(Command(
            "gcc",
            ["gcc", "--scenario", "disk_interior", "--region", COLLAR,
             "--t-horizon", repr(self.COLLAR_T), "--samples", str(self.COLLAR_RAYS),
             "--workers", "1", "--seed", str(seed)],
            self._collar_check,
        ))

        seed = self._witness_seed(rng)
        cmds.append(Command(
            "gcc-witness",
            ["gcc", "--scenario", "strip", "--region", STRIP_WITNESS,
             "--t-horizon", repr(self.WITNESS_T), "--samples", "1",
             "--workers", "1", "--seed", str(seed)],
            self._witness_check,
            expect_rc=1,
        ))

        x = np.array([rng.uniform(-0.5, 0.5), rng.uniform(0.35, 0.55)])
        a = rng.uniform(0.7, 1.2)
        d = [math.cos(a) * rng.choice([-1, 1]), math.sin(a)]
        start = fmt_start(0.0, x, 1.0, self._unit_xi("strip", x, d))
        self._require_characteristic("strip", start)
        cmds.append(Command(
            "continuity",
            ["continuity", "--scenario", "strip", "--start", start,
             "--delta", ",".join(repr(v) for v in self.DELTAS), "--h", repr(self.CONT_H),
             "--t-horizon", repr(self.CONT_T), "--samples", str(self.CONT_SAMPLES),
             "--seed", str(int(rng.integers(0, 2**31)))],
            self._continuity_check,
        ))
        return cmds

    def _witness_seed(self, rng) -> int:
        """A sampler seed whose first start is a witness.

        The seed only turns the sampler's directions. In the strip a
        unit-speed ray moves |sin angle| in x2 per unit time, so a start at
        height x2 with |sin angle| T < x2 - 0.25 never enters {x2 < 0.2}
        over |t| <= T. The audit stops at its first witness, so
        the command audits this one ray and re-traces it as the witness.
        """
        first = int(rng.integers(0, 2**31))
        for seed in range(first, first + 10_000):
            rho = self.g.gcc.default_sampler(self.scen["strip"], 1, seed=seed)[0]
            if abs(rho.xi[1]) / np.linalg.norm(rho.xi) * self.WITNESS_T < rho.x[1] - 0.25:
                self._require_characteristic("strip", fmt_start(rho.t, rho.x, rho.tau, rho.xi))
                return seed
        raise ValueError("no strip sampler seed gives a witness as its first start")

    def _collar_check(self, summary):
        row = checks.read_csv(summary["artifact"])[0]
        n = int(row["n_samples"])
        info = _new_info(n)
        if not (summary["verdict"] == "HoldsOnSample" and summary["n_entered"] == n == self.COLLAR_RAYS):
            info["fails"].append(f"collar audit: {summary['verdict']} with {summary['n_entered']}/{n} entered")
        return info

    def _witness_check(self, summary):
        info = _new_info(summary["n_entered"] + summary["n_skipped"] + 1)
        if summary["verdict"] != "FailsWithWitness" or "witness" not in summary:
            info["fails"].append(f"strip audit gave {summary['verdict']}, expected a witness")
            return info
        samples, _ = checks.read_jsonl(summary["witness"])
        info["samples"] = len(samples)
        checks.check_trace(samples, 1.0, identity_g_inv, info["fails"], info)
        if not np.all(samples[:, 3] >= 0.2):
            info["fails"].append("witness enters the observation region")
        t_span = samples[:, 1].max() - samples[:, 1].min()
        if t_span < 2.0 * self.WITNESS_T - 1e-6:
            info["fails"].append(f"witness covers |t| span {t_span:.6g} < 2 T")
        return info

    def _continuity_check(self, summary):
        info = _new_info(2 * (1 + self.CONT_SAMPLES) * len(self.DELTAS))
        rows = checks.read_csv(summary["artifact"])
        eps = [float(r["eps_hat"]) for r in rows]
        if len(eps) != len(self.DELTAS) or not all(math.isfinite(e) for e in eps):
            info["fails"].append(f"eps_hat not finite: {eps}")
        elif any(b > a for a, b in zip(eps, eps[1:])):
            info["fails"].append(f"eps_hat grows as delta shrinks: {eps}")
        return info


WORKLOADS = {w.name: w for w in (Glide, Curved, Audit)}


def _unit(angle: float) -> np.ndarray:
    return np.array([math.cos(angle), math.sin(angle)])


def _predict_wavy_hit(x, xi, sigma_max: float) -> bool:
    """Independent RK4 of the exact wavy-scenario flow: a transversal hit early on.

    H = -tau^2 + xi1^2 / a(x2) + xi2^2 with a = 1 + 0.25 x2. True when the
    ray crosses x2 + 0.3 cos(x1) = 0 before 70 % of its span, at an angle
    of at least 0.3 rad to the wall, inside the chart box.
    """

    def rhs(y):
        a = 1.0 + 0.25 * y[1]
        return np.array([2.0 * y[2] / a, 2.0 * y[3], 0.0, 0.25 * y[2] ** 2 / a**2])

    y = np.array([x[0], x[1], xi[0], xi[1]], dtype=float)
    step = 0.005
    s = 0.0
    while s < 0.7 * sigma_max:
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * step * k1)
        k3 = rhs(y + 0.5 * step * k2)
        k4 = rhs(y + step * k3)
        y = y + (step / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        s += step
        if y[1] + 0.3 * math.cos(y[0]) < 0.0:
            v = rhs(y)[:2]
            n = np.array([-0.3 * math.sin(y[0]), 1.0])
            sin_angle = abs(float(n @ v)) / (np.linalg.norm(n) * np.linalg.norm(v))
            return sin_angle >= math.sin(0.3) and abs(y[0]) < 2.7
    return False
