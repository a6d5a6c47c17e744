import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import glancer
from glancer import cli, flow, gcc
from glancer import scenarios as scen
from glancer.symbol import PhasePoint
from test_gcc import OUTSIDE_THE_GRAMMAR


def run_cli(args, capsys):
    code = cli.main(args)
    out = capsys.readouterr().out.strip().splitlines()
    summary = json.loads(out[-1]) if out else {}
    return code, summary


def read_jsonl(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


def test_trace_writes_jsonl_with_breaks(tmp_path, capsys):
    code, summary = run_cli(
        [
            "trace", "--scenario", "strip", "--start", "0,0,0,1,0,1",
            "--t-horizon", "3.2", "--out", str(tmp_path),
        ],
        capsys,
    )
    assert code == 0
    assert summary["breaks"] == 3
    records = read_jsonl(tmp_path / "trace.jsonl")
    assert records[0]["record"] == "header"
    assert records[0]["scenario"] == "strip"
    events = [r for r in records if r["record"] == "event"]
    assert np.allclose([e["s"] for e in events], [0.5, 1.0, 1.5], atol=1e-8)


def test_trace_reruns_are_byte_identical(tmp_path, capsys):
    args = [
        "trace", "--scenario", "half_plane", "--start", "0,0,1,1,0.6,-0.8",
        "--t-horizon", "2", "--out", str(tmp_path),
    ]
    assert cli.main(args) == 0
    first = (tmp_path / "trace.jsonl").read_bytes()
    assert cli.main(args) == 0
    assert (tmp_path / "trace.jsonl").read_bytes() == first
    capsys.readouterr()


def test_gliding_trace_ends_at_the_chart_box(tmp_path, capsys):
    # a glancing start on the flat bottom wall glides along x1 = 2 s and
    # meets the edge x1 = 12 of the chart box before the horizon (s = 15)
    code, summary = run_cli(
        [
            "trace", "--scenario", "strip", "--start", "0,0,0,1,1,0",
            "--t-horizon", "30", "--out", str(tmp_path),
        ],
        capsys,
    )
    assert code == 0
    assert summary["pieces"] == 1
    samples = [r for r in read_jsonl(tmp_path / "trace.jsonl") if r["record"] == "sample"]
    assert {r["piece_kind"] for r in samples} == {"Gliding"}
    assert 12.0 - 4e-3 < samples[-1]["x"][0] <= 12.0 + 1e-9  # the box, widened as in_domain does


def test_classify_artifact(tmp_path, capsys):
    code, summary = run_cli(
        [
            "classify", "--scenario", "strip", "--start", "0,0,0,1,0,1",
            "--t-horizon", "3.2", "--out", str(tmp_path),
        ],
        capsys,
    )
    assert code == 0
    assert summary["contacts"] == 6  # three breaks, two sides each
    lines = (tmp_path / "classify.csv").read_text().splitlines()
    header = [l for l in lines if l.startswith("#")]
    assert any("scenario_hash" in l for l in header)
    body = [l for l in lines if not l.startswith("#")]
    assert body[0].startswith("s,event,side,tag")
    assert any("HyperbolicIn" in l for l in body[1:])


def test_glide_step_summary(tmp_path, capsys):
    code, summary = run_cli(
        [
            "glide-step", "--scenario", "disk_interior",
            "--start", "0,1,0,1,0,1", "--delta", "1e-3", "--eps", "0.1",
            "--out", str(tmp_path),
        ],
        capsys,
    )
    assert code == 0
    predicted = 2.0 * np.sqrt(2.0 * 0.1 * 1e-3)
    assert summary["hpz_max"] == pytest.approx(predicted, rel=2e-2)
    records = read_jsonl(tmp_path / "glide_step.jsonl")
    kinds = {r["record"] for r in records}
    assert kinds == {"header", "vertex", "contact"}


def test_verify_transport_exit_codes(tmp_path, capsys):
    base = [
        "verify-transport", "--scenario", "half_plane",
        "--start", "0,0,1,1,0.6,-0.8", "--t-horizon", "2.4",
        "--h", "1e-3", "--out", str(tmp_path),
    ]
    code, summary = run_cli(base + ["--tolerance", "1e-4"], capsys)
    assert code == 0
    assert summary["residual"] < 1e-4
    code, summary = run_cli(base + ["--tolerance", "1e-15"], capsys)
    assert code == 1
    assert not summary["ok"]


def test_the_shared_parser_forgets_the_flags_of_an_earlier_call(tmp_path, capsys):
    """main builds its parser once per process; a flag set in one call is
    back at its default in the next call that omits it."""
    base = [
        "verify-transport", "--scenario", "half_plane",
        "--start", "0,0,1,1,0.6,-0.8", "--t-horizon", "2.4",
        "--h", "1e-3", "--out", str(tmp_path),
    ]
    code, summary = run_cli(base + ["--tolerance", "1e-15"], capsys)
    assert code == 1 and not summary["ok"]
    code, summary = run_cli(base, capsys)
    assert code == 0 and summary["ok"]
    assert "# tolerance = \n" in (tmp_path / "transport.csv").read_text()
    assert cli.build_parser() is cli.build_parser()


def test_gcc_failure_writes_witness(tmp_path, capsys):
    code, summary = run_cli(
        [
            "gcc", "--scenario", "strip", "--region", "0.2 - x2",
            "--t-horizon", "4", "--samples", "8", "--workers", "1",
            "--out", str(tmp_path),
        ],
        capsys,
    )
    assert code == 1
    assert summary["verdict"] == "FailsWithWitness"
    witness = read_jsonl(tmp_path / "witness.jsonl")
    samples = [r for r in witness if r["record"] == "sample"]
    assert all(r["x"][1] >= 0.2 for r in samples)
    ss = [r["s"] for r in samples]
    assert ss == sorted(ss)  # backward branch first, merged s-increasing
    report = (tmp_path / "gcc_report.csv").read_text()
    assert "FailsWithWitness" in report


README_GCC = ["gcc", "--scenario", "strip", "--region", "0.2 - x2", "--t-horizon", "10",
              "--samples", "64"]


def test_pooled_gcc_writes_the_serial_bytes_under_every_start_method(tmp_path):
    """The README gcc line with two workers started by forkserver (Python
    3.14's default on Linux) and by spawn, whose workers import glancer
    afresh and pickle the witness traces back, writes the bytes of one
    worker; each run in its own process."""
    script = (
        "import multiprocessing, sys\n"
        "from glancer import cli\n"
        "method, workers, out = sys.argv[1:4]\n"
        "if method != 'serial':\n"
        "    multiprocessing.set_start_method(method)\n"
        "sys.exit(cli.main(sys.argv[4:] + ['--workers', workers, '--out', out]))\n"
    )
    src = str(Path(glancer.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    runs = {"serial": "1", "forkserver": "2", "spawn": "2"}
    procs = [
        subprocess.Popen([sys.executable, "-c", script, method, workers,
                          str(tmp_path / method), *README_GCC],
                         env=env, stdout=subprocess.DEVNULL)
        for method, workers in runs.items()
    ]
    assert [p.wait() for p in procs] == [1, 1, 1]  # the strip audit has a witness
    files = {
        method: [(tmp_path / method / f).read_bytes() for f in ("gcc_report.csv", "witness.jsonl")]
        for method in runs
    }
    assert files["forkserver"] == files["serial"]
    assert files["spawn"] == files["serial"]


def test_json_lines_refuse_non_finite_values():
    # header, event, vertex and contact lines: NaN and infinities are not JSON
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError):
            cli._json_line({"record": "event", "s": 0.5, "hpz": bad})
        with pytest.raises(ValueError):
            cli._json_line({"record": "header", "params": {"h": bad}})
    assert cli._json_line({"b": -0.0, "a": 1e300}) == '{"a": 1e+300, "b": -0.0}'


def test_gcc_holds_on_whole_domain(tmp_path, capsys):
    code, summary = run_cli(
        [
            "gcc", "--scenario", "strip", "--region", "1.0",
            "--t-horizon", "0.5", "--samples", "8", "--workers", "1",
            "--out", str(tmp_path),
        ],
        capsys,
    )
    assert code == 0
    assert summary["verdict"] == "HoldsOnSample"


def test_quasi_normal_command(tmp_path, capsys):
    code, summary = run_cli(
        [
            "quasi-normal", "--scenario", "disk_interior", "--m0", "1,0",
            "--tolerance", "1e-6", "--out", str(tmp_path),
        ],
        capsys,
    )
    assert code == 0
    assert summary["max_hz2p_minus_2"] < 1e-6
    body = [
        l for l in (tmp_path / "quasi_normal.csv").read_text().splitlines()
        if not l.startswith("#")
    ]
    assert len(body) == 1 + 33  # header row plus the default grid


def test_continuity_command_sweeps_delta(tmp_path, capsys):
    code, summary = run_cli(
        [
            "continuity", "--scenario", "half_plane",
            "--start", "0,0,0.5,1,0.6,-0.8", "--delta", "1e-2,1e-3",
            "--t-horizon", "1", "--samples", "4", "--out", str(tmp_path),
        ],
        capsys,
    )
    assert code == 0
    assert summary["eps_hat"]["0.001"] < summary["eps_hat"]["0.01"]
    body = [
        l for l in (tmp_path / "continuity.csv").read_text().splitlines()
        if not l.startswith("#")
    ]
    assert len(body) == 3


def test_continuity_csv_rows_are_the_per_delta_probes(tmp_path, capsys):
    # the sweep shares one reference trace; each row is still its own probe
    start, deltas = "0,0.1,0.45,1,0.6,0.8", [1e-2, 1e-3, 1e-4]
    code, _ = run_cli(
        ["continuity", "--scenario", "strip", "--start", start,
         "--delta", ",".join(map(repr, deltas)), "--h", "0.002", "--t-horizon", "1",
         "--samples", "2", "--seed", "3", "--out", str(tmp_path)],
        capsys,
    )
    assert code == 0
    strip = scen.builtin("strip")
    rho0 = PhasePoint.from_vector(np.array([float(v) for v in start.split(",")]))
    params = flow.IntegratorParams(h=0.002)
    rows = []
    for d in deltas:
        eps_hat = flow.continuity_probe(strip, rho0, d, 1.0, 2, params, seed=3)
        rows.append(",".join(cli._fmt(v) for v in (d, eps_hat, 2)))
    body = [
        l for l in (tmp_path / "continuity.csv").read_text().splitlines()
        if not l.startswith("#")
    ]
    assert body == ["delta,eps_hat,n_samples", *rows]


def test_usage_errors_exit_two(tmp_path, capsys):
    cases = [
        ["trace", "--scenario", "klein_bottle", "--start", "0,0,1,1,1,0"],
        ["trace", "--scenario", "strip"],  # --start missing
        ["trace", "--scenario", "strip", "--start", "0,0"],  # malformed
        ["gcc", "--scenario", "strip", "--region", "bogus(x1)"],
        ["quasi-normal", "--scenario", "disk_interior"],  # --m0 missing
    ]
    # numbers that cannot work: a config error, not a traceback or a vacuous pass
    strip_trace = ["trace", "--scenario", "strip", "--start", "0,0,0.5,1,1,0"]
    cases += [
        strip_trace + ["--h", "0"],
        strip_trace + ["--h", "nan"],
        strip_trace + ["--t-horizon", "-1"],
        ["glide-step", "--scenario", "disk_interior", "--start", "0,1,0,1,0,1", "--delta", "0"],
        ["glide-step", "--scenario", "disk_interior", "--start", "0,1,0,1,0,1",
         "--delta", "0.01", "--eps", "-1"],
        ["gcc", "--scenario", "strip", "--region", "x1", "--samples", "0"],
        ["gcc", "--scenario", "strip", "--region", "x1", "--samples", "-3"],
        ["continuity", "--scenario", "strip", "--start", "0,0,0.5,1,1,0",
         "--delta", "0.01", "--samples", "0"],
        ["quasi-normal", "--scenario", "disk_interior", "--m0", "1,0", "--samples", "0"],
    ]
    for case in cases:
        code = cli.main(case + ["--out", str(tmp_path)])
        assert code == 2, case
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "config", case


STRIP = {"schema": 1, "builtin": "strip"}
BOUNDARY = {"schema": 1, "boundary": {"kind": "expression", "phi": "x2"}}


@pytest.mark.parametrize(
    "config",
    [
        {**STRIP, "metric": {"kind": "constant", "matrix": [[1, 2], [2, 1]]}},
        {**STRIP, "metric": {"kind": "constant", "matrix": [[1, 0.1], [0.2, 1]]}},
        {**STRIP, "metric": {"kind": "constant", "matrix": [[1, 0], [0, 1], [0, 0]]}},
        {**STRIP, "metric": {"kind": "diagonal", "entries": [1, 1, 1]}},
        {**STRIP, "metric": {"kind": "diagonal", "entries": [1, -1]}},
        {**STRIP, "metric": {"kind": "diagonal"}},
        {**STRIP, "metric": {"kind": "expression", "expressions": [["1"]]}},
        {**STRIP, "metric": {"kind": "expression", "expressions": [["1", "0"], ["0.5", "1"]]}},
        {**STRIP,
         "metric": {"kind": "expression", "expressions": [["1", "0", "1"], ["0", "1", "0"]]}},
        {"schema": 1, "boundary": {"kind": "expression"}},
        {**BOUNDARY, "boundary": {**BOUNDARY["boundary"], "box": [[0, 0]]}},
        {**BOUNDARY, "boundary": {**BOUNDARY["boundary"], "box": [[1, -1], [-1, 1]]}},
        {**STRIP, "potential": {"kind": "expression"}},
        {**STRIP,
         "metric": {"kind": "expression", "expressions": [["10 ** 400", "0"], ["0", "1"]]}},
    ],
    ids=[
        "constant-not-positive", "constant-not-symmetric", "constant-3x2", "diagonal-3",
        "diagonal-not-positive", "diagonal-no-entries", "expression-1x1",
        "expression-off-diagonals-differ", "expression-extra-columns", "boundary-no-phi",
        "boundary-box-one-corner", "boundary-box-lo-above-hi", "potential-no-expr",
        "expression-constant-past-float-range",
    ],
)
def test_malformed_scenario_blocks_exit_two(tmp_path, capsys, config):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(config))
    argv = ["classify", "--scenario", str(path), "--start", "0,0.5,0.5,1,1,0"]
    assert cli.main(argv + ["--out", str(tmp_path)]) == 2
    assert json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"] == "config"


_UNSUPPORTED = {
    "comparison": "0.1 * (x1 > 0)",
    "conditional": "(x1 if x2 else 0)",
    "subscript": "[x1, x2][0]",
    "floor-division": "x1 // 3",
    "modulo": "x1 % 3",
    "non-real-constant": "(-1) ** 0.5",
    "complex-literal": "0j",
    "arity": "cos(x1, x2)",
}


@pytest.mark.parametrize("where", ["phi", "metric"])
@pytest.mark.parametrize("syntax", list(_UNSUPPORTED))
def test_unsupported_expression_syntax_exits_two(tmp_path, capsys, where, syntax):
    """Syntax the jets do not take is a config error when the scenario loads,
    not a traceback out of the command."""
    term = _UNSUPPORTED[syntax]
    if where == "phi":
        config = {**BOUNDARY, "boundary": {**BOUNDARY["boundary"], "phi": f"x2 + 0 * {term}"}}
    else:
        entries = [[f"1 + 0 * {term}", "0"], ["0", "1"]]
        config = {**STRIP, "metric": {"kind": "expression", "expressions": entries}}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(config))
    argv = ["trace", "--scenario", str(path), "--start", "0,0,0.5,1,1,0", "--t-horizon", "0.1"]
    assert cli.main(argv + ["--out", str(tmp_path)]) == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "config"
    assert not (tmp_path / "trace.jsonl").exists()


@pytest.mark.parametrize("where", ["region", "potential"])
@pytest.mark.parametrize("expr", OUTSIDE_THE_GRAMMAR.values(), ids=list(OUTSIDE_THE_GRAMMAR))
def test_region_or_potential_outside_the_grammar_exits_two(tmp_path, capsys, where, expr):
    """Regions and potentials are checked by the grammar of walls and
    metrics: no lambda, comprehension, conditional, comparison, attribute
    or subscript runs, and none ends in a traceback."""
    scenario, region = "strip", expr
    if where == "potential":
        scenario, region = tmp_path / "scenario.json", "0.2 - x2"
        scenario.write_text(json.dumps({**STRIP, "potential": {"kind": "expression", "expr": expr}}))
    argv = ["gcc", "--scenario", str(scenario), "--region", region, "--samples", "4",
            "--t-horizon", "0.5", "--out", str(tmp_path)]
    assert cli.main(argv) == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "config"
    assert not (tmp_path / "gcc_report.csv").exists()


@pytest.mark.parametrize("deltas", ["-1e-2,nan", "1e-2,inf", "-0.5", "1e-2,-inf"])
def test_continuity_rejects_negative_or_non_finite_deltas(tmp_path, capsys, deltas):
    code = cli.main(
        ["continuity", "--scenario", "strip", "--start", "0,0.1,0.45,1,0.6,0.8",
         f"--delta={deltas}", "--samples", "2", "--out", str(tmp_path)]
    )
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "config"
    assert "--delta entries must be finite and nonnegative" in err["detail"]
    assert not (tmp_path / "continuity.csv").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["trace", "--scenario", "strip", "--start", "0,0,0.5,1,1,0", "--h", "inf"],
        ["trace", "--scenario", "strip", "--start", "0,0,0.5,1,1,0", "--t-horizon", "inf"],
        ["glide-step", "--scenario", "disk_interior", "--start", "0,1,0,1,0,1", "--delta", "inf"],
        ["glide-step", "--scenario", "disk_interior", "--start", "0,1,0,1,0,1",
         "--delta", "0.01", "--eps", "inf"],
    ],
    ids=["h", "t-horizon", "delta", "eps"],
)
def test_infinite_numbers_exit_two(tmp_path, capsys, argv):
    assert cli.main(argv + ["--out", str(tmp_path)]) == 2
    assert json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"] == "config"


_TRANSPORT = ["verify-transport", "--scenario", "strip", "--start", "0,0,0.5,1,0.6,0.8"]
_QUASI_NORMAL = ["quasi-normal", "--scenario", "disk_interior", "--m0", "1,0", "--samples", "5"]
_GCC = ["gcc", "--scenario", "strip", "--region", "x1", "--samples", "2", "--t-horizon", "0.5"]


@pytest.mark.parametrize(
    "argv",
    [
        *(_TRANSPORT + [f"--tolerance={v}"] for v in ("nan", "inf", "-1e-3")),
        *(_QUASI_NORMAL + [f"--tolerance={v}"] for v in ("nan", "inf", "-1e-3")),
        _GCC + ["--workers=0"],
        _GCC + ["--workers=-3"],
        _GCC + ["--seed=-1"],
        ["continuity", "--scenario", "strip", "--start", "0,0.1,0.45,1,0.6,0.8",
         "--delta", "1e-2", "--samples", "2", "--seed=-1"],
        ["trace", "--scenario", "strip", "--start", "0,0,0.5,1,1,0", "--seed=-1"],
    ],
    ids=[
        "transport-tolerance-nan", "transport-tolerance-inf", "transport-tolerance-negative",
        "quasi-normal-tolerance-nan", "quasi-normal-tolerance-inf",
        "quasi-normal-tolerance-negative", "workers-zero", "workers-negative",
        "gcc-seed-negative", "continuity-seed-negative", "trace-seed-negative",
    ],
)
def test_out_of_range_tolerance_or_workers_exits_two(tmp_path, capsys, argv):
    """A tolerance that is not finite and nonnegative, fewer than one worker
    or a negative seed is a config error: not a run that fails every check
    (exit 1), an audit that quietly runs serially, or numpy's traceback."""
    assert cli.main(argv + ["--out", str(tmp_path)]) == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "config" and argv[-1].split("=")[0] in err["detail"]
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "potential",
    [
        {"kind": "constant", "value": 5000},
        {"kind": "constant", "value": -5000},
        {"kind": "expression", "expr": "x1 * 2 ** 1023 * 2 ** 1023"},
    ],
    ids=["weights-underflow", "weights-overflow", "potential-overflows"],
)
def test_damping_weights_off_the_floats_fail_the_step(tmp_path, capsys, potential):
    """A potential whose damping weights exp(-int f) leave the floats (0,
    inf, or f itself not finite) is a StepFailure naming the sample's s:
    exit 1 with one JSON error line, no NaN residual, no traceback, no
    numpy warning and no artifact."""
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({**STRIP, "potential": potential}))
    out = tmp_path / "out"
    argv = ["verify-transport", "--scenario", str(scenario), "--start", "0,0.1,0.45,1,0.6,0.8",
            "--t-horizon", "1", "--out", str(out)]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    err = json.loads(line)
    assert err["error"] == "StepFailure" and "at s = " in err["detail"]
    assert not list(out.iterdir())


def test_overflowing_region_prints_no_numpy_warning(tmp_path, capsys):
    """A region whose value overflows decides silently, as the comparison of
    inf decides: stderr stays empty and the verdict is the one it was."""
    argv = ["gcc", "--scenario", "strip", "--region", "x1 * 2 ** 1023 * 2 ** 1023",
            "--samples", "2", "--t-horizon", "0.5", "--workers", "1", "--out", str(tmp_path)]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert json.loads(captured.out)["verdict"] == "FailsWithWitness"
    assert captured.err == ""
    region = gcc.region_from_expression("x1 * 2 ** 1023 * 2 ** 1023")
    assert region.contains(0.0, [1.0, 0.5]) and not region.contains(0.0, [-1.0, 0.5])
    X = np.array([[1.0, 0.5], [-1.0, 0.5], [0.0, 0.5]])
    assert region.entered(np.zeros(3), X).tolist() == [True, False, False]


_PAST_FLOATS = {
    "wall": {**BOUNDARY, "boundary": {**BOUNDARY["boundary"], "phi": "x2 + 0 * 9 ** 9 ** 7"}},
    "metric": {**STRIP,
               "metric": {"kind": "expression", "expressions": [["1 + 0 * 9 ** 9 ** 7 * x1", "0"],
                                                                ["0", "1"]]}},
    "potential": {**STRIP, "potential": {"kind": "expression", "expr": "10 ** 400 * x1"}},
    "region": STRIP,
}


@pytest.mark.parametrize("where", list(_PAST_FLOATS))
def test_integer_constant_past_the_float_range_exits_two_at_once(tmp_path, capsys, where):
    """An integer constant past the float range is refused when the
    expression is checked, and a power is sized before it is computed: no
    9 ** 9 ** 7 is computed (seconds) and no overflow escapes a command."""
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(_PAST_FLOATS[where]))
    region = "t + 9 ** 9 ** 7 - x1" if where == "region" else "0.2 - x2"
    argv = ["gcc", "--scenario", str(scenario), "--region", region, "--samples", "4",
            "--t-horizon", "0.5", "--out", str(tmp_path)]
    start = time.perf_counter()
    assert cli.main(argv) == 2
    assert time.perf_counter() - start < 1.0
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "config" and "past the float range" in err["detail"]
    assert not (tmp_path / "gcc_report.csv").exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "argv",
    [
        ["trace", "--scenario", "strip", "--start=0,0,0.5,{},0.6,0.8", "--t-horizon", "1"],
        ["classify", "--scenario", "strip", "--start=0,0,0,{},0.6,-0.8"],
        ["verify-transport", "--scenario", "strip", "--start=0,0,0.5,1,{},0.8"],
        ["glide-step", "--scenario", "disk_interior", "--start={},1,0,1,0,1", "--delta", "0.01"],
        ["continuity", "--scenario", "strip", "--start=0,0.1,{},1,0.6,0.8", "--delta", "0.01"],
        ["quasi-normal", "--scenario", "disk_interior", "--m0={},0"],
    ],
    ids=["trace", "classify", "verify-transport", "glide-step", "continuity", "quasi-normal"],
)
def test_non_finite_start_or_base_point_exits_two(tmp_path, capsys, argv, value):
    argv = [a.format(value) for a in argv]
    assert cli.main(argv + ["--out", str(tmp_path)]) == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "config" and "must be finite" in err["detail"]
    assert not list(tmp_path.iterdir())


def test_continuity_accepts_a_zero_delta(tmp_path, capsys):
    code, summary = run_cli(
        ["continuity", "--scenario", "strip", "--start", "0,0.1,0.45,1,0.6,0.8",
         "--delta", "0", "--t-horizon", "0.2", "--samples", "1", "--out", str(tmp_path)],
        capsys,
    )
    assert code == 0 and summary["eps_hat"] == {"0.0": 0.0}


def test_start_outside_the_domain_is_a_step_failure(tmp_path, capsys):
    code = cli.main(
        ["trace", "--scenario", "half_plane", "--start", "0,0,-0.1,1,1,0", "--out", str(tmp_path)]
    )
    assert code == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err == {
        "error": "StepFailure",
        "detail": "start lies outside the domain: phi = -1.000e-01",
    }


def test_console_entry_point_and_log_env(tmp_path):
    env = dict(os.environ, GLANCER_LOG="INFO")
    proc = subprocess.run(
        [
            sys.executable, "-m", "glancer.cli", "trace", "--scenario",
            "half_plane", "--start", "0,0,1,1,0.6,-0.8", "--t-horizon", "1",
            "--out", str(tmp_path),
        ],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout.strip().splitlines()[-1])["ok"] is True


WAVY = Path(__file__).resolve().parents[1] / "perfbench" / "scenarios" / "wavy.json"

# a strip under a non-diagonal constant metric whose LAPACK inverse has other
# bits under the Nehalem kernel than under the AVX-512 one
NON_DIAGONAL_STRIP = {
    "schema": 1, "builtin": "strip",
    "metric": {"kind": "constant", "matrix": [[1.94, 0.23], [0.23, 0.71]]},
}

# the README glide-step, a multi-bounce disk trace, a trace under the wavy
# expression metric and wall, a 2-sample strip continuity sweep and a
# multi-bounce trace on the strip under NON_DIAGONAL_STRIP (its file is
# written by the test)
KERNEL_COMMANDS = [
    ["glide-step", "--scenario", "disk_interior", "--start", "0,1,0,1,0,1", "--delta", "1e-3"],
    ["trace", "--scenario", "disk_interior", "--start", "0,0.3,0.1,1,0.6,0.8", "--t-horizon", "8"],
    [
        "trace", "--scenario", str(WAVY), "--start",
        "0.0,-0.16507154133672985,0.04025441691165371,1.0,-0.09585803948820527,-0.9954410012735664",
        "--t-horizon", "1.2", "--h", "0.007",
    ],
    [
        "continuity", "--scenario", "strip", "--start", "0,0.1,0.45,1,0.6,0.8",
        "--delta", "1e-2,1e-3,1e-4", "--samples", "2",
    ],
    [
        "trace", "--scenario", "non_diagonal_strip.json", "--start",
        "0,0.1,0.45,1,0.6112006873056985,0.8149342497409315", "--t-horizon", "6",
    ],
]


def _uses_openblas() -> bool:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return "openblas" in str(blas.get("name", "")).lower()


@pytest.mark.skipif(
    platform.machine().lower() not in ("x86_64", "amd64") or not _uses_openblas(),
    reason="OPENBLAS_CORETYPE selects OpenBLAS kernels on x86-64 only",
)
def test_artifacts_do_not_depend_on_the_blas_kernel(tmp_path):
    """The same commands write the same bytes under the default OpenBLAS
    kernel of this CPU (with fused multiply-add on newer CPUs) and under
    the Nehalem kernel (without), each run in its own process."""
    script = (
        "import sys\n"
        "from glancer import cli\n"
        "commands, out = eval(sys.argv[1]), sys.argv[2]\n"
        "for k, argv in enumerate(commands):\n"
        "    assert cli.main(argv + ['--out', f'{out}/{k}']) == 0\n"
    )
    (tmp_path / "non_diagonal_strip.json").write_text(json.dumps(NON_DIAGONAL_STRIP))
    src = str(Path(glancer.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    procs = []
    for name, kernel in (("default", {}), ("nehalem", {"OPENBLAS_CORETYPE": "Nehalem"})):
        cmd = [sys.executable, "-c", script, repr(KERNEL_COMMANDS), str(tmp_path / name)]
        procs.append(subprocess.Popen(cmd, env={**env, **kernel}, stdout=subprocess.DEVNULL,
                                      cwd=tmp_path))
    assert [p.wait() for p in procs] == [0, 0]
    files = {
        name: {str(f.relative_to(tmp_path / name)): f.read_bytes()
               for f in sorted((tmp_path / name).rglob("*")) if f.is_file()}
        for name in ("default", "nehalem")
    }
    assert len(files["default"]) == len(KERNEL_COMMANDS)
    assert files["default"].keys() == files["nehalem"].keys()
    differ = [f for f in files["default"] if files["default"][f] != files["nehalem"][f]]
    assert differ == []
