import json
import os
import subprocess
import sys

import numpy as np
import pytest

from glancer import cli


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
