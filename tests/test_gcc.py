import numpy as np
import pytest

from glancer import flow, gcc
from glancer import geometry as geo
from glancer import scenarios as scen
from glancer.errors import StepFailure, ValidationError
from glancer.symbol import PhasePoint

FAST = flow.IntegratorParams(h=2e-3)


def test_region_from_expression_contains():
    region = gcc.region_from_expression("0.2 - x2")
    assert region.contains(0.0, [5.0, 0.1])
    assert not region.contains(0.0, [5.0, 0.3])


def test_region_batch_matches_scalar():
    region = gcc.region_from_expression("hypot(x1, x2) - 0.9")
    X = np.array([[0.95, 0.0], [0.1, 0.1], [0.0, -0.99]])
    t = np.zeros(3)
    mask = region.entered(t, X)
    assert list(mask) == [region.contains(0.0, x) for x in X]


# expressions outside the language of glancer.jet
OUTSIDE_THE_GRAMMAR = {
    "lambda-call": "(lambda: ().__class__.__bases__[0].__subclasses__().__len__())()",
    "comprehension": "[x1 for _ in (0, 1)][0]",
    "conditional": "x1 if x2 > 0.5 else -1",
    "comparison": "0.5 - (x2 > 0.5)",
    "attribute": "x1.real",
    "subscript": "(x1, x2)[0]",
}


@pytest.mark.parametrize("expr", OUTSIDE_THE_GRAMMAR.values(), ids=list(OUTSIDE_THE_GRAMMAR))
def test_region_outside_the_grammar_is_a_validation_error(expr):
    with pytest.raises(ValidationError):
        gcc.ObservationRegion(expression=expr)


def test_region_needs_expression_or_predicate():
    with pytest.raises(ValidationError):
        gcc.ObservationRegion()
    with pytest.raises(ValidationError):
        gcc.region_from_expression("x1 + undefined_name")


def test_default_sampler_properties(strip):
    pts = gcc.default_sampler(strip, 32, seed=0)
    assert len(pts) == 32
    assert pts[0].tau == 1.0
    # the first direction is horizontal, which is the strip witness direction
    assert abs(pts[0].xi[1]) < 1e-12
    for rho in pts:
        assert strip.boundary.phi(rho.x) > 0
        assert geo.conorm_sq(strip, rho.x, rho.xi) == pytest.approx(1.0, abs=1e-12)
    again = gcc.default_sampler(strip, 32, seed=0)
    assert all(
        np.array_equal(a.as_vector(), b.as_vector()) for a, b in zip(pts, again)
    )
    shifted = gcc.default_sampler(strip, 32, seed=1)
    assert not np.array_equal(pts[1].as_vector(), shifted[1].as_vector())


def test_strip_lower_band_fails_with_witness(strip):
    region = gcc.region_from_expression("0.2 - x2")
    report = gcc.gcc_check(
        strip, region, 4.0, gcc.default_sampler(strip, 16), params=FAST
    )
    assert report.verdict == "FailsWithWitness"
    assert not report.ok
    ws = report.witness_start
    assert ws is not None and ws.x[1] > 0.2
    for gb in (report.witness, report.witness_backward):
        _, states, _, _ = gb.all_samples()
        assert np.all(states[:, 2] >= 0.2)


def test_whole_domain_region_holds_trivially(strip):
    region = gcc.region_from_expression("1.0")
    report = gcc.gcc_check(
        strip, region, 0.5, gcc.default_sampler(strip, 16), params=FAST
    )
    assert report.verdict == "HoldsOnSample"
    assert report.n_entered == 16
    assert max(report.hit_times) == 0.0


def test_disk_collar_monotone_in_horizon(disk):
    region = gcc.region_from_expression("hypot(x1, x2) - 0.9")
    samples = gcc.default_sampler(disk, 64, seed=2)
    short = gcc.gcc_check(disk, region, 2.0, samples, params=FAST)
    longer = gcc.gcc_check(disk, region, 4.0, samples, params=FAST)
    assert short.verdict == "HoldsOnSample"
    assert longer.verdict == "HoldsOnSample"
    assert max(longer.hit_times) <= 2.0  # entries happen within the short horizon


def test_bad_samples_are_skipped_and_counted(strip):
    region = gcc.region_from_expression("1.0")
    good = gcc.default_sampler(strip, 4)
    bad = [PhasePoint(0.0, np.array([0.0, 0.5]), 1.0, np.array([0.2, 0.0]))]
    report = gcc.gcc_check(strip, region, 0.5, good + bad, params=FAST)
    assert report.n_skipped == 1
    assert report.n_entered == 4
    assert report.verdict == "HoldsOnSample"


def _summary_without_time(report):
    summ = report.summary()
    del summ["elapsed_s"]
    return summ


@pytest.mark.parametrize(
    "name, expr, seed, verdict",
    [
        pytest.param("disk", "hypot(x1, x2) - 0.9", 3, "HoldsOnSample", id="holds"),
        # the first start is horizontal at x2 = 0.5: a witness at index 0
        pytest.param("strip", "0.2 - x2", 0, "FailsWithWitness", id="witness"),
    ],
)
def test_parallel_matches_serial(request, name, expr, seed, verdict):
    scenario = request.getfixturevalue(name)
    region = gcc.region_from_expression(expr)
    samples = gcc.default_sampler(scenario, 24, seed=seed)
    serial = gcc.gcc_check(scenario, region, 2.0, samples, params=FAST)
    parallel = gcc.gcc_check(scenario, region, 2.0, samples, params=FAST, workers=3)
    assert parallel.verdict == serial.verdict == verdict
    assert parallel.n_entered == serial.n_entered
    assert np.allclose(parallel.hit_times, serial.hit_times)
    assert _summary_without_time(parallel) == _summary_without_time(serial)


@pytest.fixture(scope="module")
def disk_chart(disk):
    return scen.chart_scenario(disk, geo.build_quasi_normal_chart(disk, [1.0, 0.0]))


@pytest.mark.parametrize(
    "expr, verdict",
    [
        pytest.param("1.0", "HoldsOnSample", id="holds"),
        # the first start enters the layer z < 0.02, the second does not
        pytest.param("0.02 - x2", "FailsWithWitness", id="witness"),
    ],
)
def test_parallel_matches_serial_on_a_chart_scenario(disk_chart, expr, verdict):
    # workers cannot rebuild a chart scenario from its config: it runs serially
    region = gcc.region_from_expression(expr)
    samples = gcc.default_sampler(disk_chart, 4)
    serial = gcc.gcc_check(disk_chart, region, 0.05, samples, params=FAST)
    parallel = gcc.gcc_check(disk_chart, region, 0.05, samples, params=FAST, workers=2)
    assert parallel.verdict == serial.verdict == verdict
    assert _summary_without_time(parallel) == _summary_without_time(serial)


def test_chunk_stops_at_its_first_witness(strip):
    region = gcc.region_from_expression("0.2 - x2")
    # the first start is horizontal at x2 = 0.5, a witness; the rest follow it
    starts = gcc.default_sampler(strip, 8)
    out = gcc._audit_chunk(strip.config, region.expression, 2.0, starts, FAST)
    assert [kind for kind, _ in out] == ["witness"]
    forward, backward = out[0][1]
    for gb, direction in ((forward, 1), (backward, -1)):
        full = flow.trace_generalized(strip, starts[0], 2.0, FAST, direction)
        assert np.array_equal(gb.all_samples()[1], full.all_samples()[1])


def test_a_witness_is_traced_once_per_direction(strip, monkeypatch):
    # the witness traces are the audit's own, one per direction
    trace, calls = flow.trace_generalized, []

    def counted(*args, **kwargs):
        calls.append(args[1])
        return trace(*args, **kwargs)

    monkeypatch.setattr(flow, "trace_generalized", counted)
    region = gcc.region_from_expression("0.2 - x2")
    samples = gcc.default_sampler(strip, 1, seed=0)
    report = gcc.gcc_check(strip, region, 3.0, samples, params=flow.IntegratorParams(h=1e-3))
    assert report.verdict == "FailsWithWitness"
    assert [rho is samples[0] for rho in calls] == [True, True]


def test_a_start_past_the_piece_budget_is_skipped(disk):
    # a chord at incidence 0.005 rad breaks about 400 times over T = 4, past
    # max_pieces = 256, and never reaches the central disk
    theta = 0.005
    rho = PhasePoint(0.0, np.array([1.0, 0.0]), 1.0, np.array([-np.sin(theta), np.cos(theta)]))
    region = gcc.region_from_expression("0.1 - hypot(x1, x2)")
    report = gcc.gcc_check(disk, region, 4.0, [rho], params=flow.IntegratorParams(h=1e-3))
    assert (report.verdict, report.n_entered, report.n_skipped) == ("HoldsOnSample", 0, 1)


def test_report_summary_fields(strip):
    region = gcc.region_from_expression("1.0")
    report = gcc.gcc_check(strip, region, 0.5, gcc.default_sampler(strip, 4), params=FAST)
    summ = report.summary()
    assert summ["verdict"] == "HoldsOnSample"
    assert summ["n_samples"] == 4
    assert summ["witness_start"] is None
    assert summ["hit_time_max"] == 0.0


def test_gcc_rejects_bad_horizon(strip):
    region = gcc.region_from_expression("1.0")
    with pytest.raises(ValueError):
        gcc.gcc_check(strip, region, 0.0, gcc.default_sampler(strip, 2))


def test_gcc_rejects_an_empty_sample(strip):
    region = gcc.region_from_expression("1.0")
    with pytest.raises(ValueError, match="no samples"):
        gcc.gcc_check(strip, region, 1.0, [])


def test_a_start_in_the_region_is_entered_without_a_trace(strip, monkeypatch):
    def no_trace(*args, **kwargs):
        raise StepFailure("trace_generalized must not be called")

    monkeypatch.setattr(flow, "trace_generalized", no_trace)
    region = gcc.region_from_expression("x2 - 0.4")
    rho = PhasePoint(0.0, np.array([0.1, 0.5]), 1.0, np.array([1.0, 0.0]))
    report = gcc.gcc_check(strip, region, 1.0, [rho], params=FAST)
    assert (report.verdict, report.n_entered, report.n_skipped) == ("HoldsOnSample", 1, 0)
    assert report.hit_times == [0.0]
