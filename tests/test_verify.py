import math

import numpy as np
import pytest

from unruhkit import (
    Channel,
    ModelParams,
    RINDLER_R_MAX,
    SingularPointError,
    accelerated_color,
    accelerated_white,
    accelerated_whitecolor,
    concurrence,
    concurrence_color_closed,
    concurrence_white_closed,
    concurrence_whitecolor_closed,
    initial_state,
    qfi_single_bloch,
    qfi_single_white_closed,
    qfi_two_qubit_spectral,
    qfi_two_white_closed,
    run_verification,
    state_family,
    unruh_second_qubit,
)
from unruhkit.cli import main
from unruhkit.qlinalg import hermitian_defect


@pytest.fixture(scope="module")
def report():
    return run_verification(tolerance=1e-8, grid_n=7)


def record(report, name):
    matches = [check for check in report.checks if check.name == name]
    assert len(matches) == 1, f"missing check {name}"
    return matches[0]


class TestReportContent:
    def test_overall_pass(self, report):
        assert report.overall_pass

    def test_channel_checks_tight(self, report):
        for name in (
            "white-closed-state-vs-channel",
            "color-closed-state-vs-channel",
            "whitecolor-boundary-reductions",
            "whitecolor-closed-state-vs-channel",
        ):
            check = record(report, name)
            assert check.passed and check.max_residual <= 1e-12

    def test_corrected_white_form_passes(self, report):
        check = record(report, "concurrence-white-closed(corrected)")
        assert check.passed and not check.ledgered
        assert "corrected" in check.notes

    def test_printed_coefficient_is_ledgered_failure(self, report):
        check = record(report, "concurrence-white-closed(printed-coef-4)")
        assert check.ledgered and not check.passed
        assert check.max_residual >= 0.3

    def test_whitecolor_reading_adjudicated(self, report):
        printed = record(report, "concurrence-whitecolor-closed(printed)")
        weighted = record(report, "concurrence-whitecolor-closed(cos-r)")
        assert printed.ledgered
        assert weighted.passed and not weighted.ledgered
        assert weighted.max_residual < 1e-8
        assert printed.max_residual > 1e-3
        assert "cos-r-weighted reading matches" in printed.notes

    def test_qfi_checks(self, report):
        single = record(report, "qfi-single-closed-vs-bloch-engine")
        assert single.passed and single.max_residual <= 1e-6
        two = record(report, "qfi-two-closed-vs-spectral-engine")
        assert two.passed and not two.ledgered and two.max_residual <= 1e-6
        dpi = record(report, "qfi-data-processing-inequality")
        assert dpi.passed and dpi.max_residual <= 1e-6

    def test_render_has_one_line_per_check(self, report):
        lines = report.render().splitlines()
        assert len(lines) == len(report.checks) + 2
        assert lines[-1].startswith("overall: PASS")


def test_closed_qfi_checks_are_exact_to_round_off():
    # The engines' complex-step derivatives carry no truncation error, so
    # they meet the closed forms far inside the gate.
    report = run_verification(grid_n=11)
    for name in ("qfi-single-closed-vs-bloch-engine", "qfi-two-closed-vs-spectral-engine"):
        assert record(report, name).max_residual <= 1e-11, name


def test_every_check_reports_its_worst_point():
    report = run_verification(grid_n=5)
    for check in report.checks:
        assert check.worst_point is not None, check.name
        assert math.isfinite(check.max_residual), check.name
    # The DPI residual is single - two, never positive: its worst is 0 at r=0.
    dpi = record(report, "qfi-data-processing-inequality")
    assert "max-residual=0.000e+00 at (0.25, 0.25, 0)" in dpi.line()


class TestCliVerify:
    def test_exit_zero_on_pass(self, capsys):
        assert main(["verify", "--tol", "1e-8", "--grid", "5"]) == 0
        out = capsys.readouterr().out
        assert "overall: PASS" in out
        assert "LEDGERED" in out

    def test_grid_too_small_is_usage_error(self, capsys):
        assert main(["verify", "--grid", "3"]) == 1


class TestArguments:
    def test_bad_tolerance(self):
        with pytest.raises(ValueError):
            run_verification(tolerance=-1.0)

    def test_bad_grid(self):
        with pytest.raises(ValueError):
            run_verification(grid_n=4)


# ---------------------------------------------------------------------------
# Per-cell oracle: every check rebuilt as plain loops over the scalar API
# ---------------------------------------------------------------------------


class _Worst:
    """Running maximum; the first maximum in loop order keeps its point."""

    def __init__(self):
        self.max, self.point = -math.inf, None

    def update(self, residual, point):
        if residual > self.max:
            self.max, self.point = residual, point


def _oracle_checks(n):
    grid = np.linspace(0.0, 1.0, n)
    r_grid = np.linspace(0.0, RINDLER_R_MAX, n)
    interior = grid[1:-1]
    checks = {}

    for label, closed, channel in (
        ("white", accelerated_white, Channel.WHITE),
        ("color", accelerated_color, Channel.COLOR),
    ):
        route, validity = _Worst(), _Worst()
        for x in grid:
            for s in grid:
                for r in r_grid:
                    strengths = {"p": s} if channel is Channel.WHITE else {"q": s}
                    params = ModelParams(x=x, r=r, channel=channel, **strengths)
                    direct = closed(x, s, r)
                    image = unruh_second_qubit(initial_state(params), r)
                    route.update(float(np.abs(direct - image).max()), (x, s, r))
                    bad = max(
                        hermitian_defect(direct),
                        abs(float(np.trace(direct).real) - 1.0),
                        max(0.0, -float(np.linalg.eigvalsh(direct).min())),
                    )
                    validity.update(bad, (x, s, r))
        checks[f"{label}-closed-state-vs-channel"] = route
        checks[f"{label}-state-validity"] = validity

    edges = _Worst()
    for x in grid:
        for s in grid:
            for r in r_grid:
                white = accelerated_whitecolor(x, s, 0.0, r) - accelerated_white(x, s, r)
                color = accelerated_whitecolor(x, s, 1.0 - s, r) - accelerated_color(x, s, r)
                edges.update(float(np.abs(white).max()), (x, s, r))
                edges.update(float(np.abs(color).max()), (x, s, r))
    checks["whitecolor-boundary-reductions"] = edges

    m = max(5, n // 2 + 1)
    block = np.linspace(0.0, 1.0, m)
    block_r = np.linspace(0.0, RINDLER_R_MAX, m)
    interior_route, printed_wc, weighted_wc = _Worst(), _Worst(), _Worst()
    for x in block:
        for p in block:
            for q in block:
                if p + q > 1.0:
                    continue
                for r in block_r:
                    point = (x, p, q, r)
                    state = accelerated_whitecolor(x, p, q, r)
                    params = ModelParams(x=x, p=p, q=q, r=r, channel=Channel.WHITE_COLOR)
                    image = unruh_second_qubit(initial_state(params), r)
                    interior_route.update(float(np.abs(state - image).max()), point)
                    engine = concurrence(state)
                    printed_wc.update(abs(concurrence_whitecolor_closed(*point) - engine), point)
                    weighted = concurrence_whitecolor_closed(*point, cos_r_weighted=True)
                    weighted_wc.update(abs(weighted - engine), point)
    checks["whitecolor-closed-state-vs-channel"] = interior_route
    checks["concurrence-whitecolor-closed(printed)"] = printed_wc
    checks["concurrence-whitecolor-closed(cos-r)"] = weighted_wc

    corrected, printed, color = _Worst(), _Worst(), _Worst()
    for x in grid:
        for s in grid:
            for r in r_grid:
                engine_w = concurrence(accelerated_white(x, s, r))
                corrected.update(abs(concurrence_white_closed(x, s, r) - engine_w), (x, s, r))
                coef4 = concurrence_white_closed(x, s, r, w4_coefficient=4.0)
                printed.update(abs(coef4 - engine_w), (x, s, r))
                engine_c = concurrence(accelerated_color(x, s, r))
                color.update(abs(concurrence_color_closed(x, s, r) - engine_c), (x, s, r))
    x_w = 1.0 / math.sqrt(2.0)
    probe = concurrence_white_closed(x_w, 0.9, 0.0, w4_coefficient=4.0)
    printed.update(abs(probe - concurrence(accelerated_white(x_w, 0.9, 0.0))), (x_w, 0.9, 0.0))
    checks["concurrence-white-closed(corrected)"] = corrected
    checks["concurrence-white-closed(printed-coef-4)"] = printed
    checks["concurrence-color-closed"] = color

    single = _Worst()
    for x in grid:
        for p in grid:
            for r in r_grid:
                if abs((1.0 - (1.0 - 2.0 * x * x) * p) * math.cos(r) ** 2 - 1.0) >= 1.0 - 1e-6:
                    continue
                for param, theta in (("p", p), ("x", x), ("r", r)):
                    family = state_family(Channel.WHITE, param, x=x, p=p, r=r, reduced=True)
                    engine = qfi_single_bloch(family, theta).value
                    closed = qfi_single_white_closed(param, x, p, r).value
                    single.update(abs(closed - engine) / max(abs(closed), 1e-12), (x, p, r))
    checks["qfi-single-closed-vs-bloch-engine"] = single

    two = _Worst()
    for x in interior:
        for p in interior:
            for r in r_grid:
                if p * x * math.sqrt(1.0 - x * x) <= 1e-6:
                    continue
                for param, theta in (("p", p), ("x", x), ("r", r)):
                    try:
                        closed = qfi_two_white_closed(param, x, p, r).value
                    except SingularPointError:
                        continue
                    family = state_family(Channel.WHITE, param, x=x, p=p, r=r)
                    engine = qfi_two_qubit_spectral(family, theta).value
                    rel = abs(closed - engine) / max(abs(closed), abs(engine), 1e-9)
                    two.update(rel, (x, p, r))
    checks["qfi-two-closed-vs-spectral-engine"] = two

    dpi = _Worst()
    for channel, strength in ((Channel.WHITE, "p"), (Channel.COLOR, "q")):
        for x in interior:
            for s in interior:
                for r in r_grid:
                    point = {"x": x, strength: s, "r": r}
                    for param in (strength, "x", "r"):
                        rest = {k: v for k, v in point.items() if k != param}
                        full = state_family(channel, param, **rest)
                        reduced = state_family(channel, param, reduced=True, **rest)
                        two = qfi_two_qubit_spectral(full, point[param]).value
                        single = qfi_single_bloch(reduced, point[param]).value
                        dpi.update(single - two, (x, s, r))
    checks["qfi-data-processing-inequality"] = dpi
    return checks


def test_batched_checks_equal_per_cell_oracle():
    report = run_verification(grid_n=5)
    oracle = _oracle_checks(5)
    assert sorted(oracle) == sorted(check.name for check in report.checks)
    for check in report.checks:
        want = oracle[check.name]
        assert check.max_residual == want.max, check.name
        assert check.worst_point == tuple(float(v) for v in want.point), check.name
