"""Acceptance suite: one test per contract criterion, at stated tolerances.

Each test prints a single pass/fail line (visible with ``pytest -s``); the
assertions themselves carry the tolerances.
"""

import contextlib
import math
import time

import numpy as np
import pytest

from unruhkit import (
    Channel,
    ModelParams,
    RINDLER_R_MAX,
    accelerated_color,
    accelerated_white,
    concurrence,
    concurrence_color_closed,
    concurrence_white_closed,
    figure_preset,
    initial_state,
    qfi_single_bloch,
    qfi_two_qubit_spectral_retry,
    render_csv_body,
    run_sweep,
    run_verification,
    state_family,
    unruh_second_qubit,
)
from unruhkit.cli import main
from unruhkit.qlinalg import hermitian_defect
from oracles import werner_concurrence

SINGLET_X = 1.0 / math.sqrt(2.0)
GRID = np.linspace(0.0, 1.0, 21)
R_GRID = np.linspace(0.0, RINDLER_R_MAX, 21)


@contextlib.contextmanager
def criterion(number: int, description: str, budget_s: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL - {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {number}: PASS - {description} ({elapsed:.2f}s < {budget_s:g}s)")
    assert elapsed < budget_s, f"criterion {number} exceeded its {budget_s}s budget"


def test_criterion_1_werner_line_exactness():
    with criterion(1, "numeric concurrence reproduces the exact mixing line", 1.0):
        for p in np.linspace(0.0, 1.0, 101):
            got = concurrence(accelerated_white(SINGLET_X, p, 0.0))
            assert got == pytest.approx(werner_concurrence(p), abs=1e-10)
        assert concurrence(accelerated_white(SINGLET_X, 1.0, 0.0)) == pytest.approx(
            1.0, abs=1e-10
        )


def test_criterion_2_closed_vs_numeric_concurrence():
    with criterion(2, "closed concurrence forms match the engine at 1e-8", 10.0):
        worst_white = worst_color = 0.0
        for x in GRID:
            for s in GRID:
                for r in R_GRID:
                    worst_white = max(
                        worst_white,
                        abs(
                            concurrence_white_closed(x, s, r)
                            - concurrence(accelerated_white(x, s, r))
                        ),
                    )
                    worst_color = max(
                        worst_color,
                        abs(
                            concurrence_color_closed(x, s, r)
                            - concurrence(accelerated_color(x, s, r))
                        ),
                    )
        assert worst_white <= 1e-8
        assert worst_color <= 1e-8
        printed_gap = abs(
            concurrence_white_closed(SINGLET_X, 0.9, 0.0, w4_coefficient=4.0)
            - concurrence(accelerated_white(SINGLET_X, 0.9, 0.0))
        )
        assert printed_gap >= 0.3  # the published coefficient is wrong


def test_criterion_3_channel_consistency():
    with criterion(3, "closed accelerated states equal the channel route at 1e-12", 5.0):
        for x in GRID:
            for s in GRID:
                for r in R_GRID:
                    for channel, closed in (
                        (Channel.WHITE, accelerated_white),
                        (Channel.COLOR, accelerated_color),
                    ):
                        params = ModelParams(
                            x=x,
                            p=s if channel is Channel.WHITE else 0.0,
                            q=s if channel is Channel.COLOR else 0.0,
                            r=r,
                            channel=channel,
                        )
                        state = closed(x, s, r)
                        image = unruh_second_qubit(initial_state(params), r)
                        assert np.abs(state - image).max() <= 1e-12
                        assert hermitian_defect(state) <= 1e-12
                        assert abs(np.trace(state).real - 1.0) <= 1e-12
                        assert np.linalg.eigvalsh(state).min() >= -1e-12


def test_criterion_4_single_qubit_closed_forms():
    from unruhkit import qfi_single_white_closed

    with criterion(4, "single-qubit closed QFI matches the Bloch engine at rel 1e-6", 10.0):
        worst = 0.0
        for x in GRID:
            for p in GRID:
                for r in R_GRID:
                    a = 1.0 - 2.0 * x * x
                    sz = (1.0 - a * p) * math.cos(r) ** 2 - 1.0
                    if abs(sz) >= 1.0 - 1e-6:
                        continue  # pure-reduction locus, excluded by margin
                    for param, theta in (("p", p), ("x", x), ("r", r)):
                        family = state_family(
                            Channel.WHITE, param, x=x, p=p, r=r, reduced=True
                        )
                        engine = qfi_single_bloch(family, theta).value
                        closed = qfi_single_white_closed(param, x, p, r).value
                        worst = max(worst, abs(closed - engine) / max(abs(closed), 1e-12))
        assert worst <= 1e-6


def test_criterion_5_pure_state_spectral_qfi():
    with criterion(5, "spectral engine reproduces the rank-1 information rate", 1.0):
        family = state_family(Channel.WHITE, "x", p=1.0, r=0.0)
        for x in (0.3, 0.5, SINGLET_X):
            got = qfi_two_qubit_spectral_retry(family, x).value
            assert got == pytest.approx(4.0 / (1.0 - x * x), rel=1e-5)
        assert qfi_two_qubit_spectral_retry(family, SINGLET_X).value == pytest.approx(
            8.0, rel=1e-5
        )


def test_criterion_6_data_processing_inequality():
    with criterion(6, "two-qubit QFI never falls below the reduced-qubit QFI", 60.0):
        violations = 0
        comparisons = 0
        interior = GRID[1:-1]
        for channel in (Channel.WHITE, Channel.COLOR):
            strength_name = "p" if channel is Channel.WHITE else "q"
            for x in interior:
                for s in interior:
                    for r in R_GRID:
                        point = {"x": x, strength_name: s, "r": r}
                        for param in (strength_name, "x", "r"):
                            theta = point[param]
                            rest = {k: v for k, v in point.items() if k != param}
                            two = qfi_two_qubit_spectral_retry(
                                state_family(channel, param, **rest), theta
                            ).value
                            single = qfi_single_bloch(
                                state_family(channel, param, reduced=True, **rest), theta
                            ).value
                            comparisons += 1
                            if two < single - 1e-6:
                                violations += 1
        assert comparisons > 40000
        assert violations == 0


def test_criterion_7_qualitative_figure_shapes():
    with criterion(7, "figure presets reproduce the published curve shapes", 10.0):
        # Color-noise concurrence is nondecreasing in the strength for
        # every acceleration series.
        for name in ("fig3a", "fig3b", "fig3c"):
            table = run_sweep(figure_preset(name))
            for col in range(1, len(table.columns)):
                series = [row[col] for row in table.rows]
                assert all(b >= a - 1e-12 for a, b in zip(series, series[1:])), (name, col)
        # Color-noise concurrence dies exactly at the product endpoint.
        for name in ("fig4a", "fig4b"):
            table = run_sweep(figure_preset(name))
            assert table.rows[-1][0] == 1.0
            for col_name, cell in zip(table.columns[1:], table.rows[-1][1:]):
                limit = 0.0 if col_name.endswith(":closed") else 1e-12
                assert abs(cell) <= max(limit, 1e-12), (name, col_name)
        # White-noise concurrence: dead interval at small strength, then
        # revival that grows monotonically.
        for name in ("fig1a", "fig1b", "fig1c"):
            table = run_sweep(figure_preset(name))
            col = table.columns.index("concurrence[r=0]:numeric")
            series = [row[col] for row in table.rows]
            first_alive = next(i for i, v in enumerate(series) if v > 0)
            assert first_alive >= 2, name
            assert all(v == 0 for v in series[:first_alive]), name
            tail = series[first_alive:]
            assert all(b >= a - 1e-12 for a, b in zip(tail, tail[1:])), name


def test_criterion_8_determinism(tmp_path):
    with criterion(8, "repeated preset runs emit byte-identical CSV bodies", 30.0):
        first = render_csv_body(run_sweep(figure_preset("fig1a")))
        second = render_csv_body(run_sweep(figure_preset("fig1a")))
        assert first == second
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["figure", "fig1a", "--out", str(out_a)]) == 0
        assert main(["figure", "fig1a", "--out", str(out_b)]) == 0
        body = lambda path: [
            line
            for line in path.read_text().splitlines()
            if not line.startswith("#")
        ]
        assert body(out_a) == body(out_b)


def test_criterion_9_verification_harness():
    with criterion(9, "full verification passes with ledgered residual records", 300.0):
        report = run_verification(tolerance=1e-8, grid_n=21)
        assert report.overall_pass
        ledgered = {check.name: check for check in report.checks if check.ledgered}
        assert "concurrence-white-closed(printed-coef-4)" in ledgered
        assert "concurrence-whitecolor-closed(printed)" in ledgered
        assert "concurrence-whitecolor-closed(cos-r)" in ledgered
        assert "qfi-two-closed-vs-spectral-engine" in ledgered
        for check in ledgered.values():
            assert math.isfinite(check.max_residual)
        # CLI contract: exit 0 on pass, report on stdout.
        assert main(["verify", "--tol", "1e-8", "--grid", "5"]) == 0
