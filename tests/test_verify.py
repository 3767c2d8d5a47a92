import dataclasses
import math
import threading

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
from unruhkit import channels as channels_module
from unruhkit import verify as verify_module
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


@pytest.mark.parametrize("block_cells", [1, 512, 10**9])
def test_block_size_does_not_change_the_report(monkeypatch, block_cells):
    # One x value per block, as a loop over x would do, blocks of a few x
    # values (512 splits every grid-11 pass, which the default runs whole),
    # and the whole grid in one block give the default's report: blocks keep
    # x-major order.
    default = run_verification(grid_n=11).render()
    monkeypatch.setattr(channels_module, "BLOCK_CELLS", block_cells)
    assert run_verification(grid_n=11).render() == default


class TestCliVerify:
    def test_exit_zero_on_pass(self, capsys):
        assert main(["verify", "--tol", "1e-8", "--grid", "5"]) == 0
        out = capsys.readouterr().out
        assert "overall: PASS" in out
        assert "LEDGERED" in out

    def test_grid_too_small_is_usage_error(self, capsys):
        assert main(["verify", "--grid", "3"]) == 1

    def test_grid_above_the_block_budget_is_usage_error(self, capsys):
        assert main(["verify", "--grid", "65"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "unruhkit: grid_n must be at most 64\n"


class TestArguments:
    def test_bad_tolerance(self):
        with pytest.raises(ValueError):
            run_verification(tolerance=-1.0)

    def test_bad_grid(self):
        with pytest.raises(ValueError):
            run_verification(grid_n=4)

    def test_grid_above_the_block_budget_is_refused_before_any_pass(self, monkeypatch):
        # Past 64, n^2 > BLOCK_CELLS and every cube block outgrows the budget.
        def ran(*args):
            raise AssertionError("a grid pass ran")

        monkeypatch.setattr(verify_module, "_check_cube", ran)
        with pytest.raises(ValueError, match="grid_n must be at most 64"):
            run_verification(grid_n=65)


class _Sentinel(Exception):
    pass


def _raising(name):
    def raises(*args):
        raise _Sentinel(name)

    return raises


@pytest.mark.parametrize("name", ["_check_cube", "_check_interior"])
def test_a_pass_that_raises_reaches_the_caller_and_leaves_no_thread(monkeypatch, name):
    # The cube pass runs on a worker thread, the interior pass on the
    # calling one: either's exception reaches the caller, after the join.
    monkeypatch.setattr(verify_module, name, _raising(name))
    threads = threading.active_count()
    with pytest.raises(_Sentinel, match=name):
        run_verification(grid_n=5)
    assert threading.active_count() == threads


def test_the_cube_pass_exception_wins(monkeypatch):
    # The cube pass comes first in the report's order, so when both passes
    # raise, the caller sees the cube pass's exception.
    for name in ("_check_cube", "_check_interior"):
        monkeypatch.setattr(verify_module, name, _raising(name))
    with pytest.raises(_Sentinel, match="_check_cube"):
        run_verification(grid_n=5)


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


# Every check's identity at grid 5, in report order: the name, grid label,
# threshold and ledger flag a check reports, and its verdict.
CHECK_IDENTITIES_GRID5 = [
    ("white-closed-state-vs-channel", "5^3", 1e-12, False, True),
    ("white-state-validity", "5^3", 1e-12, False, True),
    ("color-closed-state-vs-channel", "5^3", 1e-12, False, True),
    ("color-state-validity", "5^3", 1e-12, False, True),
    ("whitecolor-boundary-reductions", "2x5^3", 1e-12, False, True),
    ("whitecolor-closed-state-vs-channel", "5^4", 1e-12, False, True),
    ("concurrence-white-closed(corrected)", "5^3", 1e-08, False, True),
    ("concurrence-white-closed(printed-coef-4)", "5^3+probe", 1e-08, True, False),
    ("concurrence-color-closed", "5^3", 1e-08, False, True),
    ("concurrence-whitecolor-closed(printed)", "5^4", 1e-08, True, False),
    ("concurrence-whitecolor-closed(cos-r)", "5^4", 1e-08, False, True),
    ("qfi-single-closed-vs-bloch-engine", "5^3x3", 1e-06, False, True),
    ("qfi-two-closed-vs-spectral-engine", "int(5)^3x3", 1e-06, False, True),
    ("qfi-data-processing-inequality", "2 ch x int(5)^2 x 5 x 3", 1e-06, False, True),
]


def test_check_identities_in_order():
    report = run_verification(grid_n=5)
    got = [(c.name, c.grid, c.threshold, c.ledgered, c.passed) for c in report.checks]
    assert got == CHECK_IDENTITIES_GRID5


# Every check's notes at grid 5, in report order: what the checks count or
# read along the way (skipped points, comparisons, the mixing-line residual,
# the matching whitecolor reading), which no residual pins.
WHITECOLOR_READING = (
    "cos-r-weighted reading matches the engine (printed 1.65e-01, cos-r-weighted 5.55e-16)"
)
CHECK_NOTES_GRID5 = [
    "",
    "",
    "strength symbol read as the color strength q",
    "",
    "white edge q=0; color edge p+q=1",
    "p+q <= 1",
    "final surd coefficient corrected 4 -> 1/2",
    "printed coefficient fails; residual 0.350 on the exact mixing line",
    "",
    WHITECOLOR_READING,
    WHITECOLOR_READING,
    "6 pure-reduction grid points skipped",
    "primes read as partial derivatives; pair eigenvalues read as the coherent "
    "block pair; 0 singular points skipped",
    "270 comparisons",
]


def test_check_notes_in_order():
    assert [c.notes for c in run_verification(grid_n=5).checks] == CHECK_NOTES_GRID5


def test_each_grid_builds_its_states_and_engine_values_once(monkeypatch):
    # Per block of the n^3 cube, one white and one color build, one
    # concurrence call for both and one Bloch engine call; one concurrence
    # call per block of the combined channel's grid; per channel and block of
    # the interior grid, one two-qubit and one Bloch engine call, which the
    # DPI and closed-form checks share; and the white mixing-line probe's
    # state and concurrence.  No residual function calls an engine itself.
    calls = {}
    lock = threading.Lock()  # the cube pass counts from its own thread

    def counted(name):
        fn = getattr(verify_module, name)

        def call(*args, **kwargs):
            with lock:
                calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)

        return call

    names = ("accelerated_white", "accelerated_color", "concurrence", "qfi_single_bloch")
    for name in (*names, "qfi_two_qubit_spectral_retry"):
        monkeypatch.setattr(verify_module, name, counted(name))
    n = 21
    run_verification(grid_n=n)
    cube_blocks = math.ceil(n / (channels_module.BLOCK_CELLS // n**2))
    m = n // 2 + 1
    p, q = np.meshgrid(np.linspace(0.0, 1.0, m), np.linspace(0.0, 1.0, m), indexing="ij")
    whitecolor_cells = np.count_nonzero(p + q <= 1.0) * m
    whitecolor_blocks = math.ceil(m / (channels_module.BLOCK_CELLS // whitecolor_cells))
    interior_blocks = math.ceil((n - 2) / (channels_module.BLOCK_CELLS // ((n - 2) * n)))
    assert (cube_blocks, whitecolor_blocks, interior_blocks) == (3, 3, 2)
    assert calls == {
        "accelerated_white": cube_blocks + 1,
        "accelerated_color": cube_blocks,
        "concurrence": cube_blocks + whitecolor_blocks + 1,
        "qfi_single_bloch": cube_blocks + 2 * interior_blocks,
        "qfi_two_qubit_spectral_retry": 2 * interior_blocks,
    }


# The points each check skips, from the skip rules as stated: the
# single-qubit QFI within SINGULAR_MARGIN of a pure reduction, the two-qubit
# closed form where it is NaN.  Every other check skips no point.
SKIPPED_POINTS = {
    "qfi-single-closed-vs-bloch-engine": lambda x, p, r: (
        np.abs((1.0 - (1.0 - 2.0 * x * x) * p) * np.cos(r) ** 2 - 1.0) >= 1.0 - verify_module.SINGULAR_MARGIN
    ),
    "qfi-two-closed-vs-spectral-engine": lambda x, p, r: np.isnan(
        qfi_two_white_closed(verify_module.WHITE_QFI_PARAMS, x, p, r).value
    ),
}


def test_residual_functions_give_the_grid_residuals_at_any_of_its_points(monkeypatch):
    # Each pass's residual functions, fed a block built from a seeded,
    # shuffled subset of the grid's own points, give the grid pass's
    # residual at each point bit for bit, and -inf exactly where the check
    # skips the point: a residual depends on its point alone, not on the
    # block's shape, order or neighbours.
    scans = []
    scan = verify_module._scan

    def recording(checks, blocks, build):
        blocks, outputs = list(blocks), [[] for _ in checks]

        def recorded(k, residual):
            def call(points, shared):
                out = residual(points, shared)
                outputs[k].append(np.asarray(out, dtype=float))
                return out

            return call

        scans.append((checks, blocks, build, outputs))
        return scan([(record, recorded(k, fn)) for k, (record, fn) in enumerate(checks)], blocks, build)

    monkeypatch.setattr(verify_module, "_scan", recording)
    # Small blocks, so that each pass's grid residuals come from several.
    monkeypatch.setattr(channels_module, "BLOCK_CELLS", 64)
    run_verification(grid_n=7)
    assert len(scans) == 4  # the cube, the combined grid, the interior's two channels
    rng = np.random.default_rng(3400)
    skipped_somewhere = set()
    for checks, blocks, build, outputs in scans:
        assert len(blocks) > 1
        cells = blocks[0][0].ndim
        points = tuple(np.concatenate([block[a].ravel() for block in blocks]) for a in range(len(blocks[0])))
        subset = rng.permutation(points[0].size)[: points[0].size // 2]
        picked = tuple(axis[subset] for axis in points)
        shared = build(*picked)
        for (record, residual), per_block in zip(checks, outputs):
            flat = [out.reshape(out.shape[: out.ndim - cells] + (-1,)) for out in per_block]
            grid = np.concatenate(flat, axis=-1)
            want = grid[..., subset]
            got = np.asarray(residual(picked, shared), dtype=float)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), record.name
            rule = SKIPPED_POINTS.get(record.name, lambda *point: np.zeros(point[0].shape, dtype=bool))
            skipped = np.broadcast_to(rule(*picked), got.shape)
            assert np.array_equal(np.isneginf(got), skipped), record.name
            if skipped.any():
                skipped_somewhere.add(record.name)
    assert skipped_somewhere == {"qfi-single-closed-vs-bloch-engine"}


def test_update_reads_the_parameter_axis_last():
    # Residuals with a leading axis over three parameters, at a 2 x 3 grid of
    # points (x, s): the first maximum in the order x, s, parameter wins.
    x, s = np.meshgrid([0.0, 1.0], [0.0, 0.5, 1.0], indexing="ij")
    residuals = np.full((3, 2, 3), -math.inf)
    residuals[0, 1, 0] = 5.0  # the first parameter, at a later cell
    residuals[2, 0, 2] = 5.0  # the last parameter, at an earlier cell
    residuals[1, 0, 2] = 5.0  # the same cell, an earlier parameter
    check = verify_module.CheckRecord("check", "grid", 1.0)
    check.update(residuals, x, s)
    assert (check.max_residual, check.worst_point) == (5.0, (0.0, 1.0))
    # A larger residual in a later block wins; a tie does not.
    check.update(np.array([[-1.0], [6.0], [6.0]]), np.array([0.5]), np.array([0.5]))
    assert (check.max_residual, check.worst_point) == (6.0, (0.5, 0.5))
    check.update(np.full((3, 2, 3), 6.0), x, s)
    assert check.worst_point == (0.5, 0.5)


def test_update_never_lets_a_skipped_point_set_the_worst():
    # -inf marks a skipped point: it sets nothing while the check has no
    # residual, and never wins over a finite one, however negative.
    check = verify_module.CheckRecord("check", "grid", 1.0)
    check.update(np.full((3, 2), -math.inf), np.array([0.1, 0.2]))
    assert (check.max_residual, check.worst_point) == (-math.inf, None)
    check.update(np.array([[-math.inf, -7.0], [-math.inf, -9.0]]), np.array([0.3, 0.4]))
    assert (check.max_residual, check.worst_point) == (-7.0, (0.4,))
    check.update(np.full((2, 2), -math.inf), np.array([0.5, 0.6]))
    assert (check.max_residual, check.worst_point) == (-7.0, (0.4,))


def test_update_lets_nan_win_outright():
    # A NaN on any parameter of a cell wins over every finite residual, before
    # or after it, and the check keeps it.
    check = verify_module.CheckRecord("check", "grid", 1.0)
    check.update(np.array([[2.0, 9.0], [math.nan, 1.0]]), np.array([0.1, 0.2]))
    assert math.isnan(check.max_residual) and check.worst_point == (0.1,)
    check.update(np.array([[50.0], [50.0]]), np.array([0.3]))
    assert math.isnan(check.max_residual) and check.worst_point == (0.1,)
    assert not check.passed


def test_nan_residual_fails_its_check(monkeypatch):
    # A NaN worst value cannot vouch for the grid: the check fails and so
    # does the run, while every other check reports as before.
    default = run_verification(grid_n=5)
    closed = verify_module.concurrence_color_closed

    def nan_at_one_cell(x, s, r):
        out = np.array(closed(x, s, r), dtype=float)
        out.flat[3] = math.nan
        return out

    monkeypatch.setattr(verify_module, "concurrence_color_closed", nan_at_one_cell)
    report = run_verification(grid_n=5)
    color = record(report, "concurrence-color-closed")
    line = color.line()
    assert line.startswith("[FAIL    ] concurrence-color-closed ")
    assert "max-residual=nan at (0, 0, 0.589049)" in line
    assert not color.passed and math.isnan(color.max_residual)
    assert not report.overall_pass
    assert report.render().endswith("overall: FAIL (14 checks, 2 ledgered)")
    others = [c.line() for c in report.checks if c.name != color.name]
    assert others == [c.line() for c in default.checks if c.name != color.name]


# Each gated closed form, scaled by 1 + 10 x its check's threshold, and the
# one check that must then fail at grid 5.  The factors are literals so that
# a loosened threshold makes its row fail.
SEEDED_DEFECTS = [
    ("concurrence_white_closed", 1 + 1e-7, "concurrence-white-closed(corrected)"),
    ("concurrence_color_closed", 1 + 1e-7, "concurrence-color-closed"),
    ("concurrence_whitecolor_closed", 1 + 1e-7, "concurrence-whitecolor-closed(cos-r)"),
    ("qfi_single_white_closed", 1 + 1e-5, "qfi-single-closed-vs-bloch-engine"),
    ("qfi_two_white_closed", 1 + 1e-5, "qfi-two-closed-vs-spectral-engine"),
]


@pytest.fixture(scope="module")
def verdicts_grid5():
    return {c.name: c.passed for c in run_verification(grid_n=5).checks}


@pytest.mark.parametrize("form, factor, flipped", SEEDED_DEFECTS, ids=[d[0] for d in SEEDED_DEFECTS])
def test_seeded_defect_fails_exactly_its_check(monkeypatch, capsys, verdicts_grid5, form, factor, flipped):
    closed = getattr(verify_module, form)

    def scaled(*args, **kwargs):
        out = closed(*args, **kwargs)
        if form.startswith("qfi"):
            return dataclasses.replace(out, value=out.value * factor)
        return out * factor

    monkeypatch.setattr(verify_module, form, scaled)
    verdicts = {c.name: c.passed for c in run_verification(grid_n=5).checks}
    assert verdicts_grid5[flipped] and not verdicts[flipped]
    assert {name: ok for name, ok in verdicts.items() if name != flipped} == {
        name: ok for name, ok in verdicts_grid5.items() if name != flipped
    }
    assert main(["verify", "--grid", "5"]) == 2
    assert f"[FAIL    ] {flipped} " in capsys.readouterr().out
