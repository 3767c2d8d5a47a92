"""Cross-validation of every closed form against its numerical oracle.

Each check scans a parameter grid and records the worst residual.  A check
passes when its worst residual is at most its threshold; a NaN residual
fails it.  Checks marked ``ledgered`` document known defects of the
published closed forms (the printed white-noise surd coefficient, and the
combined-channel form as printed, where the cos(r)-weighted reading is the
one that holds); their residuals are reported but they never fail the run.
Every other check, including the interpreted readings that pass with margin,
gates the run.

Each check's grid is x by the rest of it, an (s, r) plane or the (p, q, r)
block with p+q <= 1, and the check evaluates it in blocks of consecutive x
values: per block one stack of states, one concurrence call, one engine call
and one closed-form call, each for every estimated parameter at once.  A
block holds at most ``BLOCK_CELLS`` cells (one x value's, where that is
more), so the arrays, and the memory they take, stay the same size as the
grid grows; one pass over the whole grid would grow them as n^3.  Sweeps
take the same budget for their calls over stacked series.  Singular
loci are masks: a closed form gives NaN where its float call would raise
``SingularPointError``, and those points are the check's gaps.  The worst
point is the first maximum in the order x, then the slice's axes, then the
parameter, whatever the blocks.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .channels import (
    Channel,
    ModelParams,
    RINDLER_R_MAX,
    accelerated_color,
    accelerated_white,
    accelerated_whitecolor,
    initial_state,
    unruh_second_qubit,
)
from .entanglement import (
    concurrence,
    concurrence_color_closed,
    concurrence_white_closed,
    concurrence_whitecolor_closed,
)
from .fisher import (
    qfi_single_bloch,
    qfi_single_white_closed,
    qfi_two_qubit_spectral_retry,
    qfi_two_white_closed,
    state_family,
)
from .qlinalg import dagger

# Margin around singular loci (vanishing coherence, pure reductions) that the
# QFI grids skip; gaps are reported, never interpolated.
SINGULAR_MARGIN = 1e-6
STATE_TOL = 1e-12
QFI_REL_TOL = 1e-6
DPI_SLACK = 1e-6
# Cells per array pass of a check, and per call of a sweep (``sweep`` reads
# it here, so one constant bounds both).  It bounds the arrays of a block, so
# memory stays flat in the grid size; at grid 11 it halves the time of one
# pass per x value, and larger blocks add memory for little more speed.
BLOCK_CELLS = 512
# The white channel's estimated parameters, in the order of each cell's residuals.
WHITE_QFI_PARAMS = ("p", "x", "r")


@dataclass
class CheckRecord:
    """One verification check: worst residual over a grid vs its threshold."""

    name: str
    grid: str
    max_residual: float
    threshold: float
    passed: bool
    ledgered: bool = False
    notes: str = ""
    worst_point: Optional[tuple[float, ...]] = None

    def line(self) -> str:
        status = "PASS" if self.passed else ("LEDGERED" if self.ledgered else "FAIL")
        where = ""
        if self.worst_point is not None:
            where = " at (" + ", ".join(f"{v:.6g}" for v in self.worst_point) + ")"
        note = f"  [{self.notes}]" if self.notes else ""
        return (
            f"[{status:8s}] {self.name:42s} grid={self.grid:12s} "
            f"max-residual={self.max_residual:.3e}{where} threshold={self.threshold:.1e}{note}"
        )


@dataclass
class VerificationReport:
    """All check records plus the overall verdict."""

    tolerance: float
    grid_n: int
    checks: list[CheckRecord] = field(default_factory=list)

    @property
    def overall_pass(self) -> bool:
        return all(check.passed for check in self.checks if not check.ledgered)

    def render(self) -> str:
        lines = [f"verification: tolerance={self.tolerance:g} grid={self.grid_n}"]
        lines.extend(check.line() for check in self.checks)
        ledgered = sum(1 for c in self.checks if c.ledgered)
        verdict = "PASS" if self.overall_pass else "FAIL"
        lines.append(
            f"overall: {verdict} ({len(self.checks)} checks, {ledgered} ledgered)"
        )
        return "\n".join(lines)


class _Tracker:
    """One check: its identity, and the running maximum of its residual.

    It starts at -inf, so the first point sets it: a check reports its worst
    point and its signed worst value even when no residual is positive.
    ``update`` takes one residual or an array of them, with each coordinate
    as a float or an array broadcasting to the residuals' shape.  Of tied
    maxima the first in C order wins, as in a loop; a NaN residual wins
    outright, so the check fails where it cannot vouch.  ``record`` applies
    the pass rule, the one place it lives.
    """

    def __init__(
        self, name: str, grid: str, threshold: float, ledgered: bool = False, notes: str = ""
    ) -> None:
        self.name, self.grid, self.threshold = name, grid, threshold
        self.ledgered, self.notes = ledgered, notes
        self.max = -math.inf
        self.point: Optional[tuple[float, ...]] = None

    def update(self, residuals, *coords) -> None:
        residuals = np.asarray(residuals, dtype=float)
        if residuals.size == 0 or math.isnan(self.max):
            return
        i = int(np.argmax(residuals))
        worst = float(residuals.flat[i])
        if worst > self.max or math.isnan(worst):
            self.max = worst
            self.point = tuple(
                float(np.broadcast_to(c, residuals.shape).flat[i]) for c in coords
            )

    def record(self) -> CheckRecord:
        return CheckRecord(
            name=self.name,
            grid=self.grid,
            max_residual=self.max,
            threshold=self.threshold,
            passed=self.max <= self.threshold,
            ledgered=self.ledgered,
            notes=self.notes,
            worst_point=self.point,
        )


def _grid(n: int) -> np.ndarray:
    return np.linspace(0.0, 1.0, n)


def _r_grid(n: int) -> np.ndarray:
    return np.linspace(0.0, RINDLER_R_MAX, n)


def _interior(values: np.ndarray) -> np.ndarray:
    return values[1:-1] if len(values) > 2 else values


def _blocks(xs: np.ndarray, *axes: np.ndarray):
    """The grid xs by ``axes``, x-major, as ``meshgrid`` arrays of blocks of
    consecutive x values, each of at most ``BLOCK_CELLS`` cells or one x."""
    step = max(1, BLOCK_CELLS // math.prod(map(len, axes)))
    for start in range(0, len(xs), step):
        yield np.meshgrid(xs[start : start + step], *axes, indexing="ij")


def _whitecolor_blocks(m: int):
    """The (x, p, q, r) points of an m^4 grid with p+q <= 1, by ``_blocks`` of
    x with the (p, q, r) points on the second axis, flat, in loop order."""
    p, q, r = np.meshgrid(_grid(m), _grid(m), _r_grid(m), indexing="ij")
    inside = p + q <= 1.0
    p, q, r = p[inside], q[inside], r[inside]
    for x, i in _blocks(_grid(m), np.arange(p.size)):
        yield x, p[i], q[i], r[i]


def _entry_gap(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Largest entrywise |a - b| of each matrix of two stacks."""
    return np.abs(a - b).max(axis=(-2, -1))


def _check_channel_consistency(report: VerificationReport) -> None:
    n = report.grid_n
    grids = {
        "white": (accelerated_white, Channel.WHITE, ""),
        "color": (accelerated_color, Channel.COLOR, "strength symbol read as the color strength q"),
    }
    for label, (closed, channel, notes) in grids.items():
        route = _Tracker(f"{label}-closed-state-vs-channel", f"{n}^3", STATE_TOL, notes=notes)
        validity = _Tracker(f"{label}-state-validity", f"{n}^3", STATE_TOL)
        for x, s, r in _blocks(_grid(n), _grid(n), _r_grid(n)):
            params = ModelParams(
                x=x,
                p=s if channel is Channel.WHITE else 0.0,
                q=s if channel is Channel.COLOR else 0.0,
                r=r,
                channel=channel,
            )
            direct = closed(x, s, r)
            image = unruh_second_qubit(initial_state(params), r)
            route.update(_entry_gap(direct, image), x, s, r)
            bad = np.maximum(
                np.maximum(
                    _entry_gap(direct, dagger(direct)),
                    np.abs(np.trace(direct, axis1=-2, axis2=-1).real - 1.0),
                ),
                np.maximum(0.0, -np.linalg.eigvalsh(direct).min(axis=-1)),
            )
            validity.update(bad, x, s, r)
        report.checks.extend([route.record(), validity.record()])

    # Combined channel: no printed closed state; check its boundary
    # reductions.  The white edge is q=0; the color edge is p+q=1 (the
    # combined state loses its isotropic component there).
    edges = _Tracker(
        "whitecolor-boundary-reductions", f"2x{n}^3", STATE_TOL, notes="white edge q=0; color edge p+q=1"
    )
    for x, s, r in _blocks(_grid(n), _grid(n), _r_grid(n)):
        white = accelerated_white(x, s, r)
        color = accelerated_color(x, s, r)
        white_edge = _entry_gap(accelerated_whitecolor(x, s, 0.0, r), white)
        color_edge = _entry_gap(accelerated_whitecolor(x, s, 1.0 - s, r), color)
        both = np.stack([white_edge, color_edge], axis=-1)
        edges.update(both, x[..., None], s[..., None], r[..., None])
    report.checks.append(edges.record())

    # Its interior: the builder every engine uses against the channel route.
    m = max(5, n // 2 + 1)
    interior = _Tracker("whitecolor-closed-state-vs-channel", f"{m}^4", STATE_TOL, notes="p+q <= 1")
    for x, p, q, r in _whitecolor_blocks(m):
        params = ModelParams(x=x, p=p, q=q, r=r, channel=Channel.WHITE_COLOR)
        image = unruh_second_qubit(initial_state(params), r)
        interior.update(_entry_gap(accelerated_whitecolor(x, p, q, r), image), x, p, q, r)
    report.checks.append(interior.record())


def _check_concurrence_closed(report: VerificationReport) -> None:
    n, tol = report.grid_n, report.tolerance
    printed_form = functools.partial(concurrence_white_closed, w4_coefficient=4.0)
    corrected = _Tracker(
        "concurrence-white-closed(corrected)", f"{n}^3", tol, notes="final surd coefficient corrected 4 -> 1/2"
    )
    printed = _Tracker("concurrence-white-closed(printed-coef-4)", f"{n}^3+probe", tol, ledgered=True)
    color = _Tracker("concurrence-color-closed", f"{n}^3", tol)
    for x, s, r in _blocks(_grid(n), _grid(n), _r_grid(n)):
        engine_w, engine_c = concurrence(
            np.stack([accelerated_white(x, s, r), accelerated_color(x, s, r)])
        )
        corrected.update(np.abs(concurrence_white_closed(x, s, r) - engine_w), x, s, r)
        printed.update(np.abs(printed_form(x, s, r) - engine_w), x, s, r)
        color.update(np.abs(concurrence_color_closed(x, s, r) - engine_c), x, s, r)
    # Probe the exactly known mixing line where the printed coefficient breaks.
    x_w, p_w = 1.0 / math.sqrt(2.0), 0.9
    werner_residual = abs(
        printed_form(x_w, p_w, 0.0) - concurrence(accelerated_white(x_w, p_w, 0.0))
    )
    printed.update(werner_residual, x_w, p_w, 0.0)
    printed.notes = (
        f"printed coefficient fails; residual {werner_residual:.3f} on the exact mixing line"
    )
    report.checks.extend([corrected.record(), printed.record(), color.record()])


def _check_concurrence_whitecolor(report: VerificationReport) -> None:
    n, tol = max(5, report.grid_n // 2 + 1), report.tolerance
    weighted_form = functools.partial(concurrence_whitecolor_closed, cos_r_weighted=True)
    printed = _Tracker("concurrence-whitecolor-closed(printed)", f"{n}^4", tol, ledgered=True)
    weighted = _Tracker("concurrence-whitecolor-closed(cos-r)", f"{n}^4", tol)
    for x, p, q, r in _whitecolor_blocks(n):
        engine = concurrence(accelerated_whitecolor(x, p, q, r))
        printed.update(np.abs(concurrence_whitecolor_closed(x, p, q, r) - engine), x, p, q, r)
        weighted.update(np.abs(weighted_form(x, p, q, r) - engine), x, p, q, r)
    match = "cos-r-weighted" if weighted.max < printed.max else "printed"
    printed.notes = weighted.notes = (
        f"{match} reading matches the engine "
        f"(printed {printed.max:.2e}, cos-r-weighted {weighted.max:.2e})"
    )
    report.checks.extend([printed.record(), weighted.record()])


def _check_qfi_single_closed(report: VerificationReport) -> None:
    n = report.grid_n
    family = state_family(Channel.WHITE, WHITE_QFI_PARAMS, reduced=True)
    tracker = _Tracker("qfi-single-closed-vs-bloch-engine", f"{n}^3x3", QFI_REL_TOL)
    gaps = 0
    for x, p, r in _blocks(_grid(n), _grid(n), _r_grid(n)):
        a = 1.0 - 2.0 * x * x
        sz = (1.0 - a * p) * np.cos(r) ** 2 - 1.0
        mixed = np.abs(sz) < 1.0 - SINGULAR_MARGIN
        gaps += int(np.count_nonzero(~mixed))
        x, p, r = x[mixed], p[mixed], r[mixed]
        engine = qfi_single_bloch(family, (p, x, r)).value
        closed = qfi_single_white_closed(WHITE_QFI_PARAMS, x, p, r).value
        residuals = np.abs(closed - engine) / np.maximum(np.abs(closed), 1e-12)
        tracker.update(residuals.T, x[:, None], p[:, None], r[:, None])
    tracker.notes = f"{gaps} pure-reduction grid points skipped" if gaps else ""
    report.checks.append(tracker.record())


def _check_qfi_two_closed(report: VerificationReport) -> None:
    n = report.grid_n
    interior = _interior(_grid(n))
    family = state_family(Channel.WHITE, WHITE_QFI_PARAMS)
    tracker = _Tracker("qfi-two-closed-vs-spectral-engine", f"int({n})^3x3", QFI_REL_TOL)
    gaps = 0
    for x, p, r in _blocks(interior, interior, _r_grid(n)):
        coherent = p * x * np.sqrt(1.0 - x * x) > SINGULAR_MARGIN
        gaps += int(np.count_nonzero(~coherent))
        x, p, r = x[coherent], p[coherent], r[coherent]
        closed = qfi_two_white_closed(WHITE_QFI_PARAMS, x, p, r).value
        singular = np.isnan(closed)
        gaps += int(np.count_nonzero(singular))
        engine = qfi_two_qubit_spectral_retry(family, (p, x, r)).value
        scale = np.maximum(np.maximum(np.abs(closed), np.abs(engine)), 1e-9)
        residuals = np.where(singular, -math.inf, np.abs(closed - engine) / scale)
        tracker.update(residuals.T, x[:, None], p[:, None], r[:, None])
    tracker.notes = (
        "primes read as partial derivatives; pair eigenvalues read as the "
        f"coherent block pair; {gaps} singular points skipped"
    )
    report.checks.append(tracker.record())


def _check_data_processing(report: VerificationReport) -> None:
    n = report.grid_n
    interior = _interior(_grid(n))
    worst = _Tracker("qfi-data-processing-inequality", f"2 ch x int({n})^2 x {n} x 3", DPI_SLACK)
    count = 0
    for channel in (Channel.WHITE, Channel.COLOR):
        params = ("p" if channel is Channel.WHITE else "q", "x", "r")
        full = state_family(channel, params)
        reduced = state_family(channel, params, reduced=True)
        for x, s, r in _blocks(interior, interior, _r_grid(n)):
            two = qfi_two_qubit_spectral_retry(full, (s, x, r)).value
            single = qfi_single_bloch(reduced, (s, x, r)).value
            count += single.size
            worst.update(np.moveaxis(single - two, 0, -1), x[..., None], s[..., None], r[..., None])
    worst.notes = f"{count} comparisons"
    report.checks.append(worst.record())


def run_verification(tolerance: float = 1e-8, grid_n: int = 21) -> VerificationReport:
    """Run the full cross-validation suite and return its report."""
    if not (math.isfinite(tolerance) and tolerance > 0.0):
        raise ValueError("tolerance must be positive")
    if grid_n < 5:
        raise ValueError("grid_n must be at least 5")
    report = VerificationReport(tolerance=tolerance, grid_n=grid_n)
    _check_channel_consistency(report)
    _check_concurrence_closed(report)
    _check_concurrence_whitecolor(report)
    _check_qfi_single_closed(report)
    _check_qfi_two_closed(report)
    _check_data_processing(report)
    return report
