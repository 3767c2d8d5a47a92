"""Cross-validation of every closed form against its numerical oracle.

Each check scans a parameter grid and records the worst residual.  Checks
marked ``ledgered`` document known defects of the published closed forms
(the printed white-noise surd coefficient, and the combined-channel form as
printed, where the cos(r)-weighted reading is the one that holds); their
residuals are reported but they never fail the run.  Every other check,
including the interpreted readings that pass with margin, gates the run.

Each check loops over x and evaluates the rest of its grid, an (s, r) plane
or the (p, q, r) block with p+q <= 1, as one array: one stack of states, one
concurrence call, one engine call and one closed-form call per estimated
parameter.  Slicing by x keeps the arrays, and the memory they take, at the
size of one plane.  Singular loci are masks: a closed form gives NaN where
its float call would raise ``SingularPointError``, and those points are the
check's gaps.  The worst point is the first maximum in the loop order x,
then the slice's axes, then the parameter.
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
    """Running maximum of a residual and where it happened.

    It starts at -inf, so the first point sets it: a check reports its worst
    point and its signed worst value even when no residual is positive.
    ``update`` takes one residual or an array of them, with each coordinate
    as a float or an array broadcasting to the residuals' shape.  Of tied
    maxima the first in C order wins, as in a loop; a NaN residual wins
    outright, so the check fails where it cannot vouch.
    """

    def __init__(self) -> None:
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


def _grid(n: int, low: float = 0.0, high: float = 1.0) -> np.ndarray:
    return np.linspace(low, high, n)


def _interior(values: np.ndarray) -> np.ndarray:
    return values[1:-1] if len(values) > 2 else values


def _plane(strengths: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The (strength, r) plane of one x slice, strength on the first axis."""
    return np.meshgrid(strengths, _grid(n, 0.0, RINDLER_R_MAX), indexing="ij")


def _whitecolor_block(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (p, q, r) points of an m^3 grid with p+q <= 1, flat, in loop order."""
    p, q, r = np.meshgrid(_grid(m), _grid(m), _grid(m, 0.0, RINDLER_R_MAX), indexing="ij")
    inside = p + q <= 1.0
    return p[inside], q[inside], r[inside]


def _entry_gap(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Largest entrywise |a - b| of each matrix of two stacks."""
    return np.abs(a - b).max(axis=(-2, -1))


def _check_channel_consistency(report: VerificationReport) -> None:
    n = report.grid_n
    s, r = _plane(_grid(n), n)
    grids = {
        "white": (accelerated_white, Channel.WHITE),
        "color": (accelerated_color, Channel.COLOR),
    }
    for label, (closed, channel) in grids.items():
        tracker = _Tracker()
        validity = _Tracker()
        for x in _grid(n):
            params = ModelParams(
                x=x,
                p=s if channel is Channel.WHITE else 0.0,
                q=s if channel is Channel.COLOR else 0.0,
                r=r,
                channel=channel,
            )
            direct = closed(x, s, r)
            image = unruh_second_qubit(initial_state(params), r)
            tracker.update(_entry_gap(direct, image), x, s, r)
            bad = np.maximum(
                np.maximum(
                    _entry_gap(direct, dagger(direct)),
                    np.abs(np.trace(direct, axis1=-2, axis2=-1).real - 1.0),
                ),
                np.maximum(0.0, -np.linalg.eigvalsh(direct).min(axis=-1)),
            )
            validity.update(bad, x, s, r)
        report.checks.append(
            CheckRecord(
                name=f"{label}-closed-state-vs-channel",
                grid=f"{n}^3",
                max_residual=tracker.max,
                threshold=STATE_TOL,
                passed=tracker.max <= STATE_TOL,
                worst_point=tracker.point,
                notes=(
                    "strength symbol read as the color strength q"
                    if label == "color"
                    else ""
                ),
            )
        )
        report.checks.append(
            CheckRecord(
                name=f"{label}-state-validity",
                grid=f"{n}^3",
                max_residual=validity.max,
                threshold=STATE_TOL,
                passed=validity.max <= STATE_TOL,
                worst_point=validity.point,
            )
        )

    # Combined channel: no printed closed state; check its boundary
    # reductions.  The white edge is q=0; the color edge is p+q=1 (the
    # combined state loses its isotropic component there).
    tracker = _Tracker()
    for x in _grid(n):
        white = accelerated_white(x, s, r)
        color = accelerated_color(x, s, r)
        white_edge = _entry_gap(accelerated_whitecolor(x, s, 0.0, r), white)
        color_edge = _entry_gap(accelerated_whitecolor(x, s, 1.0 - s, r), color)
        tracker.update(np.stack([white_edge, color_edge], axis=-1), x, s[..., None], r[..., None])
    report.checks.append(
        CheckRecord(
            name="whitecolor-boundary-reductions",
            grid=f"2x{n}^3",
            max_residual=tracker.max,
            threshold=STATE_TOL,
            passed=tracker.max <= STATE_TOL,
            worst_point=tracker.point,
            notes="white edge q=0; color edge p+q=1",
        )
    )

    # Its interior: the builder every engine uses against the channel route.
    m = max(5, n // 2 + 1)
    p, q, r = _whitecolor_block(m)
    tracker = _Tracker()
    for x in _grid(m):
        params = ModelParams(x=x, p=p, q=q, r=r, channel=Channel.WHITE_COLOR)
        image = unruh_second_qubit(initial_state(params), r)
        tracker.update(_entry_gap(accelerated_whitecolor(x, p, q, r), image), x, p, q, r)
    report.checks.append(
        CheckRecord(
            name="whitecolor-closed-state-vs-channel",
            grid=f"{m}^4",
            max_residual=tracker.max,
            threshold=STATE_TOL,
            passed=tracker.max <= STATE_TOL,
            worst_point=tracker.point,
            notes="p+q <= 1",
        )
    )


def _check_concurrence_closed(report: VerificationReport) -> None:
    n, tol = report.grid_n, report.tolerance
    s, r = _plane(_grid(n), n)
    printed_form = functools.partial(concurrence_white_closed, w4_coefficient=4.0)
    corrected = _Tracker()
    printed = _Tracker()
    color = _Tracker()
    for x in _grid(n):
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

    report.checks.append(
        CheckRecord(
            name="concurrence-white-closed(corrected)",
            grid=f"{n}^3",
            max_residual=corrected.max,
            threshold=tol,
            passed=corrected.max <= tol,
            worst_point=corrected.point,
            notes="final surd coefficient corrected 4 -> 1/2",
        )
    )
    report.checks.append(
        CheckRecord(
            name="concurrence-white-closed(printed-coef-4)",
            grid=f"{n}^3+probe",
            max_residual=printed.max,
            threshold=tol,
            passed=printed.max <= tol,
            ledgered=True,
            worst_point=printed.point,
            notes=f"printed coefficient fails; residual {werner_residual:.3f} on the exact mixing line",
        )
    )
    report.checks.append(
        CheckRecord(
            name="concurrence-color-closed",
            grid=f"{n}^3",
            max_residual=color.max,
            threshold=tol,
            passed=color.max <= tol,
            worst_point=color.point,
        )
    )


def _check_concurrence_whitecolor(report: VerificationReport) -> None:
    n = max(5, report.grid_n // 2 + 1)
    p, q, r = _whitecolor_block(n)
    weighted_form = functools.partial(concurrence_whitecolor_closed, cos_r_weighted=True)
    printed = _Tracker()
    weighted = _Tracker()
    for x in _grid(n):
        engine = concurrence(accelerated_whitecolor(x, p, q, r))
        printed.update(np.abs(concurrence_whitecolor_closed(x, p, q, r) - engine), x, p, q, r)
        weighted.update(np.abs(weighted_form(x, p, q, r) - engine), x, p, q, r)
    match = "cos-r-weighted" if weighted.max < printed.max else "printed"
    verdict = (
        f"{match} reading matches the engine "
        f"(printed {printed.max:.2e}, cos-r-weighted {weighted.max:.2e})"
    )
    report.checks.append(
        CheckRecord(
            name="concurrence-whitecolor-closed(printed)",
            grid=f"{n}^4",
            max_residual=printed.max,
            threshold=report.tolerance,
            passed=printed.max <= report.tolerance,
            ledgered=True,
            worst_point=printed.point,
            notes=verdict,
        )
    )
    report.checks.append(
        CheckRecord(
            name="concurrence-whitecolor-closed(cos-r)",
            grid=f"{n}^4",
            max_residual=weighted.max,
            threshold=report.tolerance,
            passed=weighted.max <= report.tolerance,
            worst_point=weighted.point,
            notes=verdict,
        )
    )


def _check_qfi_single_closed(report: VerificationReport) -> None:
    n = report.grid_n
    p_plane, r_plane = _plane(_grid(n), n)
    tracker = _Tracker()
    gaps = 0
    for x in _grid(n):
        a = 1.0 - 2.0 * x * x
        sz = (1.0 - a * p_plane) * np.cos(r_plane) ** 2 - 1.0
        mixed = np.abs(sz) < 1.0 - SINGULAR_MARGIN
        gaps += int(np.count_nonzero(~mixed))
        p, r = p_plane[mixed], r_plane[mixed]
        residuals = []
        for param, theta in (("p", p), ("x", np.full(p.shape, x)), ("r", r)):
            family = state_family(Channel.WHITE, param, x=x, p=p, r=r, reduced=True)
            engine = qfi_single_bloch(family, theta).value
            closed = qfi_single_white_closed(param, x, p, r).value
            residuals.append(np.abs(closed - engine) / np.maximum(np.abs(closed), 1e-12))
        tracker.update(np.stack(residuals, axis=-1), x, p[:, None], r[:, None])
    report.checks.append(
        CheckRecord(
            name="qfi-single-closed-vs-bloch-engine",
            grid=f"{n}^3x3",
            max_residual=tracker.max,
            threshold=QFI_REL_TOL,
            passed=tracker.max <= QFI_REL_TOL,
            worst_point=tracker.point,
            notes=f"{gaps} pure-reduction grid points skipped" if gaps else "",
        )
    )


def _check_qfi_two_closed(report: VerificationReport) -> None:
    n = report.grid_n
    p_plane, r_plane = _plane(_interior(_grid(n)), n)
    tracker = _Tracker()
    gaps = 0
    for x in _interior(_grid(n)):
        coherent = p_plane * x * math.sqrt(1.0 - x * x) > SINGULAR_MARGIN
        gaps += int(np.count_nonzero(~coherent))
        p, r = p_plane[coherent], r_plane[coherent]
        residuals = []
        for param, theta in (("p", p), ("x", np.full(p.shape, x)), ("r", r)):
            closed = qfi_two_white_closed(param, x, p, r).value
            singular = np.isnan(closed)
            gaps += int(np.count_nonzero(singular))
            family = state_family(Channel.WHITE, param, x=x, p=p, r=r)
            engine = qfi_two_qubit_spectral_retry(family, theta).value
            scale = np.maximum(np.maximum(np.abs(closed), np.abs(engine)), 1e-9)
            rel = np.abs(closed - engine) / scale
            residuals.append(np.where(singular, -math.inf, rel))
        tracker.update(np.stack(residuals, axis=-1), x, p[:, None], r[:, None])
    report.checks.append(
        CheckRecord(
            name="qfi-two-closed-vs-spectral-engine",
            grid=f"int({n})^3x3",
            max_residual=tracker.max,
            threshold=QFI_REL_TOL,
            passed=tracker.max <= QFI_REL_TOL,
            worst_point=tracker.point,
            notes=(
                "primes read as partial derivatives; pair eigenvalues read as the "
                f"coherent block pair; {gaps} singular points skipped"
            ),
        )
    )


def _check_data_processing(report: VerificationReport) -> None:
    n = report.grid_n
    s, r = _plane(_interior(_grid(n)), n)
    worst = _Tracker()
    count = 0
    for channel in (Channel.WHITE, Channel.COLOR):
        strength_name = "p" if channel is Channel.WHITE else "q"
        for x in _interior(_grid(n)):
            point = {"x": np.full(s.shape, x), strength_name: s, "r": r}
            residuals = []
            for param in (strength_name, "x", "r"):
                others = {k: v for k, v in point.items() if k != param}
                full = state_family(channel, param, **others)
                reduced = state_family(channel, param, reduced=True, **others)
                two = qfi_two_qubit_spectral_retry(full, point[param]).value
                single = qfi_single_bloch(reduced, point[param]).value
                residuals.append(single - two)
            count += 3 * s.size
            worst.update(np.stack(residuals, axis=-1), x, s[..., None], r[..., None])
    report.checks.append(
        CheckRecord(
            name="qfi-data-processing-inequality",
            grid=f"2 ch x int({n})^2 x {n} x 3",
            max_residual=worst.max,
            threshold=DPI_SLACK,
            passed=worst.max <= DPI_SLACK,
            worst_point=worst.point,
            notes=f"{count} comparisons",
        )
    )


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
