"""Cross-validation of every closed form against its numerical oracle.

Each check scans a parameter grid and records the worst residual.  A check
passes when its worst residual is at most its threshold; a NaN residual
fails it.  Checks marked ``ledgered`` document known defects of the
published closed forms (the printed white-noise surd coefficient, and the
combined-channel form as printed, where the cos(r)-weighted reading is the
one that holds); their residuals are reported but they never fail the run.
Every other check, including the interpreted readings that pass with margin,
gates the run.

The checks share three grids, and one pass walks each grid once, in blocks
of consecutive x values, feeding every check on it:

* the n^3 cube of (x, s, r), s the white or color strength: per block one
  white and one color state stack, one concurrence call for both, their
  channel routes, the combined builder's boundary reductions, and the
  single-qubit QFI engine and closed form;
* the combined channel's m^4 grid of (x, p, q, r) with p+q <= 1: one state
  stack, its channel route and one concurrence call for both readings of
  the printed form;
* the interior grid, channel by channel: one two-qubit engine call per
  block serves the data-processing inequality and, for white, the two-qubit
  closed form wherever it is defined.

The cube's pass runs on a second thread beside the other two, which run on
the calling thread; numpy releases the interpreter lock in its LAPACK and
ufunc loops, so the passes overlap on two cores.

Each call takes every estimated parameter at once.  A block holds at most
``channels.BLOCK_CELLS`` (4096) cells, or one x value's where that is more:
the budget spreads each block's fixed cost of library calls over many cells
and keeps memory flat in n (about 47 MB at peak at grid 21), where one pass
over the whole grid would grow it as n^3.  Grids past ``GRID_N_MAX`` (64),
whose cube blocks would outgrow the budget, are refused.  Sweeps share the
budget.
Singular loci are masks: a closed form gives NaN where its float call would
raise ``SingularPointError``, and those points are the check's gaps.  The
worst point is the first maximum in the order x, the grid's other axes,
then the parameter, whatever the blocks.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import channels
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

# Margin around the pure reductions that the single-qubit QFI grid skips;
# gaps are reported, never interpolated.  The two-qubit closed form is
# compared wherever it is defined, down to vanishing coherence.
SINGULAR_MARGIN = 1e-6
STATE_TOL = 1e-12
QFI_REL_TOL = 1e-6
DPI_SLACK = 1e-6
# The largest grid whose cube blocks keep to ``channels.BLOCK_CELLS``: past
# it every block is one x value's n^2 cells, and memory grows as n^2.
GRID_N_MAX = math.isqrt(channels.BLOCK_CELLS)
# The white channel's estimated parameters, in the order of each cell's residuals.
WHITE_QFI_PARAMS = ("p", "x", "r")


@dataclass
class CheckRecord:
    """One verification check: its identity, and the worst residual over its
    grid against its threshold.

    ``max_residual`` starts at -inf, so the first point sets it: a check
    reports its worst point and its signed worst value even when no residual
    is positive.  ``update`` takes one residual or an array of them, with
    each coordinate as a float or an array broadcasting to the residuals'
    shape.  Of tied maxima the first in C order wins, as in a loop; a NaN
    residual wins outright, so the check fails where it cannot vouch.
    ``passed`` is the pass rule, the one place it lives.
    """

    name: str
    grid: str
    threshold: float
    ledgered: bool = False
    notes: str = ""
    max_residual: float = -math.inf
    worst_point: Optional[tuple[float, ...]] = None

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.threshold

    def update(self, residuals, *coords) -> None:
        residuals = np.asarray(residuals, dtype=float)
        if residuals.size == 0 or math.isnan(self.max_residual):
            return
        i = int(np.argmax(residuals))
        worst = float(residuals.flat[i])
        if worst > self.max_residual or math.isnan(worst):
            self.max_residual = worst
            self.worst_point = tuple(
                float(np.broadcast_to(c, residuals.shape).flat[i]) for c in coords
            )

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


def _grid(n: int) -> np.ndarray:
    return np.linspace(0.0, 1.0, n)


def _r_grid(n: int) -> np.ndarray:
    return np.linspace(0.0, RINDLER_R_MAX, n)


def _blocks(xs: np.ndarray, *axes: np.ndarray):
    """The grid xs by ``axes``, x-major, as ``meshgrid`` arrays of blocks of
    consecutive x values, each of at most ``channels.BLOCK_CELLS`` cells or one x."""
    step = max(1, channels.BLOCK_CELLS // math.prod(map(len, axes)))
    for start in range(0, len(xs), step):
        yield np.meshgrid(xs[start : start + step], *axes, indexing="ij")


def _entry_gap(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Largest entrywise |a - b| of each matrix of two stacks."""
    return np.abs(a - b).max(axis=(-2, -1))


def _check_cube(n: int, tol: float):
    """The checks on the n^3 cube of (x, s, r), s the white or color
    strength: each state's route and validity, the combined builder's
    boundary reductions, the white and color concurrence forms, and the
    single-qubit closed QFI with p = s."""
    grid = f"{n}^3"
    notes = {Channel.WHITE: "", Channel.COLOR: "strength symbol read as the color strength q"}
    states = {
        channel: (
            CheckRecord(f"{channel.value}-closed-state-vs-channel", grid, STATE_TOL, notes=note),
            CheckRecord(f"{channel.value}-state-validity", grid, STATE_TOL),
        )
        for channel, note in notes.items()
    }
    # The combined channel has no printed closed state; its boundary
    # reductions are the white edge q=0 and the color edge p+q=1, where it
    # loses its isotropic component.
    edges = CheckRecord(
        "whitecolor-boundary-reductions", f"2x{n}^3", STATE_TOL, notes="white edge q=0; color edge p+q=1"
    )
    printed_form = functools.partial(concurrence_white_closed, w4_coefficient=4.0)
    corrected = CheckRecord(
        "concurrence-white-closed(corrected)", grid, tol, notes="final surd coefficient corrected 4 -> 1/2"
    )
    printed = CheckRecord("concurrence-white-closed(printed-coef-4)", f"{n}^3+probe", tol, ledgered=True)
    color_closed = CheckRecord("concurrence-color-closed", grid, tol)
    single = CheckRecord("qfi-single-closed-vs-bloch-engine", f"{n}^3x3", QFI_REL_TOL)
    family = state_family(Channel.WHITE, WHITE_QFI_PARAMS, reduced=True)
    gaps = 0
    for x, s, r in _blocks(_grid(n), _grid(n), _r_grid(n)):
        white, color = accelerated_white(x, s, r), accelerated_color(x, s, r)
        for direct, (channel, (route, validity)) in zip((white, color), states.items()):
            strength = {"p": s} if channel is Channel.WHITE else {"q": s}
            params = ModelParams(x=x, r=r, channel=channel, **strength)
            route.update(_entry_gap(direct, unruh_second_qubit(initial_state(params), r)), x, s, r)
            bad = np.maximum(
                np.maximum(
                    _entry_gap(direct, dagger(direct)),
                    np.abs(np.trace(direct, axis1=-2, axis2=-1).real - 1.0),
                ),
                np.maximum(0.0, -np.linalg.eigvalsh(direct).min(axis=-1)),
            )
            validity.update(bad, x, s, r)
        white_edge = _entry_gap(accelerated_whitecolor(x, s, 0.0, r), white)
        color_edge = _entry_gap(accelerated_whitecolor(x, s, 1.0 - s, r), color)
        both = np.stack([white_edge, color_edge], axis=-1)
        edges.update(both, x[..., None], s[..., None], r[..., None])

        engine_w, engine_c = concurrence(np.stack([white, color]))
        corrected.update(np.abs(concurrence_white_closed(x, s, r) - engine_w), x, s, r)
        printed.update(np.abs(printed_form(x, s, r) - engine_w), x, s, r)
        color_closed.update(np.abs(concurrence_color_closed(x, s, r) - engine_c), x, s, r)

        sz = (1.0 - (1.0 - 2.0 * x * x) * s) * np.cos(r) ** 2 - 1.0
        mixed = np.abs(sz) < 1.0 - SINGULAR_MARGIN
        gaps += int(np.count_nonzero(~mixed))
        xm, pm, rm = x[mixed], s[mixed], r[mixed]
        engine = qfi_single_bloch(family, (pm, xm, rm)).value
        closed = qfi_single_white_closed(WHITE_QFI_PARAMS, xm, pm, rm).value
        residuals = np.abs(closed - engine) / np.maximum(np.abs(closed), 1e-12)
        single.update(residuals.T, xm[:, None], pm[:, None], rm[:, None])
    # Probe the exactly known mixing line where the printed coefficient breaks.
    x_w, p_w = 1.0 / math.sqrt(2.0), 0.9
    werner_residual = abs(
        printed_form(x_w, p_w, 0.0) - concurrence(accelerated_white(x_w, p_w, 0.0))
    )
    printed.update(werner_residual, x_w, p_w, 0.0)
    printed.notes = (
        f"printed coefficient fails; residual {werner_residual:.3f} on the exact mixing line"
    )
    single.notes = f"{gaps} pure-reduction grid points skipped" if gaps else ""
    routes = [*states[Channel.WHITE], *states[Channel.COLOR]]
    return routes, edges, [corrected, printed, color_closed], single


def _check_whitecolor(m: int, tol: float):
    """The checks on the combined channel's m^4 grid of (x, p, q, r) with
    p+q <= 1: the builder every engine uses against the channel route, and
    both readings of the printed concurrence form."""
    route = CheckRecord("whitecolor-closed-state-vs-channel", f"{m}^4", STATE_TOL, notes="p+q <= 1")
    weighted_form = functools.partial(concurrence_whitecolor_closed, cos_r_weighted=True)
    printed = CheckRecord("concurrence-whitecolor-closed(printed)", f"{m}^4", tol, ledgered=True)
    weighted = CheckRecord("concurrence-whitecolor-closed(cos-r)", f"{m}^4", tol)
    # The (p, q, r) points with p+q <= 1, flat in loop order, on the blocks' second axis.
    p, q, r = np.meshgrid(_grid(m), _grid(m), _r_grid(m), indexing="ij")
    inside = p + q <= 1.0
    p, q, r = p[inside], q[inside], r[inside]
    for x, i in _blocks(_grid(m), np.arange(p.size)):
        point = x, p[i], q[i], r[i]
        state = accelerated_whitecolor(*point)
        params = ModelParams(*point, channel=Channel.WHITE_COLOR)
        route.update(_entry_gap(state, unruh_second_qubit(initial_state(params), r[i])), *point)
        engine = concurrence(state)
        printed.update(np.abs(concurrence_whitecolor_closed(*point) - engine), *point)
        weighted.update(np.abs(weighted_form(*point) - engine), *point)
    match = "cos-r-weighted" if weighted.max_residual < printed.max_residual else "printed"
    printed.notes = weighted.notes = (
        f"{match} reading matches the engine "
        f"(printed {printed.max_residual:.2e}, cos-r-weighted {weighted.max_residual:.2e})"
    )
    return route, [printed, weighted]


def _check_interior(n: int):
    """The two-qubit QFI checks on the interior grid, channel by channel: per
    block one engine call serves the data-processing inequality and, for
    white, the closed form wherever it is not NaN."""
    interior = _grid(n)[1:-1]
    two_closed = CheckRecord("qfi-two-closed-vs-spectral-engine", f"int({n})^3x3", QFI_REL_TOL)
    dpi = CheckRecord("qfi-data-processing-inequality", f"2 ch x int({n})^2 x {n} x 3", DPI_SLACK)
    gaps = count = 0
    for channel in (Channel.WHITE, Channel.COLOR):
        params = ("p" if channel is Channel.WHITE else "q", "x", "r")
        full = state_family(channel, params)
        reduced = state_family(channel, params, reduced=True)
        for x, s, r in _blocks(interior, interior, _r_grid(n)):
            two = qfi_two_qubit_spectral_retry(full, (s, x, r)).value
            single = qfi_single_bloch(reduced, (s, x, r)).value
            count += single.size
            dpi.update(np.moveaxis(single - two, 0, -1), x[..., None], s[..., None], r[..., None])
            if channel is not Channel.WHITE:
                continue
            closed = qfi_two_white_closed(WHITE_QFI_PARAMS, x, s, r).value
            singular = np.isnan(closed)
            gaps += int(np.count_nonzero(singular))
            scale = np.maximum(np.maximum(np.abs(closed), np.abs(two)), 1e-9)
            residuals = np.where(singular, -math.inf, np.abs(closed - two) / scale)
            two_closed.update(np.moveaxis(residuals, 0, -1), x[..., None], s[..., None], r[..., None])
    two_closed.notes = (
        "primes read as partial derivatives; pair eigenvalues read as the "
        f"coherent block pair; {gaps} singular points skipped"
    )
    dpi.notes = f"{count} comparisons"
    return [two_closed, dpi]


def run_verification(tolerance: float = 1e-8, grid_n: int = 21) -> VerificationReport:
    """Run the full cross-validation suite and return its report."""
    if not (math.isfinite(tolerance) and tolerance > 0.0):
        raise ValueError("tolerance must be positive")
    if grid_n < 5:
        raise ValueError("grid_n must be at least 5")
    if grid_n > GRID_N_MAX:
        raise ValueError(f"grid_n must be at most {GRID_N_MAX}")
    # The cube pass runs on a worker thread, so the passes must share no
    # state.  The worker's exception is re-raised here and wins over this
    # thread's: the cube pass comes first in the report's order.
    cube = {}

    def run_cube() -> None:
        try:
            cube["records"] = _check_cube(grid_n, tolerance)
        except BaseException as exc:
            cube["error"] = exc

    worker = threading.Thread(target=run_cube, name="verify-cube")
    worker.start()
    try:
        whitecolor_route, whitecolor_readings = _check_whitecolor(max(5, grid_n // 2 + 1), tolerance)
        interior = _check_interior(grid_n)
    finally:
        worker.join()
        if "error" in cube:
            raise cube.pop("error")
    states, edges, concurrences, single = cube["records"]
    checks = [
        *states, edges, whitecolor_route, *concurrences, *whitecolor_readings, single, *interior,
    ]
    return VerificationReport(tolerance=tolerance, grid_n=grid_n, checks=checks)
