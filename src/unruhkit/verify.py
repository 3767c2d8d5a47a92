"""Cross-validation of every closed form against its numerical oracle.

A check is a ``CheckRecord`` and a residual function of a block's points (a
tuple of arrays of one shape, x first) and of ``shared``, what the block's
pass built there: its states and the engines' values.  The function returns
the residual at each point, in the points' shape or with a leading axis over
the check's parameters; a point it skips, such as a closed form's NaN where
its float call raises ``SingularPointError``, reads -inf, and its record
counts it.  A check passes when its worst residual is at most its
threshold; a NaN residual fails it.  A ``ledgered`` check documents a known
defect of a published closed form (the printed white-noise surd
coefficient, and the combined-channel form as printed, where the
cos(r)-weighted reading holds): it is reported but never fails the run.
Every other check, including the interpreted readings that pass with
margin, gates it.  A new check takes its residual function and its record
in its pass's list, whose name places it in the report (``run_verification``
needs no edit), a row in the README's check table, and entries in the
tests' ``CHECK_IDENTITIES_GRID5`` and ``CHECK_NOTES_GRID5``.

Each of three passes walks its grid once in blocks of consecutive x values,
at most ``channels.BLOCK_CELLS`` cells or one x value's, and builds
``shared`` once per block (``_scan``).  The budget spreads a block's fixed
cost of library calls over many cells and keeps memory flat in n; grids past
``GRID_N_MAX``, whose cube blocks would outgrow it, are refused.  The cube's
pass runs on a second thread beside the other two: numpy releases the
interpreter lock in its LAPACK and ufunc loops, so the passes overlap.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import channels
from .channels import (
    CHANNEL_PARAMS, RINDLER_R_MAX, Channel, ModelParams, accelerated_color, accelerated_white,
    accelerated_whitecolor, initial_state, unruh_second_qubit,
)
from .entanglement import (
    concurrence, concurrence_color_closed, concurrence_white_closed, concurrence_whitecolor_closed,
)
from .fisher import (
    qfi_single_bloch, qfi_single_white_closed, qfi_two_qubit_spectral_retry, qfi_two_white_closed,
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

    ``max_residual`` starts at -inf, so the first finite residual sets it,
    positive or not.  ``update`` takes residuals at points, each coordinate a
    float or an array of the points' shape; a leading axis beyond that shape
    runs over parameters and is read last.  The first maximum in the order x,
    the grid's other axes, parameter wins, whatever the blocks; a NaN wins
    outright, so the check fails where it cannot vouch.  ``skipped`` counts
    the points -inf on every parameter; ``passed`` is the one pass rule.
    """

    name: str
    grid: str
    threshold: float
    ledgered: bool = False
    notes: str = ""
    max_residual: float = -math.inf
    worst_point: tuple[float, ...] | None = None
    skipped: int = 0

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.threshold

    def update(self, residuals, *coords) -> None:
        residuals = np.asarray(residuals, dtype=float)
        if residuals.ndim > max(map(np.ndim, coords)):
            residuals = residuals.max(axis=0)  # a cell's largest, or NaN
        self.skipped += int(np.count_nonzero(residuals == -math.inf))
        if residuals.size == 0 or math.isnan(self.max_residual):
            return
        i = int(np.argmax(residuals))
        worst = float(residuals.flat[i])
        if worst > self.max_residual or math.isnan(worst):
            self.max_residual = worst
            self.worst_point = tuple(float(np.broadcast_to(c, residuals.shape).flat[i]) for c in coords)

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
        lines.append(f"overall: {verdict} ({len(self.checks)} checks, {ledgered} ledgered)")
        return "\n".join(lines)


_grid = partial(np.linspace, 0.0, 1.0)
_r_grid = partial(np.linspace, 0.0, RINDLER_R_MAX)


def _blocks(xs: np.ndarray, *axes: np.ndarray):
    """The grid xs by ``axes``, x-major, as ``meshgrid`` arrays of blocks of
    consecutive x values, each of at most ``channels.BLOCK_CELLS`` cells or one x."""
    step = max(1, channels.BLOCK_CELLS // math.prod(map(len, axes)))
    for start in range(0, len(xs), step):
        yield np.meshgrid(xs[start : start + step], *axes, indexing="ij")


def _scan(checks, blocks, build) -> None:
    """Per block of points, ``build(*points)`` once, then update each (record, residual) of ``checks``."""
    for points in blocks:
        shared = build(*points)
        for record, residual in checks:
            record.update(residual(points, shared), *points)
        del shared  # else this block's arrays live through the next block's build


def _entry_gap(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Largest entrywise |a - b| of each matrix of two stacks."""
    return np.abs(a - b).max(axis=(-2, -1))


def _cube_shared(x, s, r) -> dict:
    """White and color states, their concurrences, and the white reduction's Bloch QFI."""
    white, color = accelerated_white(x, s, r), accelerated_color(x, s, r)
    # One engine call per channel: a call on both stacked holds twice the temporaries.
    engine_w, engine_c = concurrence(white), concurrence(color)
    single = qfi_single_bloch(state_family(Channel.WHITE, WHITE_QFI_PARAMS, reduced=True), (s, x, r)).value
    return {"white": white, "color": color, "C-white": engine_w, "C-color": engine_c, "single": single}


def _whitecolor_shared(x, p, q, r) -> dict:
    """The combined channel's states and their concurrences."""
    state = accelerated_whitecolor(x, p, q, r)
    return {"whitecolor": state, "C-whitecolor": concurrence(state)}


def _interior_shared(channel: Channel, x, s, r) -> dict:
    """Both QFI engines' values of ``channel`` at (x, s, r), s its strength."""
    params = ("p" if channel is Channel.WHITE else "q", "x", "r")
    two = qfi_two_qubit_spectral_retry(state_family(channel, params), (s, x, r)).value
    single = qfi_single_bloch(state_family(channel, params, reduced=True), (s, x, r)).value
    return {"two": two, "single": single}


def _route(channel: Channel, points, shared):
    """The built states against the channel route from the initial state."""
    params = ModelParams(**dict(zip(CHANNEL_PARAMS[channel], points)), channel=channel)
    return _entry_gap(shared[channel.value], unruh_second_qubit(initial_state(params), points[-1]))


def _validity(channel: Channel, points, shared):
    """Each built state's Hermitian defect, trace error or negative eigenvalue."""
    state = shared[channel.value]
    trace_error = np.abs(np.trace(state, axis1=-2, axis2=-1).real - 1.0)
    defect = np.maximum(_entry_gap(state, dagger(state)), trace_error)
    return np.maximum(defect, np.maximum(0.0, -np.linalg.eigvalsh(state).min(axis=-1)))


def _edges(points, shared):
    """The combined builder on its white edge q=0 and color edge p+q=1."""
    x, s, r = points
    white_edge = _entry_gap(accelerated_whitecolor(x, s, 0.0, r), shared["white"])
    color_edge = _entry_gap(accelerated_whitecolor(x, s, 1.0 - s, r), shared["color"])
    return np.stack([white_edge, color_edge])


def _concurrence_gap(closed, key: str, points, shared):
    """A closed concurrence form at the points against the engine's ``shared[key]``."""
    return np.abs(closed(*points) - shared[key])


def _single_qfi(points, shared):
    """The closed single-qubit QFI against the Bloch engine, relative; -inf
    within ``SINGULAR_MARGIN`` of a pure reduction."""
    x, p, r = points
    closed = qfi_single_white_closed(WHITE_QFI_PARAMS, x, p, r).value
    relative = np.abs(closed - shared["single"]) / np.maximum(np.abs(closed), 1e-12)
    sz = (1.0 - (1.0 - 2.0 * x * x) * p) * np.cos(r) ** 2 - 1.0
    return np.where(np.abs(sz) < 1.0 - SINGULAR_MARGIN, relative, -math.inf)


def _two_qfi(points, shared):
    """The closed two-qubit QFI against the SLD engine, relative; -inf where
    the closed form is NaN."""
    x, p, r = points
    closed = qfi_two_white_closed(WHITE_QFI_PARAMS, x, p, r).value
    scale = np.maximum(np.maximum(np.abs(closed), np.abs(shared["two"])), 1e-9)
    return np.where(np.isnan(closed), -math.inf, np.abs(closed - shared["two"]) / scale)


def _check_cube(n: int, tol: float) -> list[CheckRecord]:
    """The checks on the n^3 cube of (x, s, r), s the white or color strength:
    each state's route and validity, the combined builder's boundary
    reductions, both concurrence forms, and the single-qubit QFI, p = s."""
    grid = f"{n}^3"
    color_note = "strength symbol read as the color strength q"
    color_route = CheckRecord("color-closed-state-vs-channel", grid, STATE_TOL, notes=color_note)
    # The combined channel has no printed closed state; its boundary
    # reductions are the white edge q=0 and the color edge p+q=1, where it
    # loses its isotropic component.
    edges = CheckRecord(
        "whitecolor-boundary-reductions", f"2x{n}^3", STATE_TOL, notes="white edge q=0; color edge p+q=1"
    )
    corrected = CheckRecord(
        "concurrence-white-closed(corrected)", grid, tol, notes="final surd coefficient corrected 4 -> 1/2"
    )
    printed = CheckRecord("concurrence-white-closed(printed-coef-4)", f"{n}^3+probe", tol, ledgered=True)
    printed_gap = partial(_concurrence_gap, partial(concurrence_white_closed, w4_coefficient=4.0), "C-white")
    color_closed = CheckRecord("concurrence-color-closed", grid, tol)
    single = CheckRecord("qfi-single-closed-vs-bloch-engine", f"{n}^3x3", QFI_REL_TOL)
    checks = [
        (CheckRecord("white-closed-state-vs-channel", grid, STATE_TOL), partial(_route, Channel.WHITE)),
        (CheckRecord("white-state-validity", grid, STATE_TOL), partial(_validity, Channel.WHITE)),
        (color_route, partial(_route, Channel.COLOR)),
        (CheckRecord("color-state-validity", grid, STATE_TOL), partial(_validity, Channel.COLOR)),
        (edges, _edges),
        (corrected, partial(_concurrence_gap, concurrence_white_closed, "C-white")),
        (printed, printed_gap),
        (color_closed, partial(_concurrence_gap, concurrence_color_closed, "C-color")),
        (single, _single_qfi),
    ]
    _scan(checks, _blocks(_grid(n), _grid(n), _r_grid(n)), _cube_shared)
    # Probe the exactly known mixing line where the printed coefficient breaks.
    probe = (1.0 / math.sqrt(2.0), 0.9, 0.0)
    werner_residual = printed_gap(probe, {"C-white": concurrence(accelerated_white(*probe))})
    printed.update(werner_residual, *probe)
    printed.notes = f"printed coefficient fails; residual {werner_residual:.3f} on the exact mixing line"
    single.notes = f"{single.skipped} pure-reduction grid points skipped" if single.skipped else ""
    return [record for record, _ in checks]


def _check_whitecolor(m: int, tol: float) -> list[CheckRecord]:
    """The combined channel's m^4 grid of (x, p, q, r), p+q <= 1: the builder
    every engine uses against the route, and both readings of the printed form."""
    route = CheckRecord("whitecolor-closed-state-vs-channel", f"{m}^4", STATE_TOL, notes="p+q <= 1")
    weighted_form = partial(concurrence_whitecolor_closed, cos_r_weighted=True)
    printed = CheckRecord("concurrence-whitecolor-closed(printed)", f"{m}^4", tol, ledgered=True)
    weighted = CheckRecord("concurrence-whitecolor-closed(cos-r)", f"{m}^4", tol)
    checks = [
        (route, partial(_route, Channel.WHITE_COLOR)),
        (printed, partial(_concurrence_gap, concurrence_whitecolor_closed, "C-whitecolor")),
        (weighted, partial(_concurrence_gap, weighted_form, "C-whitecolor")),
    ]
    # The (p, q, r) points with p+q <= 1, flat in loop order, on the blocks' second axis.
    p, q, r = np.meshgrid(_grid(m), _grid(m), _r_grid(m), indexing="ij")
    inside = p + q <= 1.0
    p, q, r = p[inside], q[inside], r[inside]
    blocks = ((x, p[i], q[i], r[i]) for x, i in _blocks(_grid(m), np.arange(p.size)))
    _scan(checks, blocks, _whitecolor_shared)
    match = "cos-r-weighted" if weighted.max_residual < printed.max_residual else "printed"
    printed.notes = weighted.notes = (
        f"{match} reading matches the engine "
        f"(printed {printed.max_residual:.2e}, cos-r-weighted {weighted.max_residual:.2e})"
    )
    return [record for record, _ in checks]


def _check_interior(n: int) -> list[CheckRecord]:
    """The two-qubit QFI checks on the interior grid, channel by channel: the
    data-processing inequality and, for white, the closed form."""
    interior = _grid(n)[1:-1]
    two_closed = CheckRecord("qfi-two-closed-vs-spectral-engine", f"int({n})^3x3", QFI_REL_TOL)
    dpi = CheckRecord("qfi-data-processing-inequality", f"2 ch x int({n})^2 x {n} x 3", DPI_SLACK)
    dpi_check = (dpi, lambda points, shared: shared["single"] - shared["two"])
    checks = [(two_closed, _two_qfi), dpi_check]  # the color pass reuses the DPI entry
    _scan(checks, _blocks(interior, interior, _r_grid(n)), partial(_interior_shared, Channel.WHITE))
    _scan([dpi_check], _blocks(interior, interior, _r_grid(n)), partial(_interior_shared, Channel.COLOR))
    two_closed.notes = (
        "primes read as partial derivatives; pair eigenvalues read as the "
        f"coherent block pair; {two_closed.skipped} singular points skipped"
    )
    dpi.notes = f"{2 * len(WHITE_QFI_PARAMS) * len(interior) ** 2 * n} comparisons"
    return [record for record, _ in checks]


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
    # thread's: the cube pass comes first in pass order.
    cube = {}

    def run_cube() -> None:
        try:
            cube["records"] = _check_cube(grid_n, tolerance)
        except BaseException as exc:
            cube["error"] = exc

    worker = threading.Thread(target=run_cube, name="verify-cube")
    worker.start()
    try:
        whitecolor = _check_whitecolor(max(5, grid_n // 2 + 1), tolerance)
        interior = _check_interior(grid_n)
    finally:
        worker.join()
        if "error" in cube:
            raise cube.pop("error")
    # Report order, by the family each name starts with: the state checks, then
    # concurrence-*, then qfi-*; the stable sort keeps pass order, then list order.
    family = {"concurrence": 1, "qfi": 2}
    checks = sorted([*cube["records"], *whitecolor, *interior], key=lambda c: family.get(c.name.split("-")[0], 0))
    return VerificationReport(tolerance=tolerance, grid_n=grid_n, checks=checks)
