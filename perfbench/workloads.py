"""The three benchmark workloads, their seeded inputs and correctness gates.

* ``figures``: one operation regenerates all 26 figure presets through
  ``run_sweep`` and ``render_csv_body``; the seed only shuffles the preset
  order.  Every cell is gated against the reference bodies taken at the
  commit that defined the benchmark.
* ``verify``: one operation is ``run_verification`` at the default tolerance
  on a ``VERIFY_GRID`` grid; every check that passed in the reference run
  must still pass.
* ``sweep-small``: one operation is one in-process ``unruhkit sweep`` call
  on a generated spec of 2 to 6 rows, written to a CSV file.  The run cycles
  through a seeded pool of ``POOL_SIZE`` specs, so every spec is timed many
  times over the run and its fastest time can be taken.

Each workload splits its operations into parts (a preset, the verify run, a
pool spec); ``parts`` returns the time of each part of the latest operation.

Thresholds are the ``verify`` ones: 1e-8 absolute for concurrence and 1e-6
relative for QFI.
"""

from __future__ import annotations

import json
import math
import random
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from unruhkit import cli, sweep, verify

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
VERIFY_GRID = 11
POOL_SIZE = 400
CONCURRENCE_ABS_TOL = 1e-8
QFI_REL_TOL = verify.QFI_REL_TOL
# Absolute floor under the relative QFI tolerance, far below any printed
# nonzero QFI value, so cells that round to zero do not divide by zero.
QFI_ABS_FLOOR = 1e-12
GRID_ABS_TOL = 1e-12


@dataclass
class OpResult:
    """What the gate saw in one operation's output."""

    cells: int
    empty_cells: int = 0
    failures: int = 0
    detail: str = ""


def _parse_cell(text: str) -> Optional[float]:
    return float(text) if text else None


def _cell_close(column: str, ref: float, new: float) -> bool:
    if column.startswith("concurrence"):
        return abs(new - ref) <= CONCURRENCE_ABS_TOL
    return abs(new - ref) <= QFI_REL_TOL * max(abs(ref), abs(new)) + QFI_ABS_FLOOR


def _same_grid(row: list[Optional[float]], value: Optional[float], width: int) -> bool:
    return (
        len(row) == width
        and row[0] is not None
        and value is not None
        and abs(row[0] - value) <= GRID_ABS_TOL
    )


def compare_body(reference: str, body: str) -> OpResult:
    """Gate one CSV body (header plus rows) against its reference body.

    A cell that became empty is counted in ``empty_cells``, not as a failure;
    a changed header or row count, a moved grid value, a cell outside the
    threshold and a number where the reference cell was empty are failures.
    """
    ref_lines = reference.splitlines()
    new_lines = body.splitlines()
    columns = new_lines[0].split(",")
    if ref_lines[0] != new_lines[0] or len(ref_lines) != len(new_lines):
        return OpResult(cells=0, failures=1, detail="header or row count changed")
    result = OpResult(cells=(len(new_lines) - 1) * (len(columns) - 1))
    for ref_line, new_line in zip(ref_lines[1:], new_lines[1:]):
        ref_row = [_parse_cell(cell) for cell in ref_line.split(",")]
        new_row = [_parse_cell(cell) for cell in new_line.split(",")]
        if not _same_grid(new_row, ref_row[0], len(columns)):
            result.failures += 1
            continue
        for column, ref, new in zip(columns[1:], ref_row[1:], new_row[1:]):
            if new is None:
                result.empty_cells += 1
            elif ref is None or not _cell_close(column, ref, new):
                result.failures += 1
    return result


class Figures:
    """All 26 presets per operation, in a seeded order."""

    def __init__(self, seed: int, reference_dir: Path = REFERENCE_DIR) -> None:
        self.names = sorted(sweep.FIGURE_PRESETS)
        random.Random(seed).shuffle(self.names)
        self.reference = {
            name: (reference_dir / "figures" / f"{name}.csv").read_text(encoding="utf-8")
            for name in self.names
        }

    def op(self) -> list[tuple[str, str, float]]:
        output = []
        for name in self.names:
            start = time.perf_counter()
            body = sweep.render_csv_body(sweep.run_sweep(sweep.FIGURE_PRESETS[name]))
            output.append((name, body, time.perf_counter() - start))
        return output

    def parts(self, output: list[tuple[str, str, float]], seconds: float) -> list[tuple[str, float]]:
        return [(name, part) for name, _, part in output]

    def check(self, output: list[tuple[str, str, float]]) -> OpResult:
        total = OpResult(cells=0)
        for name, body, _ in output:
            one = compare_body(self.reference[name], body)
            total.cells += one.cells
            total.empty_cells += one.empty_cells
            total.failures += one.failures
            if one.failures:
                total.detail += f"{name}: {one.failures} cells moved; "
        return total


class Verify:
    """``run_verification`` at the default tolerance; the seed does not enter."""

    def __init__(self) -> None:
        path = REFERENCE_DIR / f"verify_grid{VERIFY_GRID}.json"
        self.verdicts = json.loads(path.read_text(encoding="utf-8"))["passed"]

    def op(self) -> verify.VerificationReport:
        return verify.run_verification(grid_n=VERIFY_GRID)

    def parts(self, report: verify.VerificationReport, seconds: float) -> list[tuple[str, float]]:
        return [("verify", seconds)]

    def check(self, report: verify.VerificationReport) -> OpResult:
        passed = {check.name: check.passed for check in report.checks}
        lost = [
            name for name, was in self.verdicts.items() if was and not passed.get(name, False)
        ]
        # A verify operation's output is its table of checks.
        return OpResult(cells=len(report.checks), failures=len(lost), detail=", ".join(lost))


# ---------------------------------------------------------------------------
# sweep-small
# ---------------------------------------------------------------------------

_CHANNEL_PARAMS = {"white": ("x", "p", "r"), "color": ("x", "q", "r"), "whitecolor": ("x", "p", "q", "r")}
# Upper end of each parameter's sweep domain, in hundredths (r: caption ceiling 0.8).
_HIGH = {"x": 100, "p": 100, "q": 100, "r": 80}


@dataclass(frozen=True)
class SmallSpec:
    """A generated sweep: its flags and the grid the output must carry."""

    argv: tuple[str, ...]
    channel: str
    quantity: str
    method: str
    qfi_form: str
    grid: tuple[float, ...]
    fixed: tuple[tuple[str, float], ...]
    vary: str


def _hundredths(k: int) -> str:
    return f"{k / 100:g}"


def generate_spec(rng: random.Random) -> SmallSpec:
    """One valid sweep spec: p+q <= 1, closed QFI only on white, r <= 0.8."""
    channel = rng.choice(tuple(_CHANNEL_PARAMS))
    params = _CHANNEL_PARAMS[channel]
    vary = rng.choice(params)
    rows = rng.randint(2, 6)
    high = _HIGH[vary]
    step = rng.randint(1, high // (rows - 1))
    start = rng.randint(0, high - (rows - 1) * step)
    stop = start + (rows - 1) * step

    fixed: dict[str, int] = {}
    for name in params:
        if name == vary:
            continue
        budget = _HIGH[name]
        if channel == "whitecolor" and name in ("p", "q"):
            other = "q" if name == "p" else "p"
            used = stop if other == vary else fixed.get(other, 0)
            budget = 100 - used
        fixed[name] = rng.randint(0, budget)

    quantity = rng.choice(("concurrence",) + tuple(f"qfi-{name}" for name in params))
    if quantity != "concurrence" and channel != "white":
        method = "numeric"
    else:
        method = rng.choice(("numeric", "closed", "both"))
    qfi_form = rng.choice(("single", "two")) if quantity != "concurrence" else "two"

    argv = ["sweep", "--channel", channel, "--vary", vary,
            "--range", f"{_hundredths(start)}:{_hundredths(stop)}:{_hundredths(step)}"]
    for name, value in fixed.items():
        argv += [f"--{name}", _hundredths(value)]
    argv += ["--quantity", quantity, "--method", method]
    if quantity != "concurrence":
        argv += ["--qfi-form", qfi_form]
    return SmallSpec(
        argv=tuple(argv),
        channel=channel,
        quantity=quantity,
        method=method,
        qfi_form=qfi_form,
        grid=tuple((start + i * step) / 100 for i in range(rows)),
        fixed=tuple((name, value / 100) for name, value in fixed.items()),
        vary=vary,
    )


def _closed_comparable(spec: SmallSpec, point: dict[str, float]) -> bool:
    """Whether ``verify`` gates numeric against closed at this point.

    The printed combined-channel concurrence form is ledgered (it fails at
    the reference commit); the QFI checks skip the singular loci that
    ``verify`` skips.
    """
    if spec.quantity == "concurrence":
        return spec.channel != "whitecolor"
    x, p, r = point["x"], point["p"], point["r"]
    if spec.qfi_form == "single":
        sz = (1.0 - (1.0 - 2.0 * x * x) * p) * math.cos(r) ** 2 - 1.0
        return abs(sz) < 1.0 - verify.SINGULAR_MARGIN
    return p * x * math.sqrt(1.0 - x * x) > verify.SINGULAR_MARGIN


def check_small_csv(spec: SmallSpec, text: str) -> OpResult:
    """Gate one generated sweep's CSV file."""
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    variants = ("numeric", "closed") if spec.method == "both" else (spec.method,)
    columns = lines[0].split(",") if lines else []
    if len(lines) != len(spec.grid) + 1 or len(columns) != 1 + len(variants):
        return OpResult(cells=0, failures=1, detail=f"shape {len(lines)}x{len(columns)}")
    result = OpResult(cells=len(spec.grid) * len(variants))
    for line, value in zip(lines[1:], spec.grid):
        row = [_parse_cell(cell) for cell in line.split(",")]
        if not _same_grid(row, value, len(columns)):
            result.failures += 1
            continue
        cells = row[1:]
        bad = False
        for cell in cells:
            if cell is None:
                result.empty_cells += 1
            elif not math.isfinite(cell) or cell < 0.0:
                bad = True
            elif spec.quantity == "concurrence" and cell > 1.0:
                bad = True
        if not bad and len(cells) == 2 and None not in cells:
            point = {"x": 0.0, "p": 0.0, "q": 0.0, "r": 0.0, **dict(spec.fixed), spec.vary: value}
            numeric, closed = cells
            if _closed_comparable(spec, point) and not _cell_close(spec.quantity, closed, numeric):
                bad = True
        result.failures += bad
    return result


class SweepSmall:
    """One short generated sweep per operation through ``cli.main``."""

    def __init__(self, seed: int, out_path: Path) -> None:
        rng = random.Random(seed)
        self.pool = [generate_spec(rng) for _ in range(POOL_SIZE)]
        self.index = 0
        self.out_path = out_path

    def op(self) -> tuple[int, int]:
        """Run the next pool spec; return its pool index and the exit code."""
        index = self.index
        self.index = (index + 1) % POOL_SIZE
        return index, cli.main([*self.pool[index].argv, "--out", str(self.out_path)])

    def parts(self, output: tuple[int, int], seconds: float) -> list[tuple[int, float]]:
        return [(output[0], seconds)]

    def check(self, output: tuple[int, int]) -> OpResult:
        index, exit_code = output
        spec = self.pool[index]
        if exit_code != 0:
            return OpResult(cells=0, failures=1, detail=f"exit {exit_code}: {' '.join(spec.argv)}")
        result = check_small_csv(spec, self.out_path.read_text(encoding="utf-8"))
        if result.failures:
            result.detail = " ".join(spec.argv)
        return result
