"""Declarative parameter sweeps, figure presets and CSV emission.

A sweep varies one model parameter over a fixed-step grid, holds the others
at scalar values (or small value lists, each producing one output series),
and evaluates one quantity per cell: concurrence or the QFI of an estimated
parameter, numerically and/or from the closed forms.  Presets regenerate the
data behind each published figure panel.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .version import __version__ as _version
from .channels import (
    CHANNEL_PARAMS,
    RINDLER_R_MAX,
    Channel,
    ModelParams,
    accelerated_whitecolor,
    combined_strengths,
)
from .entanglement import concurrence, concurrence_closed
from .errors import (
    DomainError,
    FamilyEvalError,
    NegativeRadicandError,
    NotPSDError,
    ParseError,
    SingularPointError,
    UnknownPresetError,
)
from .fisher import (
    COMPLEX_STEP,
    qfi_single_bloch,
    qfi_single_white_closed,
    qfi_two_qubit_spectral_retry,
    qfi_two_white_closed,
    state_family,
)

CSV_DIGITS = 12
# Most grid rows a sweep may have; the figure presets have 101.
MAX_GRID_ROWS = 1_000_000
# Published figures draw acceleration series up to r=0.8, slightly past the
# physical bound pi/4; sweeps accept values up to that ceiling and flag them.
R_CAPTION_MAX = 0.8

_CANONICAL_PARAM_ORDER = ("x", "p", "q", "r")


class Quantity(str, Enum):
    CONCURRENCE = "concurrence"
    QFI_P = "qfi-p"
    QFI_Q = "qfi-q"
    QFI_X = "qfi-x"
    QFI_R = "qfi-r"

    @property
    def estimated_param(self) -> Optional[str]:
        if self is Quantity.CONCURRENCE:
            return None
        return self.value.split("-", 1)[1]


class Method(str, Enum):
    NUMERIC = "numeric"
    CLOSED = "closed"
    BOTH = "both"

    @property
    def variants(self) -> tuple[str, ...]:
        if self is Method.BOTH:
            return ("numeric", "closed")
        return (self.value,)


class QfiForm(str, Enum):
    SINGLE = "single"
    TWO = "two"


@dataclass(frozen=True)
class SweepSpec:
    """A validated grid job: what to vary, what to hold, what to compute."""

    channel: Channel
    vary: str
    start: float
    stop: float
    step: float
    fixed: dict[str, tuple[float, ...]]
    quantity: Quantity
    method: Method = Method.BOTH
    qfi_form: QfiForm = QfiForm.TWO
    r_limit: float = RINDLER_R_MAX
    label: str = "sweep"
    notes: tuple[str, ...] = ()


@dataclass
class SweepTable:
    """Column names, rows (None marks a singular cell), and provenance lines."""

    columns: list[str]
    rows: list[list[Optional[float]]]
    provenance: list[str]
    warnings: dict[str, int] = field(default_factory=dict)


def _row_count(start: float, stop: float, step: float) -> float:
    """floor((stop-start)/step)+1, with a small epsilon against float division
    shortfall; inf if the quotient overflows."""
    quotient = (stop - start) / step + 1e-9
    return math.floor(quotient) + 1 if math.isfinite(quotient) else math.inf


def grid_values(start: float, stop: float, step: float) -> list[float]:
    """The grid start, start+step, ... with ``_row_count`` rows.

    The last value is clamped to ``stop`` so accumulated rounding cannot
    push it out of the parameter's domain.
    """
    return [min(start + i * step, stop) for i in range(_row_count(start, stop, step))]


def _parse_float(token: str, flag: str) -> float:
    try:
        return float(token)
    except ValueError as exc:
        raise ParseError(f"--{flag}: expected a number, got {token!r}") from exc


def _parse_value_list(token: str, flag: str) -> tuple[float, ...]:
    values = tuple(_parse_float(part, flag) for part in token.split(","))
    if not values:
        raise ParseError(f"--{flag}: empty value list")
    return values


_FLAG_GRAMMAR = {
    "channel": "white|color|whitecolor",
    "vary": "p|q|x|r",
    "range": "start:stop:step",
    "x": "scalar or comma-list",
    "p": "scalar or comma-list",
    "q": "scalar or comma-list",
    "r": "scalar or comma-list",
    "quantity": "concurrence|qfi-p|qfi-q|qfi-x|qfi-r",
    "method": "numeric|closed|both",
    "qfi-form": "single|two",
}


def _tokens_to_mapping(argv: Sequence[str]) -> dict[str, str]:
    mapping: dict[str, str] = {}
    i = 0
    while i < len(argv):
        token = argv[i]
        if not token.startswith("--"):
            raise ParseError(f"unexpected token {token!r}; flags look like --name value")
        name = token[2:]
        if name not in _FLAG_GRAMMAR:
            raise ParseError(f"unknown flag --{name}")
        if i + 1 >= len(argv):
            raise ParseError(f"--{name}: missing value ({_FLAG_GRAMMAR[name]})")
        mapping[name] = argv[i + 1]
        i += 2
    return mapping


def _config_to_mapping(text: str) -> dict[str, str]:
    mapping: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParseError(f"config line {lineno}: expected key=value, got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _FLAG_GRAMMAR:
            raise ParseError(f"config line {lineno}: unknown key {key!r}")
        mapping[key] = value
    return mapping


def parse_spec(argv: Sequence[str], config_text: Optional[str] = None) -> SweepSpec:
    """Build a validated SweepSpec from sweep flags and an optional config.

    Command-line flags override config-file values.  ``config_text`` is the
    content of the file named by --config; the CLI reads the file and passes
    the text here so this function stays free of I/O.
    """
    flags = _tokens_to_mapping(argv)
    if config_text is not None:
        merged = _config_to_mapping(config_text)
        merged.update(flags)
        flags = merged

    for required in ("channel", "vary", "range", "quantity"):
        if required not in flags:
            raise ParseError(f"--{required} is required ({_FLAG_GRAMMAR[required]})")

    try:
        channel = Channel(flags["channel"])
    except ValueError as exc:
        raise ParseError(f"--channel: {flags['channel']!r} not in {_FLAG_GRAMMAR['channel']}") from exc
    try:
        quantity = Quantity(flags["quantity"])
    except ValueError as exc:
        raise ParseError(f"--quantity: {flags['quantity']!r} not in {_FLAG_GRAMMAR['quantity']}") from exc
    try:
        method = Method(flags.get("method", "both"))
    except ValueError as exc:
        raise ParseError(f"--method: {flags['method']!r} not in {_FLAG_GRAMMAR['method']}") from exc
    try:
        qfi_form = QfiForm(flags.get("qfi-form", "two"))
    except ValueError as exc:
        raise ParseError(f"--qfi-form: {flags['qfi-form']!r} not in {_FLAG_GRAMMAR['qfi-form']}") from exc

    vary = flags["vary"]
    params = CHANNEL_PARAMS[channel]
    if vary not in params:
        raise ParseError(f"--vary: {vary!r} is not a {channel.value}-channel parameter {params}")

    range_parts = flags["range"].split(":")
    if len(range_parts) != 3:
        raise ParseError(f"--range: expected {_FLAG_GRAMMAR['range']}, got {flags['range']!r}")
    start, stop, step = (_parse_float(part, "range") for part in range_parts)

    fixed: dict[str, tuple[float, ...]] = {}
    for name in _CANONICAL_PARAM_ORDER:
        if name not in flags:
            continue
        if name == vary:
            raise ParseError(f"--{name}: parameter is being varied, do not also fix it")
        if name not in params:
            raise ParseError(f"--{name}: not a {channel.value}-channel parameter")
        fixed[name] = _parse_value_list(flags[name], name)
    for name in params:
        if name != vary and name not in fixed:
            raise ParseError(f"--{name} is required for the {channel.value} channel")

    # Acceleration values up to the published-figure ceiling 0.8 are
    # accepted; anything past pi/4 is flagged in the provenance.
    r_values = list(fixed.get("r", ()))
    if vary == "r":
        r_values.extend((start, stop))
    r_limit, notes = _r_limit_and_notes(r_values)
    if r_limit > R_CAPTION_MAX + 1e-12:
        raise ParseError(f"--r: value {r_limit:g} outside [0, {R_CAPTION_MAX:g}]")

    spec = SweepSpec(
        channel=channel,
        vary=vary,
        start=start,
        stop=stop,
        step=step,
        fixed=fixed,
        quantity=quantity,
        method=method,
        qfi_form=qfi_form,
        r_limit=r_limit,
        notes=notes,
    )
    validate_spec(spec)
    return spec


def validate_spec(spec: SweepSpec) -> None:
    """Raise ``ParseError`` if the spec violates a model or grammar invariant."""
    grid = f"{spec.start:g}:{spec.stop:g}:{spec.step:g}"
    if not spec.start < spec.stop:
        raise ParseError(f"--range: start must be below stop, got {grid}")
    if not spec.step > 0.0:
        raise ParseError(f"--range: step must be positive, got {grid}")
    estimated = spec.quantity.estimated_param
    if estimated is not None:
        if estimated not in CHANNEL_PARAMS[spec.channel]:
            raise ParseError(
                f"--quantity: {spec.quantity.value} needs parameter {estimated!r}, "
                f"absent from the {spec.channel.value} channel"
            )
        if spec.method is not Method.NUMERIC and spec.channel is not Channel.WHITE:
            raise ParseError(
                "--method: closed QFI forms exist only for the white channel; use numeric"
            )
    bounds = {"x": (0.0, 1.0), "p": (0.0, 1.0), "q": (0.0, 1.0), "r": (0.0, spec.r_limit)}

    def check(name: str, value: float) -> None:
        low, high = bounds[name]
        if not low <= value <= high + 1e-12:
            raise ParseError(f"--{name}: value {value:g} outside [{low:g}, {high:g}]")

    for name, values in spec.fixed.items():
        for value in values:
            check(name, value)
    check(spec.vary, spec.start)
    check(spec.vary, spec.stop)
    if spec.channel is Channel.WHITE_COLOR:
        max_of = {
            name: (spec.stop if name == spec.vary else max(spec.fixed.get(name, (0.0,))))
            for name in ("p", "q")
        }
        if max_of["p"] + max_of["q"] > 1.0 + 1e-12:
            raise ParseError(
                f"--p/--q: combined-channel strengths reach p+q={max_of['p'] + max_of['q']:g} > 1"
            )
    rows = _row_count(spec.start, spec.stop, spec.step)
    if rows > MAX_GRID_ROWS:
        raise ParseError(f"--range: {grid} gives {rows} grid rows, more than {MAX_GRID_ROWS}")


# ---------------------------------------------------------------------------
# Figure presets
# ---------------------------------------------------------------------------

_R_SERIES = (0.0, 0.5, 0.8)
_X_SERIES = (0.2, 0.4, 1.0 / math.sqrt(2.0))
_UNIT_RANGE = (0.0, 1.0, 0.01)
_R_RANGE = (0.0, math.pi / 4.0, math.pi / 400.0)

_R_SERIES_NOTE = (
    "r=0.8 exceeds the physical bound pi/4~0.7853982; the caption value is kept "
    "so the printed curves can be reproduced"
)
_Q_RANGE_NOTE = "q range restricted to [0, 1-p] so the combined strengths stay physical"


def _r_limit_and_notes(r_values: Sequence[float]) -> tuple[float, tuple[str, ...]]:
    """The acceleration ceiling of a parse_spec or preset spec with these r
    values, and the provenance note it needs when that ceiling passes pi/4."""
    r_limit = max((RINDLER_R_MAX, *r_values))
    return r_limit, (_R_SERIES_NOTE,) if r_limit > RINDLER_R_MAX else ()


def _preset_table() -> dict[str, SweepSpec]:
    presets: dict[str, SweepSpec] = {}

    def add(name, channel, vary, rng, fixed, quantity, method=Method.BOTH, qfi_form=QfiForm.TWO, notes=()):
        r_limit, r_notes = _r_limit_and_notes(fixed.get("r", ()))
        presets[name] = SweepSpec(
            channel=channel,
            vary=vary,
            start=rng[0],
            stop=rng[1],
            step=rng[2],
            fixed=fixed,
            quantity=quantity,
            method=method,
            qfi_form=qfi_form,
            r_limit=r_limit,
            label=name,
            notes=(*notes, *r_notes),
        )

    conc = Quantity.CONCURRENCE
    for suffix, x in zip("abc", _X_SERIES):
        add(f"fig1{suffix}", Channel.WHITE, "p", _UNIT_RANGE, {"x": (x,), "r": _R_SERIES}, conc)
        add(f"fig3{suffix}", Channel.COLOR, "q", _UNIT_RANGE, {"x": (x,), "r": _R_SERIES}, conc)
    for suffix, strength in zip("ab", (0.4, 0.8)):
        add(f"fig2{suffix}", Channel.WHITE, "x", _UNIT_RANGE, {"p": (strength,), "r": _R_SERIES}, conc)
        add(f"fig4{suffix}", Channel.COLOR, "x", _UNIT_RANGE, {"q": (strength,), "r": _R_SERIES}, conc)
    for suffix, p in zip("abc", (0.2, 0.5, 0.8)):
        add(
            f"fig5{suffix}",
            Channel.WHITE_COLOR,
            "q",
            (0.0, 1.0 - p, 0.01),
            {"x": (0.4,), "p": (p,), "r": _R_SERIES},
            conc,
            notes=(_Q_RANGE_NOTE,),
        )
    for suffix, p in zip("ab", (0.5, 0.8)):
        add(f"fig6{suffix}", Channel.WHITE_COLOR, "x", _UNIT_RANGE, {"q": (0.2,), "p": (p,), "r": _R_SERIES}, conc)
        add(f"fig7{suffix}", Channel.WHITE_COLOR, "r", _R_RANGE, {"q": (0.2,), "p": (p,), "x": _X_SERIES}, conc)
    for suffix, form in zip("ab", (QfiForm.SINGLE, QfiForm.TWO)):
        add(f"fig8{suffix}", Channel.WHITE, "p", _UNIT_RANGE, {"x": (0.2,), "r": _R_SERIES}, Quantity.QFI_P, qfi_form=form)
        add(f"fig9{suffix}", Channel.WHITE, "x", _UNIT_RANGE, {"p": (0.2,), "r": _R_SERIES}, Quantity.QFI_X, qfi_form=form)
        add(f"fig10{suffix}", Channel.WHITE, "r", _R_RANGE, {"p": (0.2,), "x": _X_SERIES}, Quantity.QFI_R, qfi_form=form)
    add("fig11a", Channel.COLOR, "q", _UNIT_RANGE, {"x": (0.2,), "r": _R_SERIES}, Quantity.QFI_Q, Method.NUMERIC)
    add("fig11b", Channel.COLOR, "x", _UNIT_RANGE, {"q": (0.2,), "r": _R_SERIES}, Quantity.QFI_X, Method.NUMERIC)
    add("fig11c", Channel.COLOR, "r", _R_RANGE, {"q": (0.2,), "x": _X_SERIES}, Quantity.QFI_R, Method.NUMERIC)
    return presets


FIGURE_PRESETS = _preset_table()


def figure_preset(name: str) -> SweepSpec:
    """The SweepSpec reproducing one published figure panel's data."""
    try:
        return FIGURE_PRESETS[name]
    except KeyError:
        valid = ", ".join(sorted(FIGURE_PRESETS))
        raise UnknownPresetError(f"unknown preset {name!r}; valid names: {valid}") from None


# ---------------------------------------------------------------------------
# Running sweeps
# ---------------------------------------------------------------------------

_CELL_ERRORS = (
    SingularPointError,
    NegativeRadicandError,
    NotPSDError,
    FamilyEvalError,
    DomainError,
)


def _series_combos(spec: SweepSpec) -> list[dict[str, float]]:
    names = [name for name in _CANONICAL_PARAM_ORDER if name in spec.fixed]
    return [
        dict(zip(names, values))
        for values in itertools.product(*(spec.fixed[name] for name in names))
    ]


def _series_label(spec: SweepSpec, combo: dict[str, float]) -> str:
    parts = [
        f"{name}={combo[name]:g}"
        for name in _CANONICAL_PARAM_ORDER
        if name in combo and len(spec.fixed[name]) > 1
    ]
    return "|".join(parts)


def _states(spec: SweepSpec, point: dict):
    """The accelerated state at ``point``; array values give a stack of states."""
    p, q = combined_strengths(spec.channel, point.get("p", 0.0), point.get("q", 0.0))
    return accelerated_whitecolor(point["x"], p, q, point["r"], r_max=spec.r_limit)


def _evaluate_cell(spec: SweepSpec, point: dict, variant: str):
    """One cell's value, or, with an array for the varied parameter, the
    array of its cells; a closed form gives NaN where its cell is singular."""
    if spec.quantity is Quantity.CONCURRENCE:
        if variant == "numeric":
            return concurrence(_states(spec, point))
        return concurrence_closed(ModelParams(channel=spec.channel, **point), r_max=spec.r_limit)

    estimated = spec.quantity.estimated_param
    if variant == "numeric":
        # The engines need theta in the shape of the column.
        theta = np.broadcast_to(point[estimated], np.shape(point[spec.vary]))
        others = {k: v for k, v in point.items() if k != estimated}
        if spec.qfi_form is QfiForm.SINGLE:
            family = state_family(spec.channel, estimated, reduced=True, **others)
            return qfi_single_bloch(family, theta).value
        family = state_family(spec.channel, estimated, **others)
        return qfi_two_qubit_spectral_retry(family, theta).value
    # Closed QFI forms exist for the white channel only, over (x, p, r).
    closed = qfi_single_white_closed if spec.qfi_form is QfiForm.SINGLE else qfi_two_white_closed
    return closed(estimated, point["x"], point["p"], point["r"], r_max=spec.r_limit).value


def _evaluate_column(
    spec: SweepSpec,
    combo: dict[str, float],
    variant: str,
    values: list[float],
    warnings: dict[str, int],
) -> list[Optional[float]]:
    """One output column over the grid ``values``; empty cells come back as None.

    Every column, numeric or closed, is computed in one call over the whole
    column.  The cells that call cannot give are evaluated one by one, so each
    empty cell is counted under its own reason in ``warnings``: its NaN cells
    (a closed form's singular cells, an engine's cells whose complex step
    reaches a branch point), or all of them if it raises a cell error.  Every
    other cell equals its one-cell call bit for bit.
    """
    point = dict(combo)
    point[spec.vary] = np.array(values)
    try:
        column: list[Optional[float]] = _evaluate_cell(spec, point, variant).tolist()
    except _CELL_ERRORS:
        column = [math.nan] * len(values)
    for i, value in enumerate(values):
        if not math.isnan(column[i]):
            continue
        point[spec.vary] = value
        try:
            column[i] = _evaluate_cell(spec, point, variant)
        except _CELL_ERRORS as exc:
            kind = type(exc).__name__
            warnings[kind] = warnings.get(kind, 0) + 1
            column[i] = None
    return column


def _quantity_base(spec: SweepSpec) -> str:
    if spec.quantity is Quantity.CONCURRENCE:
        return spec.quantity.value
    return f"{spec.quantity.value}-{spec.qfi_form.value}"


def _spec_echo(spec: SweepSpec) -> str:
    fixed = " ".join(
        f"{name}={','.join(f'{v:g}' for v in spec.fixed[name])}"
        for name in _CANONICAL_PARAM_ORDER
        if name in spec.fixed
    )
    return (
        f"spec: channel={spec.channel.value} vary={spec.vary} "
        f"range={spec.start:g}:{spec.stop:g}:{spec.step:g} {fixed} "
        f"quantity={spec.quantity.value} method={spec.method.value} "
        f"qfi-form={spec.qfi_form.value}"
    )


def run_sweep(spec: SweepSpec) -> SweepTable:
    """Evaluate the sweep grid; singular cells come back as None."""
    validate_spec(spec)
    values = grid_values(spec.start, spec.stop, spec.step)
    combos = _series_combos(spec)
    base = _quantity_base(spec)

    columns = [spec.vary]
    cells: list[tuple[dict[str, float], str]] = []
    for combo in combos:
        label = _series_label(spec, combo)
        for variant in spec.method.variants:
            name = f"{base}[{label}]:{variant}" if label else f"{base}:{variant}"
            columns.append(name)
            cells.append((combo, variant))

    warnings: dict[str, int] = {}
    rows: list[list[Optional[float]]] = [[value] for value in values]
    for combo, variant in cells:
        for row, cell in zip(rows, _evaluate_column(spec, combo, variant, values, warnings)):
            row.append(cell)

    provenance = [f"tool: unruhkit {_version}"]
    if spec.label != "sweep":
        provenance.append(f"preset: {spec.label}")
    provenance.append(_spec_echo(spec))
    provenance.append(f"settings: derivative=complex-step(h={COMPLEX_STEP:g}) csv-digits={CSV_DIGITS}")
    provenance.extend(f"note: {note}" for note in spec.notes)
    total_empty = sum(warnings.values())
    if total_empty:
        details = ", ".join(f"{k}={v}" for k, v in sorted(warnings.items()))
        provenance.append(f"empty-cells: {total_empty} ({details})")
    return SweepTable(columns=columns, rows=rows, provenance=provenance, warnings=warnings)


def format_cell(value: Optional[float]) -> str:
    """CSV cell text: 12 significant digits, empty for singular cells."""
    if value is None:
        return ""
    return f"{value:.{CSV_DIGITS}g}"


def render_csv_body(table: SweepTable) -> str:
    """Header plus data lines; deterministic for identical specs."""
    lines = [",".join(table.columns)]
    lines.extend(",".join(format_cell(cell) for cell in row) for row in table.rows)
    return "\n".join(lines) + "\n"


def emit_csv(table: SweepTable, destination=None, timestamp: Optional[str] = None) -> None:
    """Write provenance comments, header and rows as CSV.

    ``destination`` may be a path, an open text stream, or None for stdout.
    The timestamp line is the only part that varies between identical runs.
    """
    import datetime
    import sys

    if timestamp is None:
        timestamp = datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")
    head = "".join(f"# {line}\n" for line in [*table.provenance, f"generated: {timestamp}"])
    text = head + render_csv_body(table)
    if destination is None:
        sys.stdout.write(text)
    elif hasattr(destination, "write"):
        destination.write(text)
    else:
        with open(destination, "w", encoding="utf-8") as stream:
            stream.write(text)
