"""Declarative parameter sweeps, figure presets and CSV emission.

A sweep varies one model parameter over a fixed-step grid, holds the others
at scalar values (or small value lists, each producing one output series),
and evaluates one quantity per cell: concurrence or the QFI of an estimated
parameter, numerically and/or from the closed forms.  Presets regenerate the
data behind each published figure panel.

Each method of a sweep is one evaluator call over all of its series: the
varied grid is one ``(rows,)`` float64 array that broadcasts against a
``(series, 1)`` column per parameter with several values (one value stays a
float), so no copy is made per series.  A call holds as many whole series as
fit in ``channels.BLOCK_CELLS`` (4096) cells, and at least one; the budget
spreads each call's fixed cost over many cells and bounds memory (``verify``
peaks near 47 MB at grid 21).  A spec with one series is a ``(rows,)`` call
with float parameters; one with several is always a ``(count, rows)`` call,
even at one series per call.  The calls fill one ``(rows, columns)`` float64
table, grid first, whose ``tolist`` gives the rows; every cell equals its
single-series call bit for bit.
"""

from __future__ import annotations

import datetime
import functools
import itertools
import math
import os
import stat
import sys
from collections.abc import Mapping
from dataclasses import dataclass, field
from enum import Enum
from types import MappingProxyType
from typing import Optional, Sequence

import numpy as np

from . import channels
from .version import __version__ as _version
from .channels import (
    CHANNEL_PARAMS,
    RINDLER_R_MAX,
    Channel,
    ModelParams,
    accelerated_state,
)
from .entanglement import concurrence, concurrence_closed
from .errors import DomainError, ParseError, UnknownPresetError
from .fisher import (
    COMPLEX_STEP,
    NAN_ERRORS,
    qfi_single_bloch,
    qfi_single_white_closed,
    qfi_two_qubit_spectral_retry,
    qfi_two_white_closed,
    state_family,
)

CSV_DIGITS = 12
_CELL_FORMAT = f".{CSV_DIGITS}g"
# Most grid rows a sweep may have; the figure presets have 101.
MAX_GRID_ROWS = 1_000_000
# Published figures draw acceleration series up to r=0.8, slightly past the
# physical bound pi/4; sweeps accept values up to that ceiling and flag them.
R_CAPTION_MAX = 0.8


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
    """A validated grid job: what to vary, what to hold, what to compute.

    A spec is valid by construction: ``validate_spec`` runs when it is built
    (``dataclasses.replace`` included) and raises ``ParseError``.  Once valid,
    ``start``, ``stop``, ``step`` and every fixed value are floats, and
    ``fixed`` is read-only, in the channel's parameter order.
    """

    channel: Channel
    vary: str
    start: float
    stop: float
    step: float
    fixed: Mapping[str, tuple[float, ...]]
    quantity: Quantity
    method: Method = Method.BOTH
    qfi_form: QfiForm = QfiForm.TWO
    label: str = "sweep"
    notes: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        validate_spec(self)
        fixed = {k: tuple(map(float, self.fixed[k])) for k in CHANNEL_PARAMS[self.channel] if k in self.fixed}
        object.__setattr__(self, "fixed", MappingProxyType(fixed))
        for name in ("start", "stop", "step"):
            object.__setattr__(self, name, float(getattr(self, name)))

    def __reduce__(self):
        # A mappingproxy neither pickles nor deep-copies: the spec is rebuilt from its fields.
        return functools.partial(SweepSpec, **{**vars(self), "fixed": dict(self.fixed)}), ()

    @property
    def r_limit(self) -> float:
        """The acceleration ceiling of this spec's r values: pi/4, or the
        largest r value where one passes it."""
        r_values = (self.start, self.stop) if self.vary == "r" else self.fixed.get("r", ())
        return max((RINDLER_R_MAX, *r_values))


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


def grid_values(start: float, stop: float, step: float) -> np.ndarray:
    """The float64 grid start, start+step, ... with ``_row_count`` rows.

    Each value is ``start + i * step``, clamped to ``stop`` so accumulated
    rounding cannot push the last one out of the parameter's domain.
    """
    return np.minimum(start + np.arange(_row_count(start, stop, step)) * step, stop)


# Each flag's value form; a choice flag's lists its enum's values.
_FLAG_GRAMMAR = {
    "channel": "|".join(Channel),
    "vary": "p|q|x|r",
    "range": "start:stop:step",
    **dict.fromkeys("xpqr", "scalar or comma-list"),
    "quantity": "|".join(Quantity),
    "method": "|".join(Method),
    "qfi-form": "|".join(QfiForm),
}


def _tokens_to_mapping(argv: Sequence[str], grammar: dict[str, str] = _FLAG_GRAMMAR) -> dict[str, str]:
    """``argv``'s --name value pairs as {name: value}; ``grammar`` maps each known name to its form."""
    mapping: dict[str, str] = {}
    i = 0
    while i < len(argv):
        token = argv[i]
        if not token.startswith("--"):
            raise ParseError(f"unexpected token {token!r}; flags look like --name value")
        name = token[2:]
        if name not in grammar:
            raise ParseError(f"unknown flag --{name}")
        if i + 1 >= len(argv) or argv[i + 1].startswith("--"):
            raise ParseError(f"--{name}: missing value ({grammar[name]})")
        mapping[name] = argv[i + 1]
        i += 2
    return mapping


def _convert(kind, name: str, token: str):
    """``token`` read by ``kind`` (``float``, ``int`` or a choice enum) as the value of --``name``."""
    try:
        return kind(token)
    except ValueError as exc:
        if issubclass(kind, Enum):
            raise ParseError(f"--{name}: {token!r} not in {_FLAG_GRAMMAR[name]}") from exc
        raise ParseError(f"--{name}: expected {kind.__name__}, got {token!r}") from exc


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


def parse_spec(argv: Sequence[str] | Mapping[str, str], config_text: Optional[str] = None) -> SweepSpec:
    """Read sweep flags and an optional config into a SweepSpec, which
    validates itself; a flag not given takes the SweepSpec default.

    ``argv`` is the --name value tokens, or the {name: value} mapping
    ``_tokens_to_mapping`` has already read from them (the CLI walks its
    command line once).  Command-line flags override config-file values.
    ``config_text`` is the content of the file named by --config; the CLI
    reads the file and passes the text here so this function stays free of
    I/O.
    """
    if isinstance(argv, Mapping):
        flags = argv
        unknown = [name for name in flags if name not in _FLAG_GRAMMAR]
        if unknown:
            raise ParseError(f"unknown flag --{unknown[0]}")
    else:
        flags = _tokens_to_mapping(argv)
    if config_text is not None:
        merged = _config_to_mapping(config_text)
        merged.update(flags)
        flags = merged

    for required in ("channel", "vary", "range", "quantity"):
        if required not in flags:
            raise ParseError(f"--{required} is required ({_FLAG_GRAMMAR[required]})")

    channel = _convert(Channel, "channel", flags["channel"])
    quantity = _convert(Quantity, "quantity", flags["quantity"])
    optional = (("method", Method), ("qfi-form", QfiForm))
    choices = {name.replace("-", "_"): _convert(kind, name, flags[name]) for name, kind in optional if name in flags}

    range_parts = flags["range"].split(":")
    if len(range_parts) != 3:
        raise ParseError(f"--range: expected {_FLAG_GRAMMAR['range']}, got {flags['range']!r}")
    start, stop, step = (_convert(float, "range", part) for part in range_parts)

    fixed = {}
    for name in CHANNEL_PARAMS[Channel.WHITE_COLOR]:
        if name in flags:
            fixed[name] = tuple(_convert(float, name, part) for part in flags[name].split(","))
    return SweepSpec(channel, flags["vary"], start, stop, step, fixed, quantity, **choices)


def _range_text(spec: SweepSpec) -> str:
    """The spec's grid as --range prints it in an error message."""
    return f"{spec.start:g}:{spec.stop:g}:{spec.step:g}"


def validate_spec(spec: SweepSpec) -> None:
    """Raise ``ParseError`` if the spec violates a model or grammar invariant."""
    if not spec.start < spec.stop:
        raise ParseError(f"--range: start must be below stop, got {_range_text(spec)}")
    if not spec.step > 0.0:
        raise ParseError(f"--range: step must be positive, got {_range_text(spec)}")
    # The parameter set: the varied one and every other one of the channel
    # fixed, each to at least one value, and nothing else.
    params = CHANNEL_PARAMS[spec.channel]
    if spec.vary not in params:
        raise ParseError(f"--vary: {spec.vary!r} is not a {spec.channel.value}-channel parameter {params}")
    for name, group in spec.fixed.items():
        if name == spec.vary:
            raise ParseError(f"--{name}: parameter is being varied, do not also fix it")
        if name not in params:
            raise ParseError(f"--{name}: not a {spec.channel.value}-channel parameter")
        if not group:
            raise ParseError(f"--{name}: missing value ({_FLAG_GRAMMAR[name]})")
        # Two equal values would print two series under one header.
        if len(set(group)) < len(group):
            raise ParseError(f"--{name}: a value is given twice in {','.join(f'{v:g}' for v in group)}")
    for name in params:
        if name != spec.vary and name not in spec.fixed:
            raise ParseError(f"--{name} is required for the {spec.channel.value} channel")
    estimated = spec.quantity.estimated_param
    if estimated is not None:
        if estimated not in params:
            raise ParseError(
                f"--quantity: {spec.quantity.value} needs parameter {estimated!r}, "
                f"absent from the {spec.channel.value} channel"
            )
        if spec.method is not Method.NUMERIC and spec.channel is not Channel.WHITE:
            raise ParseError(
                "--method: closed QFI forms exist only for the white channel; use numeric"
            )
    # Acceleration values up to the published-figure ceiling 0.8 are
    # accepted; anything past pi/4 is flagged in the provenance.
    if (r_limit := spec.r_limit) > R_CAPTION_MAX + 1e-12:
        raise ParseError(f"--r: value {r_limit:g} outside [0, {R_CAPTION_MAX:g}]")
    # The model's own domain rule decides, at the lowest and at the highest
    # value of every parameter; the keys rank NaN as both, so it is refused.
    values = {**spec.fixed, spec.vary: (spec.start, spec.stop)}
    lowest = {name: min(group, key=lambda v: (v == v, v)) for name, group in values.items()}
    highest = {name: max(group, key=lambda v: (v != v, v)) for name, group in values.items()}
    try:
        for point in (lowest, highest):
            ModelParams(**point, channel=spec.channel).validate(r_limit)
    except DomainError as exc:
        raise ParseError(f"sweep values leave the model's domain: {exc}") from exc
    rows = _row_count(spec.start, spec.stop, spec.step)
    if rows > MAX_GRID_ROWS:
        raise ParseError(f"--range: {_range_text(spec)} gives {rows} grid rows, more than {MAX_GRID_ROWS}")


# ---------------------------------------------------------------------------
# Figure presets
# ---------------------------------------------------------------------------

_R_SERIES = (0.0, 0.5, 0.8)
_X_SERIES = (0.2, 0.4, 1.0 / math.sqrt(2.0))
_UNIT_RANGE = (0.0, 1.0, 0.01)
_R_RANGE = (0.0, RINDLER_R_MAX, RINDLER_R_MAX / 100)

_R_SERIES_NOTE = (
    f"r={R_CAPTION_MAX:g} exceeds the physical bound pi/4~{RINDLER_R_MAX:.7f}; "
    "the caption value is kept so the printed curves can be reproduced"
)
_Q_RANGE_NOTE = "q range restricted to [0, 1-p] so the combined strengths stay physical"


def _preset_table() -> dict[str, SweepSpec]:
    presets: dict[str, SweepSpec] = {}

    def add(name, channel, vary, rng, fixed, quantity, **options):
        presets[name] = SweepSpec(channel, vary, *rng, fixed, quantity, label=name, **options)

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
    add("fig11a", Channel.COLOR, "q", _UNIT_RANGE, {"x": (0.2,), "r": _R_SERIES}, Quantity.QFI_Q, method=Method.NUMERIC)
    add("fig11b", Channel.COLOR, "x", _UNIT_RANGE, {"q": (0.2,), "r": _R_SERIES}, Quantity.QFI_X, method=Method.NUMERIC)
    add("fig11c", Channel.COLOR, "r", _R_RANGE, {"q": (0.2,), "x": _X_SERIES}, Quantity.QFI_R, method=Method.NUMERIC)
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

def _label_format(values: Sequence[float]):
    """How a series label prints a parameter with these values: ``:g``, unless
    two distinct values print alike that way; then the shortest round-trip
    ``repr``."""
    if len({f"{v:g}" for v in values}) >= len(set(values)):
        return lambda v: f"{v:g}"
    return repr


def _echo_value(value: float) -> str:
    """``value`` as ``:g`` where that reads back as the same float, else as its
    shortest round-trip ``repr``."""
    text = f"{value:g}"
    return text if float(text) == value else repr(value)


def _column_values(spec: SweepSpec, point: dict, variant: str) -> tuple[np.ndarray, Optional[str]]:
    """The cells of one call over ``point`` (the ``(rows,)`` grid, floats and
    ``(series, 1)`` columns), and the QFI form whose ``NAN_ERRORS`` entry
    names the reason of its NaN cells (None for concurrence, whose forms
    raise, never NaN)."""
    if spec.quantity is Quantity.CONCURRENCE:
        params = ModelParams(channel=spec.channel, **point)
        if variant == "numeric":
            return concurrence(accelerated_state(params, spec.r_limit)), None
        return concurrence_closed(params, r_max=spec.r_limit), None

    estimated = spec.quantity.estimated_param
    if variant == "numeric":
        # The engines need theta in the shape of the cells.
        theta = np.broadcast_to(point[estimated], np.broadcast(*point.values()).shape)
        others = {k: v for k, v in point.items() if k != estimated}
        reduced = spec.qfi_form is QfiForm.SINGLE
        engine = qfi_single_bloch if reduced else qfi_two_qubit_spectral_retry
        result = engine(state_family(spec.channel, estimated, reduced=reduced, **others), theta)
    else:
        # Closed QFI forms exist for the white channel only, over (x, p, r).
        closed = qfi_single_white_closed if spec.qfi_form is QfiForm.SINGLE else qfi_two_white_closed
        result = closed(estimated, point["x"], point["p"], point["r"], r_max=spec.r_limit)
    return result.value, result.form


def _quantity_base(spec: SweepSpec) -> str:
    if spec.quantity is Quantity.CONCURRENCE:
        return spec.quantity.value
    return f"{spec.quantity.value}-{spec.qfi_form.value}"


def _spec_echo(spec: SweepSpec) -> str:
    """The spec as sweep flags that parse back to it."""
    fixed = " ".join(f"{name}={','.join(map(_echo_value, group))}" for name, group in spec.fixed.items())
    grid = ":".join(map(_echo_value, (spec.start, spec.stop, spec.step)))
    return (
        f"spec: channel={spec.channel.value} vary={spec.vary} "
        f"range={grid} {fixed} "
        f"quantity={spec.quantity.value} method={spec.method.value} "
        f"qfi-form={spec.qfi_form.value}"
    )


def run_sweep(spec: SweepSpec) -> SweepTable:
    """Evaluate the sweep grid into one float64 table, one call per method
    and block of series; columns run series-major, then method.

    A NaN cell (a closed form's singular cell, an engine's cell whose complex
    step reaches a branch point) becomes None, counted in ``warnings`` under
    the exception its float call raises: ``NAN_ERRORS`` of its form.  An
    exception a call raises propagates.
    """
    grid = grid_values(spec.start, spec.stop, spec.step)
    base = _quantity_base(spec)
    variants = spec.method.variants
    names = tuple(spec.fixed)
    # The series: every combination of the fixed values, and each parameter
    # with several values as a (series, 1) column of that product.
    combos = list(itertools.product(*spec.fixed.values()))
    product = np.array(combos)
    formats = {j: _label_format(group) for j, group in enumerate(spec.fixed.values()) if len(group) > 1}
    floats = {name: group[0] for name, group in spec.fixed.items() if len(group) == 1}

    columns = [spec.vary]
    for combo in combos:
        label = "|".join(f"{names[j]}={fmt(combo[j])}" for j, fmt in formats.items())
        columns.extend(
            f"{base}[{label}]:{variant}" if label else f"{base}:{variant}" for variant in variants
        )

    warnings: dict[str, int] = {}
    table = np.empty((len(grid), len(columns)))
    table[:, 0] = grid
    # A block's columns are every len(variants)-th from its first series'
    # column of that variant.
    step = max(1, channels.BLOCK_CELLS // len(grid))
    for first in range(0, len(combos), step):
        stacked = {names[j]: product[first : first + step, j, None] for j in formats}
        point = {**floats, **stacked, spec.vary: grid}
        for v, variant in enumerate(variants):
            block, form = _column_values(spec, point, variant)
            block = np.atleast_2d(block)  # a (rows,) call is one series
            if empty := int(np.count_nonzero(np.isnan(block))):
                kind = NAN_ERRORS[form].__name__
                warnings[kind] = warnings.get(kind, 0) + empty
            at = 1 + first * len(variants) + v
            table[:, at : at + len(block) * len(variants) : len(variants)] = block.T
    rows = table.tolist()
    if warnings:  # each NaN cell becomes None
        for i in np.flatnonzero(np.isnan(table).any(axis=1)):
            rows[i] = [None if cell != cell else cell for cell in rows[i]]

    provenance = [f"tool: unruhkit {_version}"]
    if spec.label != "sweep":
        provenance.append(f"preset: {spec.label}")
    provenance.append(_spec_echo(spec))
    provenance.append(f"settings: derivative=complex-step(h={COMPLEX_STEP:g}) csv-digits={CSV_DIGITS}")
    provenance.extend(f"note: {note}" for note in spec.notes)
    if spec.r_limit > RINDLER_R_MAX:
        provenance.append(f"note: {_R_SERIES_NOTE}")
    total_empty = sum(warnings.values())
    if total_empty:
        details = ", ".join(f"{k}={v}" for k, v in sorted(warnings.items()))
        provenance.append(f"empty-cells: {total_empty} ({details})")
    return SweepTable(columns=columns, rows=rows, provenance=provenance, warnings=warnings)


def format_cell(value: Optional[float]) -> str:
    """CSV cell text: 12 significant digits, empty for singular cells."""
    return "" if value is None else format(value, _CELL_FORMAT)


def render_csv_body(table: SweepTable) -> str:
    """Header plus data lines; deterministic for identical specs.  Each chunk
    of at most ``channels.BLOCK_CELLS`` cells (and at least one row) is one %
    of a multi-row template, the text of format(c, _CELL_FORMAT) per cell; a
    chunk with an empty cell, which that % refuses, goes row by row."""
    template = ",".join(["%" + _CELL_FORMAT] * len(table.columns))
    per_chunk = max(1, channels.BLOCK_CELLS // len(table.columns))
    lines = [",".join(table.columns)]
    for first in range(0, len(table.rows), per_chunk):
        chunk = table.rows[first : first + per_chunk]
        # Via a list: a tuple grown from the chain fills CPython's tuple free lists.
        cells = tuple(list(itertools.chain.from_iterable(chunk)))
        try:
            lines.append("\n".join([template] * len(chunk)) % cells)
        except TypeError:  # None, an empty cell, is no real number
            lines.extend(",".join(map(format_cell, row)) if None in row else template % tuple(row) for row in chunk)
    return "\n".join(lines) + "\n"


def emit_csv(table: SweepTable, destination=None, timestamp: Optional[str] = None) -> None:
    """Write provenance comments, header and rows as CSV.

    ``destination`` may be a path, an open text stream, or None for stdout.
    The timestamp line is the only part that varies between identical runs.
    A path gets the UTF-8 text with ``os.linesep`` line ends, as a text-mode
    file would, in ``os.write`` calls until every byte is written.  It is
    overwritten in place.  An existing regular file is then cut to the CSV's
    length, or to nothing if the write fails, so no rows of the earlier file
    are left behind.  It is not opened with ``O_TRUNC``: on ext4 that frees
    the old blocks, allocates them again and starts writeback at close.  The
    inode, mode and links stay; a device, FIFO or terminal is not truncated.
    """
    if timestamp is None:
        timestamp = datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")
    head = "".join(f"# {line}\n" for line in [*table.provenance, f"generated: {timestamp}"])
    text = head + render_csv_body(table)
    if destination is None:
        sys.stdout.write(text)
    elif hasattr(destination, "write"):
        destination.write(text)
    else:
        if os.linesep != "\n":
            text = text.replace("\n", os.linesep)
        data = memoryview(text.encode("utf-8"))
        fd = os.open(destination, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
        try:
            info = os.fstat(fd)
            # What an earlier file may leave behind; st_size is a length only
            # for a regular file.  A new file, or one the CSV outgrows, needs
            # no cut.
            old_size = info.st_size if stat.S_ISREG(info.st_mode) else 0
            written = 0
            try:
                while written < len(data):  # a write may take fewer bytes than given
                    written += os.write(fd, data[written:])
            except BaseException:
                if old_size:
                    os.ftruncate(fd, 0)
                raise
            if written < old_size:
                os.ftruncate(fd, written)
        finally:
            os.close(fd)
