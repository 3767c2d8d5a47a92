"""Every sweep method is one evaluator call over all of its series.

The figure presets and the benchmark's seeded ``sweep-small`` pools (seeds
1-3, generated by ``perfbench/workloads.py``) run through ``run_sweep`` with
each evaluator that ``sweep`` calls wrapped, so the shape of the block each
call gets is recorded.  A single series is one ``(rows,)`` call per method;
several series are ``(series, rows)`` calls of as many whole series as fit in
``channels.BLOCK_CELLS`` cells.  No call may get a 0-d value or a part of a
column, no cell error may escape, and each empty cell is counted under the
reason its NaN names.  Each column of a stacked call equals, bit for bit, the
column of its own single-series spec.
"""

from __future__ import annotations

import collections
import dataclasses
import itertools
import math
import random

import numpy as np
import pytest

from unruhkit import Channel, parse_spec, run_sweep
from unruhkit import sweep as sweep_module
from unruhkit import channels as channels_module
from unruhkit.sweep import FIGURE_PRESETS, Method, QfiForm, Quantity, SweepSpec


def _broadcast(*values) -> tuple[int, ...]:
    return np.broadcast_shapes(*map(np.shape, values))


# Each evaluator sweep calls, and the shape of the column it is given.
COLUMN_SHAPE = {
    "concurrence": lambda rho: np.shape(rho)[:-2],
    "concurrence_closed": lambda params, **_: _broadcast(params.x, params.p, params.q, params.r),
    "qfi_single_bloch": lambda family, theta: np.shape(theta),
    "qfi_two_qubit_spectral_retry": lambda family, theta: np.shape(theta),
    "qfi_single_white_closed": lambda param, x, p, r, **_: _broadcast(x, p, r),
    "qfi_two_white_closed": lambda param, x, p, r, **_: _broadcast(x, p, r),
}


@pytest.fixture
def column_shapes(monkeypatch) -> list:
    shapes = []
    for name, shape_of in COLUMN_SHAPE.items():
        evaluator = getattr(sweep_module, name)

        def recording(*args, _evaluator=evaluator, _shape_of=shape_of, **kwargs):
            shapes.append(_shape_of(*args, **kwargs))
            return _evaluator(*args, **kwargs)

        monkeypatch.setattr(sweep_module, name, recording)
    return shapes


def _call_shapes(series: int, rows: int, methods: int) -> list:
    """The block shapes ``run_sweep`` calls each evaluator with: per method,
    one call per block of as many whole series as fit in the budget."""
    per_call = max(1, channels_module.BLOCK_CELLS // rows)
    shapes = []
    for first in range(0, series, per_call):
        count = min(per_call, series - first)
        shapes += [(rows,) if series == 1 else (count, rows)] * methods
    return shapes


def _run(spec, shapes: list):
    """Run ``spec``; check that it made one call per method and block of
    whole series, and that every empty cell is counted once."""
    shapes.clear()
    table = run_sweep(spec)
    methods = len(spec.method.variants)
    series = (len(table.columns) - 1) // methods
    assert shapes == _call_shapes(series, len(table.rows), methods), spec
    empty = sum(cell is None for row in table.rows for cell in row[1:])
    assert sum(table.warnings.values()) == empty
    return table


def test_every_preset_column_is_one_call(column_shapes):
    # Each preset draws three series of at most 101 rows: one (3, rows) call
    # per method.
    warnings = {}
    for name, spec in FIGURE_PRESETS.items():
        table = _run(spec, column_shapes)
        assert column_shapes == [(3, len(table.rows))] * len(spec.method.variants), name
        warnings[name] = table.warnings
    assert {name: w for name, w in warnings.items() if w} == {
        "fig8b": {"SingularPointError": 3},
        "fig9b": {"FamilyEvalError": 3, "SingularPointError": 6},
        "fig11b": {"FamilyEvalError": 3},
    }


def test_every_pool_column_is_one_call(column_shapes, sweep_small_pools):
    reasons = collections.Counter()
    for pool in sweep_small_pools.values():
        for argv in pool:
            table = _run(parse_spec(argv), column_shapes)
            reasons.update(table.warnings)
    # The same counts, reason by reason, as when each NaN cell was rerun as
    # a float call to learn its exception.
    assert reasons == {"SingularPointError": 5, "FamilyEvalError": 2}


_VALUES = {
    "x": (0.0, 0.2, 0.5, 1.0 / math.sqrt(2.0), 1.0),
    "p": (0.0, 0.3, 0.6, 1.0),
    "q": (0.0, 0.3, 0.6, 1.0),
    "r": (0.0, 0.3, math.pi / 4.0),
}
# The combined channel keeps p+q <= 1 with p <= 0.4 and q <= 0.6.
_WHITECOLOR_VALUES = {**_VALUES, "p": (0.0, 0.2, 0.4), "q": (0.0, 0.3, 0.6)}


def _multi_series_specs(seed: int, count: int) -> list:
    """Seeded specs over every channel, quantity, method and QFI form, each
    with at least one parameter of several values, edges (x=1, zero noise)
    included, so some cells are empty."""
    rng = random.Random(seed)
    specs = []
    while len(specs) < count:
        channel = rng.choice(list(Channel))
        names = sweep_module.CHANNEL_PARAMS[channel]
        values = _WHITECOLOR_VALUES if channel is Channel.WHITE_COLOR else _VALUES
        vary = rng.choice(names)
        quantity = rng.choice([Quantity.CONCURRENCE, *(Quantity(f"qfi-{name}") for name in names)])
        numeric_only = quantity is not Quantity.CONCURRENCE and channel is not Channel.WHITE
        fixed = {
            name: tuple(rng.sample(values[name], rng.randint(1, 3)))
            for name in names
            if name != vary
        }
        if all(len(group) == 1 for group in fixed.values()):
            continue
        stop = {"x": 1.0, "p": 1.0, "q": 1.0, "r": math.pi / 4.0}[vary]
        if channel is Channel.WHITE_COLOR and vary in "pq":
            stop = 1.0 - max(fixed["q" if vary == "p" else "p"])
        specs.append(
            SweepSpec(
                channel=channel,
                vary=vary,
                start=0.0,
                stop=stop,
                step=stop / rng.randint(2, 30),
                fixed=fixed,
                quantity=quantity,
                method=Method.NUMERIC if numeric_only else rng.choice(list(Method)),
                qfi_form=rng.choice(list(QfiForm)),
            )
        )
    return specs


def _single_series(spec) -> list:
    """One spec per series of ``spec``, in column order."""
    names = [name for name in ("x", "p", "q", "r") if name in spec.fixed]
    return [
        dataclasses.replace(spec, fixed={name: (value,) for name, value in zip(names, combo)})
        for combo in itertools.product(*(spec.fixed[name] for name in names))
    ]


def _bits(table) -> list:
    """The cells of a table, column by column, as reprs: -0.0 and 0.0 differ."""
    return [[repr(row[j]) for row in table.rows] for j in range(1, len(table.columns))]


STACKED_SPECS = {
    **FIGURE_PRESETS,
    **{f"seeded{i}": spec for i, spec in enumerate(_multi_series_specs(18, 60))},
}


@pytest.mark.parametrize("spec", STACKED_SPECS.values(), ids=STACKED_SPECS.keys())
def test_stacked_columns_equal_their_single_series(spec):
    table = run_sweep(spec)
    columns = _bits(table)
    warnings = collections.Counter()
    methods = len(spec.method.variants)
    for i, single in enumerate(_single_series(spec)):
        alone = run_sweep(single)
        assert _bits(alone) == columns[i * methods : (i + 1) * methods], (spec, i)
        warnings.update(alone.warnings)
    assert table.warnings == dict(warnings)


@pytest.mark.parametrize("budget", [1, 10**9])
def test_budget_does_not_change_the_table(monkeypatch, column_shapes, budget):
    # One series per call, and every series of a method in one call, give
    # the default's tables; the call count follows the budget.
    specs = [FIGURE_PRESETS["fig1a"], FIGURE_PRESETS["fig9b"], *_multi_series_specs(19, 12)]
    default = [run_sweep(spec) for spec in specs]
    monkeypatch.setattr(channels_module, "BLOCK_CELLS", budget)
    for spec, want in zip(specs, default):
        table = _run(spec, column_shapes)
        assert table == want and _bits(table) == _bits(want), spec
        methods = len(spec.method.variants)
        series = (len(table.columns) - 1) // methods
        calls = math.ceil(series / max(1, budget // len(table.rows)))
        assert len(column_shapes) == calls * methods


def test_series_past_the_budget_are_split(column_shapes):
    # 10 series of 1,001 rows hold 10,010 cells: calls of four series (4,004
    # cells), as 5 would pass 4,096.  Rows past the budget give one series per call.
    assert channels_module.BLOCK_CELLS == 4096
    fixed = {"x": tuple(0.05 * k for k in range(1, 11)), "r": (0.3,)}
    for step, want in ((0.001, [(4, 1001)] * 2 + [(2, 1001)]), (1.0 / 4199, [(1, 4200)] * 10)):
        spec = SweepSpec(
            channel=Channel.WHITE,
            vary="p",
            start=0.0,
            stop=1.0,
            step=step,
            fixed=fixed,
            quantity=Quantity.CONCURRENCE,
            method=Method.NUMERIC,
        )
        table = _run(spec, column_shapes)
        assert column_shapes == want
        rows = len(table.rows)
        assert max(map(math.prod, column_shapes)) <= max(rows, channels_module.BLOCK_CELLS)
