"""Every sweep column is one evaluator call over the whole column.

The figure presets and the benchmark's seeded ``sweep-small`` pools (seeds
1-3, generated by ``perfbench/workloads.py``) run through ``run_sweep`` with
each evaluator that ``sweep`` calls wrapped, so the length of the column each
call gets is recorded.  No call may get a 0-d value or a part of a column,
no cell error may escape, and each empty cell is counted under the reason
its NaN names.
"""

from __future__ import annotations

import collections
import importlib.util
import random
import sys
from pathlib import Path

import numpy as np
import pytest

from unruhkit import parse_spec, run_sweep
from unruhkit import sweep as sweep_module
from unruhkit.sweep import FIGURE_PRESETS

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _workloads():
    """perfbench/workloads.py, imported under a name no other module uses."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads_pool", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


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


def _run(spec, shapes: list):
    """Run ``spec``; check that it made one call per column, each over the
    whole column, and that every empty cell is counted once."""
    shapes.clear()
    table = run_sweep(spec)
    assert shapes == [(len(table.rows),)] * (len(table.columns) - 1), spec
    empty = sum(cell is None for row in table.rows for cell in row[1:])
    assert sum(table.warnings.values()) == empty
    return table


def test_every_preset_column_is_one_call(column_shapes):
    warnings = {name: _run(spec, column_shapes).warnings for name, spec in FIGURE_PRESETS.items()}
    assert {name: w for name, w in warnings.items() if w} == {
        "fig8b": {"SingularPointError": 3},
        "fig9b": {"FamilyEvalError": 3, "SingularPointError": 6},
        "fig11b": {"FamilyEvalError": 3},
    }


def test_every_pool_column_is_one_call(column_shapes):
    workloads = _workloads()
    reasons = collections.Counter()
    for seed in (1, 2, 3):
        rng = random.Random(seed)
        for _ in range(workloads.POOL_SIZE):
            argv = workloads.generate_spec(rng).argv
            table = _run(parse_spec(argv[1:]), column_shapes)
            reasons.update(table.warnings)
    # The same counts, reason by reason, as when each NaN cell was rerun as
    # a float call to learn its exception.
    assert reasons == {"SingularPointError": 5, "FamilyEvalError": 2}
