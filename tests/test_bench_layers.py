"""The benchmark's traced-layer contract.

``perfbench/run.py --trace 1`` reports a self time for each layer of its
``SELF_TIME_LAYERS``, taken from the fastest traced block.  A layer that made
no span there reports ``null``, and the run's JSON line is malformed.  So
every one of those layers must stay reachable from each of the three
workloads: this test runs one operation of ``figures`` and of ``verify``, and
enough of the seeded ``sweep-small`` pool to cover every kind of spec, under
one ``perfbench/tracer.Tracer``, and counts each layer's spans per workload.

``SELF_TIME_LAYERS`` is read from run.py with ``ast``: importing run.py would
write the BLAS thread variables into ``os.environ``.
"""

from __future__ import annotations

import ast
import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _self_time_layers() -> tuple[str, ...]:
    tree = ast.parse((PERFBENCH / "run.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "SELF_TIME_LAYERS"
            for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/run.py defines no SELF_TIME_LAYERS")


def _load(name: str):
    """Import perfbench/<name>.py under a name no other module uses."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def _spec_kind(spec) -> tuple:
    """What decides which layers a sweep-small spec reaches."""
    return spec.channel, spec.quantity == "concurrence", spec.method, spec.qfi_form


def _run_figures(workloads, tmp_path) -> int:
    workload = workloads.Figures(seed=1)
    return workload.check(workload.op()).failures


def _run_verify(workloads, tmp_path) -> int:
    workload = workloads.Verify()
    return workload.check(workload.op()).failures


def _run_sweep_small(workloads, tmp_path) -> int:
    workload = workloads.SweepSmall(seed=1, out_path=tmp_path / "sweep.csv")
    kinds = {_spec_kind(spec) for spec in workload.pool}
    seen, failures = set(), 0
    while seen != kinds:
        seen.add(_spec_kind(workload.pool[workload.index]))
        failures += workload.check(workload.op()).failures
    return failures


def test_every_self_time_layer_spans_on_every_workload(tmp_path):
    layers = _self_time_layers()
    tracer = _load("tracer")
    workloads = _load("workloads")
    assert set(layers) <= set(tracer.LAYERS)

    spans, failures = {}, {}
    with tracer.Tracer() as traced:
        for name, run in (
            ("figures", _run_figures),
            ("verify", _run_verify),
            ("sweep-small", _run_sweep_small),
        ):
            before = traced.calls.copy()
            failures[name] = run(workloads, tmp_path)
            spans[name] = traced.calls - before

    assert failures == {"figures": 0, "verify": 0, "sweep-small": 0}
    missing = {
        name: [layer for layer in layers if not counts[layer]]
        for name, counts in spans.items()
    }
    assert missing == {"figures": [], "verify": [], "sweep-small": []}

