"""Tests of the benchmark's tracer, spec generator and correctness gates.

Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import random
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

from unruhkit import entanglement, fisher, qlinalg, sweep, verify  # noqa: E402

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

# Layer spans of run_verification(grid_n=5).
VERIFY_GRID5_CALLS = {
    "channels.state": 1376,
    "channels.route": 500,
    "qlinalg.eig_hermitian": 1252,
    "qlinalg.sqrt_psd": 1252,
    "entanglement.concurrence": 626,
    "entanglement.closed": 1126,
    "fisher.bloch": 627,
    "fisher.closed": 492,
    "fisher.qfi_two": 405,
}


def test_traced_counts_fig1a():
    with tracer.Tracer() as traced:
        sweep.run_sweep(sweep.FIGURE_PRESETS["fig1a"])
    assert traced.calls["entanglement.concurrence"] == 303
    assert traced.calls["qlinalg.sqrt_psd"] == 606
    assert traced.calls["qlinalg.eig_hermitian"] == 606
    assert traced.calls["entanglement.closed"] == 303
    assert traced.calls["channels.state"] == 303
    assert traced.calls["sweep.run_sweep"] == 1
    assert traced.cells == 606


def test_traced_counts_verify_grid5():
    with tracer.Tracer() as traced:
        verify.run_verification(grid_n=5)
    assert dict(traced.calls) == VERIFY_GRID5_CALLS
    # Every spectral attempt is a first attempt: no retries, no crossings.
    assert traced.fn_calls["qfi_two_qubit_spectral"] == 405
    assert traced.qfi_two_counters() == {"retry_ratio": 0.0, "degenerate_errors": 0}


def test_tracer_patches_copied_bindings_and_restores_them():
    bindings = {
        (sweep, "concurrence"): entanglement.concurrence,
        (verify, "concurrence"): entanglement.concurrence,
        (entanglement, "sqrt_psd"): qlinalg.sqrt_psd,
        (verify, "qfi_two_qubit_spectral_retry"): fisher.qfi_two_qubit_spectral_retry,
        (fisher, "qfi_two_qubit_spectral"): fisher.qfi_two_qubit_spectral,
    }
    with tracer.Tracer():
        for (module, name), original in bindings.items():
            assert getattr(module, name).__wrapped__ is original
    for (module, name), original in bindings.items():
        assert getattr(module, name) is original


def test_generated_specs_parse_and_repeat():
    rng = random.Random(7)
    specs = [workloads.generate_spec(rng) for _ in range(1000)]
    for generated in specs:
        spec = sweep.parse_spec(generated.argv[1:])
        grid = sweep.grid_values(spec.start, spec.stop, spec.step)
        assert len(grid) == len(generated.grid)
    again = random.Random(7)
    assert [workloads.generate_spec(again) for _ in range(1000)] == specs


def test_gate_counts_one_perturbed_reference_cell(tmp_path):
    reference = tmp_path / "reference"
    shutil.copytree(workloads.REFERENCE_DIR, reference)
    path = reference / "figures" / "fig1a.csv"
    lines = path.read_text(encoding="utf-8").splitlines()
    cells = lines[50].split(",")
    cells[1] = repr(float(cells[1]) + 1e-6)
    lines[50] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    figures = workloads.Figures(seed=0, reference_dir=reference)
    result = figures.check(figures.op())
    assert result.failures == 1
    assert result.cells == 13947


def test_emptied_cell_is_counted_not_failed():
    reference = (workloads.REFERENCE_DIR / "figures" / "fig1a.csv").read_text(encoding="utf-8")
    lines = reference.splitlines()
    cells = lines[50].split(",")
    cells[1] = ""
    lines[50] = ",".join(cells)
    result = workloads.compare_body(reference, "\n".join(lines) + "\n")
    assert (result.failures, result.empty_cells) == (0, 1)


class _Raising:
    """A workload whose operation raises, as a broken engine would."""

    def op(self):
        raise RuntimeError("engine broke")


def test_operation_that_raises_fails_the_run(monkeypatch, capsys):
    monkeypatch.setattr(run, "make_workload", lambda name, seed, scratch: _Raising())
    monkeypatch.setattr(run, "time_setup", lambda: 0.2)
    assert run.main(["--workload", "figures", "--seed", "1", "--seconds", "0.01"]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 2
