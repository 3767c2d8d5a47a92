"""Per-layer timing of unruhkit from outside the package.

The tracer wraps each layer's public functions and patches every module
binding that refers to them: ``from .x import f`` copies the name into the
importing module, so patching only the defining module would miss those
calls without any sign.  Every binding is restored on exit.

A span opens when a call crosses into a layer from outside it; a call a
layer makes into itself (``concurrence_closed`` dispatching to
``concurrence_white_closed``) stays inside the open span.  A layer's self
time is its spans' time minus the time of spans of other layers nested
inside them.

A tracer can be entered for several blocks of operations; ``mark_block``
closes one, and ``layer_table`` takes self times from the block with the
least time per operation, so the host's slow phases weigh less on them.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from importlib import import_module

# layer name -> (defining module, wrapped functions)
LAYERS = {
    "qlinalg.eig_hermitian": ("unruhkit.qlinalg", ("eig_hermitian",)),
    "qlinalg.sqrt_psd": ("unruhkit.qlinalg", ("sqrt_psd",)),
    "entanglement.concurrence": ("unruhkit.entanglement", ("concurrence",)),
    "entanglement.closed": (
        "unruhkit.entanglement",
        (
            "concurrence_white_closed",
            "concurrence_color_closed",
            "concurrence_whitecolor_closed",
            "concurrence_closed",
        ),
    ),
    "channels.state": (
        "unruhkit.channels",
        ("accelerated_white", "accelerated_color", "accelerated_whitecolor"),
    ),
    "channels.route": ("unruhkit.channels", ("initial_state", "unruh_second_qubit")),
    "fisher.qfi_two": (
        "unruhkit.fisher",
        ("qfi_two_qubit_spectral", "qfi_two_qubit_spectral_retry"),
    ),
    "fisher.bloch": ("unruhkit.fisher", ("qfi_single_bloch",)),
    "fisher.closed": (
        "unruhkit.fisher",
        ("qfi_single_white_closed", "qfi_two_white_closed", "kappa_mu_terms"),
    ),
    "sweep.run_sweep": ("unruhkit.sweep", ("run_sweep",)),
    "sweep.parse_spec": ("unruhkit.sweep", ("parse_spec",)),
    "sweep.render_csv": ("unruhkit.sweep", ("render_csv_body",)),
    "sweep.emit_csv": ("unruhkit.sweep", ("emit_csv",)),
    "cli.main": ("unruhkit.cli", ("main",)),
}


class Tracer:
    """Context manager that times every layer in ``LAYERS`` while active."""

    def __init__(self) -> None:
        self._bindings: list[tuple[object, str, object]] = []
        self._stack: list[list] = []  # [layer, time spent in nested spans]
        self.calls: Counter[str] = Counter()  # spans per layer
        self.self_s: Counter[str] = Counter()
        self.fn_calls: Counter[str] = Counter()  # every call of each function
        self.errors: Counter[str] = Counter()  # "function:ExceptionType"
        self.cells = 0  # cells returned by run_sweep
        self.empty_cells: Counter[str] = Counter()  # by reason
        # (operations, seconds, calls, self_s) at the end of each block, cumulative
        self._marks: list[tuple[int, float, Counter, Counter]] = [(0, 0.0, Counter(), Counter())]

    def _wrap(self, layer: str, name: str, fn):
        stack = self._stack
        clock = time.perf_counter
        is_run_sweep = layer == "sweep.run_sweep"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.fn_calls[name] += 1
            if stack and stack[-1][0] == layer:
                try:
                    return fn(*args, **kwargs)
                except Exception as exc:
                    self.errors[f"{name}:{type(exc).__name__}"] += 1
                    raise
            span = [layer, 0.0]
            stack.append(span)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.errors[f"{name}:{type(exc).__name__}"] += 1
                raise
            finally:
                elapsed = clock() - start
                stack.pop()
                self.calls[layer] += 1
                self.self_s[layer] += elapsed - span[1]
                if stack:
                    stack[-1][1] += elapsed
            if is_run_sweep:
                self.cells += len(result.rows) * (len(result.columns) - 1)
                self.empty_cells.update(result.warnings)
            return result

        return traced

    def __enter__(self) -> "Tracer":
        replacements = {}
        for layer, (module_name, names) in LAYERS.items():
            module = import_module(module_name)
            for name in names:
                original = getattr(module, name, None)
                if original is None:
                    continue
                replacements[id(original)] = (original, self._wrap(layer, name, original))
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for attr, value in list(namespace.items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    namespace[attr] = hit[1]
                    self._bindings.append((namespace, attr, value))
        return self

    def __exit__(self, *exc_info) -> None:
        for namespace, attr, original in reversed(self._bindings):
            namespace[attr] = original
        self._bindings.clear()

    def mark_block(self, ops: int, seconds: float) -> None:
        """Close a block of ``ops`` operations that took ``seconds`` in all."""
        total_ops, total_s = self._marks[-1][:2]
        self._marks.append((total_ops + ops, total_s + seconds, self.calls.copy(), self.self_s.copy()))

    def fastest_block(self) -> tuple[float, dict[str, tuple[int, float]]]:
        """Time per operation of the block with the least of it, and that
        block's spans and self seconds per layer."""
        blocks = [
            (
                (s1 - s0) / (n1 - n0),
                {layer: (c1[layer] - c0[layer], t1[layer] - t0[layer]) for layer in LAYERS},
            )
            for (n0, s0, c0, t0), (n1, s1, c1, t1) in zip(self._marks, self._marks[1:])
            if n1 > n0
        ]
        return min(blocks, key=lambda block: block[0])

    def layer_table(self) -> dict[str, dict[str, float]]:
        """Per layer: spans per operation over all blocks, and self time per
        span in µs in the fastest block."""
        fastest = self.fastest_block()[1]
        ops = self._marks[-1][0]
        table = {}
        for layer in LAYERS:
            calls, self_s = fastest[layer]
            table[layer] = {
                "calls_per_op": self.calls[layer] / ops,
                "self_us_per_call": 1e6 * self_s / calls if calls else None,
            }
        return table

    def qfi_two_counters(self) -> dict[str, float]:
        """Retries per first attempt and degenerate crossings of the spectral engine."""
        first = self.fn_calls["qfi_two_qubit_spectral_retry"]
        attempts = self.fn_calls["qfi_two_qubit_spectral"]
        return {
            "retry_ratio": (attempts - first) / first if first else 0.0,
            "degenerate_errors": self.errors["qfi_two_qubit_spectral:DegenerateCrossingError"],
        }
