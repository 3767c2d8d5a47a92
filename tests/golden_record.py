"""The golden record of unruhkit's outputs, and the script that rewrites it.

``tests/golden/`` holds, per figure preset, its provenance lines (without the
``generated:`` timestamp) and its ``render_csv_body``; the same, in one file,
for the first specs of the benchmark's ``sweep-small`` pool of seed 3199,
enough to reach every kind of spec in that pool, each a single series; and
``unruhkit verify``'s stdout and exit code at grids 5, 11 and 21.
``test_golden.py`` compares today's outputs with the record exactly.

Rewrite the record after a change that moves outputs on purpose:

    PYTHONPATH=src python tests/golden_record.py [--dry-run] [--expect CELL ...]

It prints, per file, every cell that moved, the largest move and the printed
digits that changed.  A CSV cell is ``FILE:LINE:FIELD`` (1-based file line and
comma field); a verify line, a CSV line whose text changed, or a whole file
is ``FILE:LINE`` or ``FILE``.  A numeric move over 1e-12, or a change of text,
is refused unless its cell is named with ``--expect``; then nothing is written.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import os
import random
import re
import sys
from decimal import Decimal
from pathlib import Path

GOLDEN_DIR = Path(__file__).parent / "golden"
VERIFY_GRIDS = (5, 11, 21)
POOL_SEED = 3199
# Moves are taken exactly between printed decimals: a cell of 12 significant
# digits in [0.1, 1) whose last digit flips has moved by exactly 1e-12.
MOVE_LIMIT = Decimal("1e-12")
INFINITE = Decimal("Infinity")
_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def _pool_sample() -> list:
    """The first argv lists of the ``sweep-small`` pool of ``POOL_SEED`` that
    hold every kind of spec in the pool: channel, concurrence or QFI, method
    and QFI form (what decides the layers a spec reaches)."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads_golden", path)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads
    spec.loader.exec_module(workloads)
    rng = random.Random(POOL_SEED)
    pool = [workloads.generate_spec(rng) for _ in range(workloads.POOL_SIZE)]
    kinds = [(s.channel, s.quantity == "concurrence", s.method, s.qfi_form) for s in pool]
    wanted, seen = set(kinds), set()
    for count, kind in enumerate(kinds, start=1):
        seen.add(kind)
        if seen == wanted:
            return [small.argv[1:] for small in pool[:count]]


def current_outputs() -> dict[str, str]:
    """File name -> the text the record holds for it, computed now."""
    from unruhkit.cli import main
    from unruhkit.sweep import FIGURE_PRESETS, parse_spec, render_csv_body, run_sweep

    def record(spec) -> str:
        table = run_sweep(spec)
        return "".join(f"# {line}\n" for line in table.provenance) + render_csv_body(table)

    outputs = {f"{name}.csv": record(spec) for name, spec in FIGURE_PRESETS.items()}
    pool = "".join(record(parse_spec(argv)) for argv in _pool_sample())
    outputs[f"sweep_small_seed{POOL_SEED}.csv"] = pool
    for grid in VERIFY_GRIDS:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = main(["verify", "--grid", str(grid)])
        outputs[f"verify_grid{grid}.txt"] = stdout.getvalue() + f"exit code: {code}\n"
    return outputs


def recorded_outputs() -> dict[str, str]:
    return {path.name: path.read_text(encoding="utf-8") for path in sorted(GOLDEN_DIR.glob("*.*"))}


def _digits(old: str, new: str) -> str:
    """``old -> new`` from the first printed character that differs."""
    k = len(os.path.commonprefix([old, new]))
    return f"{old} -> {new}" if k == 0 else f"{old} -> ...{new[k:]} (was ...{old[k:]})"


def _numeric_move(old: str, new: str) -> Decimal:
    """Largest absolute change between two texts that differ only in their
    numbers; infinite if anything else differs."""
    if _NUMBER.sub("#", old) != _NUMBER.sub("#", new):
        return INFINITE
    pairs = zip(_NUMBER.findall(old), _NUMBER.findall(new))
    return max((abs(Decimal(a) - Decimal(b)) for a, b in pairs), default=Decimal(0))


def moves(old_text: str | None, new_text: str | None, name: str) -> list[tuple[str, Decimal, str]]:
    """Every moved cell of one file: (cell, absolute move, description)."""
    if old_text is None or new_text is None:
        return [(name, INFINITE, "new file" if old_text is None else "file removed")]
    old_lines, new_lines = old_text.splitlines(), new_text.splitlines()
    if len(old_lines) != len(new_lines):
        return [(name, INFINITE, f"{len(old_lines)} -> {len(new_lines)} lines")]
    found = []
    for number, (old, new) in enumerate(zip(old_lines, new_lines), start=1):
        if old == new:
            continue
        old_fields, new_fields = old.split(","), new.split(",")
        if name.endswith(".csv") and not old.startswith("#") and len(old_fields) == len(new_fields):
            for field, (a, b) in enumerate(zip(old_fields, new_fields), start=1):
                if a != b:
                    found.append((f"{name}:{number}:{field}", _numeric_move(a, b), _digits(a, b)))
        else:
            found.append((f"{name}:{number}", _numeric_move(old, new), f"{old!r} -> {new!r}"))
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--expect", action="append", default=[], metavar="CELL", help="a cell allowed to move")
    parser.add_argument("--dry-run", action="store_true", help="report the moves, write nothing")
    args = parser.parse_args(argv)
    old, new = recorded_outputs(), current_outputs()
    refused = []
    for name in sorted(set(old) | set(new)):
        found = moves(old.get(name), new.get(name), name)
        if not found:
            continue
        print(f"{name}: {len(found)} moved, largest {max(m for _, m, _ in found):.3g}")
        for cell, move, text in found:
            unexpected = move > MOVE_LIMIT and cell not in args.expect
            print(f"  {cell}  {move:.3g}  {text}{'  REFUSED' if unexpected else ''}")
            if unexpected:
                refused.append(cell)
    if refused:
        print(f"refused: {len(refused)} unexpected move(s) over {MOVE_LIMIT:g}; name them with --expect")
        return 1
    if not args.dry_run:
        GOLDEN_DIR.mkdir(exist_ok=True)
        for name in set(old) - set(new):
            (GOLDEN_DIR / name).unlink()
        for name, text in new.items():
            (GOLDEN_DIR / name).write_text(text, encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
