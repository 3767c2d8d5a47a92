"""Write the reference outputs the benchmark gates against.

Run from the repository root, at the commit the references should pin:

    python3 perfbench/make_reference.py

It writes one CSV body per figure preset to ``perfbench/reference/figures/``
and the verdict of every ``verify`` check at the benchmark's grid to
``perfbench/reference/verify_grid<N>.json``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from unruhkit import sweep, verify  # noqa: E402

from workloads import REFERENCE_DIR, VERIFY_GRID  # noqa: E402


def main() -> None:
    figures = REFERENCE_DIR / "figures"
    figures.mkdir(parents=True, exist_ok=True)
    for name, spec in sorted(sweep.FIGURE_PRESETS.items()):
        body = sweep.render_csv_body(sweep.run_sweep(spec))
        (figures / f"{name}.csv").write_text(body, encoding="utf-8")
    report = verify.run_verification(grid_n=VERIFY_GRID)
    record = {
        "grid_n": VERIFY_GRID,
        "tolerance": report.tolerance,
        "passed": {check.name: bool(check.passed) for check in report.checks},
        "ledgered": [check.name for check in report.checks if check.ledgered],
    }
    path = REFERENCE_DIR / f"verify_grid{VERIFY_GRID}.json"
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
