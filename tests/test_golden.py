"""Today's outputs equal the golden record in ``tests/golden/`` exactly.

When a change moves outputs on purpose, rewrite the record with
``tests/golden_record.py``; it lists the moved cells for CHANGES.md.
"""

from decimal import Decimal

import pytest

from golden_record import INFINITE, MOVE_LIMIT, current_outputs, moves, recorded_outputs

RECORDED = recorded_outputs()


@pytest.fixture(scope="module")
def outputs():
    return current_outputs()


def test_record_covers_every_output(outputs):
    assert sorted(outputs) == sorted(RECORDED)


@pytest.mark.parametrize("name", sorted(RECORDED))
def test_output_equals_golden_record(outputs, name):
    assert moves(RECORDED[name], outputs[name], name) == []
    assert outputs[name] == RECORDED[name]


def test_moves_name_each_cell_and_its_size():
    old = "# tool: x\nq,c\n0,0.391918358763\n1,0.5\n"
    new = "# tool: y\nq,c\n0,0.391918358845\n1,0.5\n"
    found = moves(old, new, "f.csv")
    assert [cell for cell, _, _ in found] == ["f.csv:1", "f.csv:3:2"]
    assert found[0][1] == INFINITE
    assert found[1][1] == Decimal("8.2e-11") > MOVE_LIMIT
    assert found[1][2].endswith("...845 (was ...763)")
    # A flip of the twelfth digit in [0.1, 1) is a move of exactly 1e-12.
    assert moves("c\n0.206061069682\n", "c\n0.206061069681\n", "f.csv")[0][1] == MOVE_LIMIT
    assert moves(old, None, "f.csv")[0][1] == INFINITE
