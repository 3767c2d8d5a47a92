import dataclasses
import io
import math

import numpy as np
import pytest

from unruhkit import (
    Channel,
    NotPSDError,
    SingularPointError,
    Method,
    ParseError,
    QfiForm,
    Quantity,
    UnknownPresetError,
    emit_csv,
    figure_preset,
    grid_values,
    parse_spec,
    render_csv_body,
    run_sweep,
)
from unruhkit import sweep as sweep_module
from unruhkit.sweep import FIGURE_PRESETS, SweepSpec, format_cell
from oracles import pure_ket_concurrence, werner_concurrence

SINGLET_X = 1.0 / math.sqrt(2.0)


class TestGridValues:
    def test_unit_range_row_count(self):
        values = grid_values(0.0, 1.0, 0.01)
        assert len(values) == 101
        assert values[0] == 0.0
        assert values[-1] == 1.0

    def test_last_value_clamped_to_stop(self):
        values = grid_values(0.0, 0.8, 0.01)
        assert len(values) == 81
        assert values[-1] == 0.8

    def test_generic_count(self):
        assert len(grid_values(0.0, 1.0, 0.25)) == 5
        assert len(grid_values(0.2, 0.3, 0.04)) == 3


class TestParseSpec:
    def test_happy_path(self):
        spec = parse_spec(
            "--channel white --vary p --range 0:1:0.01 --x 0.2 --r 0,0.5,0.8 "
            "--quantity concurrence --method both".split()
        )
        assert spec.channel is Channel.WHITE
        assert spec.vary == "p"
        assert (spec.start, spec.stop, spec.step) == (0.0, 1.0, 0.01)
        assert spec.fixed["x"] == (0.2,)
        assert spec.fixed["r"] == (0.0, 0.5, 0.8)
        assert spec.quantity is Quantity.CONCURRENCE
        assert spec.method is Method.BOTH

    def test_reversed_range_rejected(self):
        with pytest.raises(ParseError, match="start must be below stop"):
            parse_spec(
                "--channel white --vary p --range 1:0:0.1 --x 0.2 --r 0 "
                "--quantity concurrence".split()
            )

    def test_nan_step_rejected(self):
        with pytest.raises(ParseError, match="step must be positive"):
            parse_spec(
                "--channel white --vary p --range 0:1:nan --x 0.2 --r 0 "
                "--quantity concurrence".split()
            )

    def test_combined_strengths_rejected(self):
        with pytest.raises(ParseError, match="p\\+q"):
            parse_spec(
                "--channel whitecolor --vary x --range 0:1:0.1 --p 0.7 --q 0.5 --r 0 "
                "--quantity concurrence".split()
            )

    def test_unknown_flag(self):
        with pytest.raises(ParseError, match="unknown flag"):
            parse_spec("--chanel white".split())

    def test_missing_required(self):
        with pytest.raises(ParseError, match="--p is required"):
            parse_spec(
                "--channel white --vary x --range 0:1:0.1 --r 0 --quantity concurrence".split()
            )

    def test_varied_parameter_must_not_be_fixed(self):
        with pytest.raises(ParseError, match="do not also fix"):
            parse_spec(
                "--channel white --vary p --range 0:1:0.1 --p 0.5 --x 0.2 --r 0 "
                "--quantity concurrence".split()
            )

    def test_quantity_needs_channel_parameter(self):
        with pytest.raises(ParseError, match="qfi-q"):
            parse_spec(
                "--channel white --vary p --range 0:1:0.1 --x 0.2 --r 0 "
                "--quantity qfi-q".split()
            )

    def test_closed_qfi_only_for_white(self):
        with pytest.raises(ParseError, match="closed QFI"):
            parse_spec(
                "--channel color --vary q --range 0:1:0.1 --x 0.2 --r 0 "
                "--quantity qfi-q --method both".split()
            )

    def test_acceleration_ceiling(self):
        # Up to the published-figure ceiling 0.8 parses (with a provenance
        # note past pi/4); beyond it is rejected.
        spec = parse_spec(
            "--channel white --vary p --range 0:1:0.1 --x 0.2 --r 0.8 "
            "--quantity concurrence".split()
        )
        assert spec.r_limit == pytest.approx(0.8)
        assert any("pi/4" in note for note in spec.notes)
        with pytest.raises(ParseError, match="--r"):
            parse_spec(
                "--channel white --vary p --range 0:1:0.1 --x 0.2 --r 0.9 "
                "--quantity concurrence".split()
            )

    def test_grid_row_cap(self):
        # Refused before any row is built: grid_values would list 1e12 rows.
        with pytest.raises(ParseError, match="gives 1000000000001 grid rows"):
            parse_spec(
                "--channel white --vary p --range 0:1:1e-12 --x 0.2 --r 0 "
                "--quantity concurrence".split()
            )
        spec = SweepSpec(
            channel=Channel.WHITE,
            vary="p",
            start=0.0,
            stop=1.0,
            step=1.0 / sweep_module.MAX_GRID_ROWS,
            fixed={"x": (0.2,), "r": (0.0,)},
            quantity=Quantity.CONCURRENCE,
        )
        with pytest.raises(ParseError, match=f"gives {sweep_module.MAX_GRID_ROWS + 1} grid rows"):
            sweep_module.validate_spec(spec)
        with pytest.raises(ParseError, match="gives inf grid rows"):
            sweep_module.validate_spec(dataclasses.replace(spec, step=5e-324))
        sweep_module.validate_spec(
            dataclasses.replace(spec, step=1.0 / (sweep_module.MAX_GRID_ROWS - 1))
        )

    def test_config_provides_defaults_and_flags_win(self):
        config = "\n".join(
            [
                "# config for a concurrence scan",
                "channel = white",
                "vary = p",
                "range = 0:1:0.5",
                "x = 0.9",
                "r = 0",
                "quantity = concurrence",
                "method = numeric",
            ]
        )
        spec = parse_spec(["--x", "0.2"], config_text=config)
        assert spec.fixed["x"] == (0.2,)
        assert spec.method is Method.NUMERIC

    def test_config_rejects_unknown_key(self):
        with pytest.raises(ParseError, match="config line"):
            parse_spec([], config_text="wat = 1")


class TestFigurePresets:
    def test_caption_table(self):
        # Literal table of caption parameters, kept independent of the
        # preset-building code.
        r3 = (0.0, 0.5, 0.8)
        x3 = (0.2, 0.4, SINGLET_X)
        expected = {
            "fig1a": ("white", "p", {"x": (0.2,), "r": r3}, "concurrence", None),
            "fig1b": ("white", "p", {"x": (0.4,), "r": r3}, "concurrence", None),
            "fig1c": ("white", "p", {"x": (SINGLET_X,), "r": r3}, "concurrence", None),
            "fig2a": ("white", "x", {"p": (0.4,), "r": r3}, "concurrence", None),
            "fig2b": ("white", "x", {"p": (0.8,), "r": r3}, "concurrence", None),
            "fig3a": ("color", "q", {"x": (0.2,), "r": r3}, "concurrence", None),
            "fig3b": ("color", "q", {"x": (0.4,), "r": r3}, "concurrence", None),
            "fig3c": ("color", "q", {"x": (SINGLET_X,), "r": r3}, "concurrence", None),
            "fig4a": ("color", "x", {"q": (0.4,), "r": r3}, "concurrence", None),
            "fig4b": ("color", "x", {"q": (0.8,), "r": r3}, "concurrence", None),
            "fig5a": ("whitecolor", "q", {"x": (0.4,), "p": (0.2,), "r": r3}, "concurrence", None),
            "fig5b": ("whitecolor", "q", {"x": (0.4,), "p": (0.5,), "r": r3}, "concurrence", None),
            "fig5c": ("whitecolor", "q", {"x": (0.4,), "p": (0.8,), "r": r3}, "concurrence", None),
            "fig6a": ("whitecolor", "x", {"q": (0.2,), "p": (0.5,), "r": r3}, "concurrence", None),
            "fig6b": ("whitecolor", "x", {"q": (0.2,), "p": (0.8,), "r": r3}, "concurrence", None),
            "fig7a": ("whitecolor", "r", {"q": (0.2,), "p": (0.5,), "x": x3}, "concurrence", None),
            "fig7b": ("whitecolor", "r", {"q": (0.2,), "p": (0.8,), "x": x3}, "concurrence", None),
            "fig8a": ("white", "p", {"x": (0.2,), "r": r3}, "qfi-p", "single"),
            "fig8b": ("white", "p", {"x": (0.2,), "r": r3}, "qfi-p", "two"),
            "fig9a": ("white", "x", {"p": (0.2,), "r": r3}, "qfi-x", "single"),
            "fig9b": ("white", "x", {"p": (0.2,), "r": r3}, "qfi-x", "two"),
            "fig10a": ("white", "r", {"p": (0.2,), "x": x3}, "qfi-r", "single"),
            "fig10b": ("white", "r", {"p": (0.2,), "x": x3}, "qfi-r", "two"),
            "fig11a": ("color", "q", {"x": (0.2,), "r": r3}, "qfi-q", "two"),
            "fig11b": ("color", "x", {"q": (0.2,), "r": r3}, "qfi-x", "two"),
            "fig11c": ("color", "r", {"q": (0.2,), "x": x3}, "qfi-r", "two"),
        }
        assert set(FIGURE_PRESETS) == set(expected)
        for name, (channel, vary, fixed, quantity, form) in expected.items():
            spec = figure_preset(name)
            assert spec.channel.value == channel, name
            assert spec.vary == vary, name
            assert spec.quantity.value == quantity, name
            assert set(spec.fixed) == set(fixed), name
            for key, values in fixed.items():
                assert spec.fixed[key] == pytest.approx(values), (name, key)
            if form is not None:
                assert spec.qfi_form.value == form, name
            if vary == "r":
                assert spec.stop == pytest.approx(math.pi / 4)
            elif name.startswith("fig5"):
                assert spec.stop == pytest.approx(1.0 - fixed["p"][0])
            else:
                assert (spec.start, spec.stop) == (0.0, 1.0)

    def test_r_series_presets_note_the_bound(self):
        spec = figure_preset("fig1a")
        assert spec.r_limit == pytest.approx(0.8)
        assert any("pi/4" in note for note in spec.notes)

    def test_unknown_preset(self):
        with pytest.raises(UnknownPresetError, match="fig1a"):
            figure_preset("fig99")


class TestRunSweep:
    def test_fig1a_reference_values(self):
        table = run_sweep(figure_preset("fig1a"))
        assert len(table.rows) == 101
        assert table.columns[0] == "p"
        column = table.columns.index("concurrence[r=0]:numeric")
        last = table.rows[-1]
        assert last[0] == 1.0
        assert last[column] == pytest.approx(pure_ket_concurrence(0.2), abs=1e-8)

    def test_werner_spec_numeric_column(self):
        spec = SweepSpec(
            channel=Channel.WHITE,
            vary="p",
            start=0.0,
            stop=1.0,
            step=0.05,
            fixed={"x": (SINGLET_X,), "r": (0.0,)},
            quantity=Quantity.CONCURRENCE,
            method=Method.NUMERIC,
        )
        table = run_sweep(spec)
        for row in table.rows:
            assert row[1] == pytest.approx(werner_concurrence(row[0]), abs=1e-10)

    def test_constant_quantity_column_is_zero(self):
        spec = SweepSpec(
            channel=Channel.COLOR,
            vary="q",
            start=0.0,
            stop=1.0,
            step=0.25,
            fixed={"x": (0.0,), "r": (0.2,)},
            quantity=Quantity.CONCURRENCE,
            method=Method.NUMERIC,
        )
        table = run_sweep(spec)
        assert all(row[1] == 0.0 for row in table.rows)

    def test_series_and_method_expansion(self):
        spec = figure_preset("fig1a")
        table = run_sweep(spec)
        assert table.columns == [
            "p",
            "concurrence[r=0]:numeric",
            "concurrence[r=0]:closed",
            "concurrence[r=0.5]:numeric",
            "concurrence[r=0.5]:closed",
            "concurrence[r=0.8]:numeric",
            "concurrence[r=0.8]:closed",
        ]

    def test_singular_cells_become_none_with_warning(self):
        spec = SweepSpec(
            channel=Channel.WHITE,
            vary="p",
            start=0.0,
            stop=0.5,
            step=0.25,
            fixed={"x": (0.2,), "r": (0.5,)},
            quantity=Quantity.QFI_P,
            method=Method.CLOSED,
            qfi_form=QfiForm.TWO,
        )
        table = run_sweep(spec)
        assert table.rows[0][1] is None  # no coherence at p=0
        assert table.rows[1][1] is not None
        assert table.warnings.get("SingularPointError") == 1
        assert any("empty-cells: 1" in line for line in table.provenance)

    def test_stacked_column_fallback_keeps_per_cell_reasons(self, monkeypatch):
        spec = SweepSpec(
            channel=Channel.WHITE,
            vary="p",
            start=0.0,
            stop=1.0,
            step=0.25,
            fixed={"x": (0.3,), "r": (0.0,)},
            quantity=Quantity.CONCURRENCE,
            method=Method.NUMERIC,
        )
        reference = run_sweep(spec)
        engine = sweep_module.concurrence
        # At r=0 the white state's rho_00 is (1 - p)/4: p=0.25 and p=0.5 fail.
        failing = {0.1875: NotPSDError, 0.125: SingularPointError}

        def flaky(rho):
            if np.ndim(rho) > 2:
                raise NotPSDError("stacked call refused")
            kind = failing.get(rho[0, 0].real)
            if kind is not None:
                raise kind("injected")
            return engine(rho)

        monkeypatch.setattr(sweep_module, "concurrence", flaky)
        table = run_sweep(spec)
        want = [None if row[0] in (0.25, 0.5) else row[1] for row in reference.rows]
        assert [row[1] for row in table.rows] == want
        assert table.warnings == {"NotPSDError": 1, "SingularPointError": 1}
        assert any("empty-cells: 2" in line for line in table.provenance)

    @pytest.mark.parametrize(
        "name, want",
        [
            ("fig9b", {"FamilyEvalError": 3, "SingularPointError": 6}),
            ("fig11b", {"FamilyEvalError": 3}),
        ],
    )
    def test_x_one_cells_alone_are_rerun(self, name, want, monkeypatch):
        # At x=1 the complex step reaches the branch point of sqrt(1 - x^2).
        # The column call gives NaN there, and only that cell is rerun, to
        # learn its reason.
        shapes = []
        engine = sweep_module.qfi_two_qubit_spectral_retry

        def counting(family, theta, *args, **kwargs):
            shapes.append(np.shape(theta))
            return engine(family, theta, *args, **kwargs)

        monkeypatch.setattr(sweep_module, "qfi_two_qubit_spectral_retry", counting)
        table = run_sweep(figure_preset(name))
        assert shapes == [(101,), ()] * 3
        assert table.warnings == want

    def test_numeric_qfi_meets_closed_form_next_to_x_one(self):
        # The complex-step derivative has no truncation error to grow where
        # d sqrt(1 - x^2)/dx does.
        table = run_sweep(figure_preset("fig9b"))
        (row,) = [row for row in table.rows if row[0] == 0.99]
        for numeric, closed in zip(row[1::2], row[2::2]):
            assert numeric == pytest.approx(closed, rel=1e-12, abs=0)

    def test_determinism(self):
        spec = figure_preset("fig3b")
        first = run_sweep(spec)
        second = run_sweep(spec)
        assert first.columns == second.columns
        assert first.rows == second.rows
        assert render_csv_body(first) == render_csv_body(second)

    def test_whitecolor_strength_edge_runs(self):
        table = run_sweep(figure_preset("fig5a"))
        assert len(table.rows) == 81
        assert table.rows[-1][0] == pytest.approx(0.8)


class TestCsvEmission:
    def test_format_cell(self):
        assert format_cell(None) == ""
        assert format_cell(0.85) == "0.85"
        assert format_cell(1 / 3) == "0.333333333333"
        assert len(format_cell(math.pi).replace(".", "").lstrip("0")) == 12

    def test_emit_layout(self, tmp_path):
        spec = SweepSpec(
            channel=Channel.WHITE,
            vary="p",
            start=0.0,
            stop=1.0,
            step=0.5,
            fixed={"x": (0.3,), "r": (0.0,)},
            quantity=Quantity.CONCURRENCE,
            method=Method.BOTH,
        )
        table = run_sweep(spec)
        out = tmp_path / "scan.csv"
        emit_csv(table, out, timestamp="TEST")
        lines = out.read_text().splitlines()
        comments = [line for line in lines if line.startswith("#")]
        body = [line for line in lines if not line.startswith("#")]
        assert comments[-1] == "# generated: TEST"
        assert body[0] == "p,concurrence:numeric,concurrence:closed"
        assert len(body) == 1 + 3

    def test_empty_cell_is_empty_field(self):
        spec = SweepSpec(
            channel=Channel.WHITE,
            vary="p",
            start=0.0,
            stop=0.5,
            step=0.5,
            fixed={"x": (0.2,), "r": (0.1,)},
            quantity=Quantity.QFI_P,
            method=Method.CLOSED,
            qfi_form=QfiForm.SINGLE,
        )
        table = run_sweep(spec)
        table.rows[0][1] = None  # force a singular cell
        stream = io.StringIO()
        emit_csv(table, stream, timestamp="TEST")
        data_lines = [ln for ln in stream.getvalue().splitlines() if not ln.startswith("#")]
        assert data_lines[1].endswith(",")
        assert "nan" not in stream.getvalue().lower()

    def test_reemission_identical_up_to_timestamp(self, tmp_path):
        table = run_sweep(figure_preset("fig4a"))
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(table, first)
        emit_csv(table, second)
        strip = lambda path: [
            line for line in path.read_text().splitlines() if not line.startswith("# generated")
        ]
        assert strip(first) == strip(second)
