import copy
import dataclasses
import io
import math
import pickle

import numpy as np
import pytest

from unruhkit import (
    Channel,
    NotPSDError,
    SingularPointError,
    Method,
    ParseError,
    QfiForm,
    RINDLER_R_MAX,
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
from unruhkit.cli import main
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

    def test_raw_overshoot_clamped_to_stop(self):
        # The last raw step 0 + 3 * 0.1 is 0.30000000000000004.
        assert 0.0 + 3 * 0.1 > 0.3
        assert grid_values(0.0, 0.3, 0.1).tolist() == [0.0, 0.1, 0.2, 0.3]

    def test_first_column_is_the_grid(self, sweep_small_pools):
        # The grid as one float64 array is the per-row loop's grid bit for
        # bit, and each table's first column holds its Python floats.
        pools = [parse_spec(argv) for pool in sweep_small_pools.values() for argv in pool]
        for spec in [*FIGURE_PRESETS.values(), *pools]:
            grid = grid_values(spec.start, spec.stop, spec.step)
            loop = [min(spec.start + i * spec.step, spec.stop) for i in range(len(grid))]
            assert list(map(float.hex, grid.tolist())) == list(map(float.hex, loop)), spec
            first = [row[0] for row in run_sweep(spec).rows]
            assert all(type(value) is float for value in first), spec
            assert list(map(float.hex, first)) == list(map(float.hex, loop)), spec


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
        with pytest.raises(ParseError, match="unknown flag --chanel"):
            parse_spec("--chanel white".split())
        with pytest.raises(ParseError, match="unknown flag --chanel"):
            parse_spec({"chanel": "white"})

    def test_mapping_gives_what_its_tokens_give(self):
        tokens = "--channel white --vary p --range 0:1:0.01 --x 0.2 --r 0,0.5 --quantity qfi-p".split()
        assert parse_spec({k[2:]: v for k, v in zip(tokens[::2], tokens[1::2])}) == parse_spec(tokens)

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
        assert any("pi/4" in line for line in run_sweep(spec).provenance)
        with pytest.raises(ParseError, match="--r"):
            parse_spec(
                "--channel white --vary p --range 0:1:0.1 --x 0.2 --r 0.9 "
                "--quantity concurrence".split()
            )

    def test_r_limit_cannot_be_set(self):
        # The ceiling is read from the r values, so no spec sets it past them.
        fields = dict(
            channel=Channel.WHITE,
            vary="p",
            start=0.0,
            stop=1.0,
            step=0.5,
            fixed={"x": (0.5,), "r": (1.5,)},
            quantity=Quantity.CONCURRENCE,
        )
        with pytest.raises(TypeError, match="r_limit"):
            SweepSpec(**fields, r_limit=1.5)
        with pytest.raises(ParseError, match=r"--r: value 1.5 outside \[0, 0.8\]"):
            SweepSpec(**fields)
        with pytest.raises(ParseError, match=r"--r: value 0.9 outside"):
            dataclasses.replace(FIGURE_PRESETS["fig10a"], stop=0.9)

    def test_r_limit_follows_replaced_r_values(self):
        # A spec keeps no ceiling, or its note, that its r values no longer reach.
        narrowed = dataclasses.replace(FIGURE_PRESETS["fig1a"], fixed={"x": (0.2,), "r": (0.0, 0.5)})
        assert narrowed.r_limit == RINDLER_R_MAX
        assert not any("pi/4" in line for line in run_sweep(narrowed).provenance)

    @pytest.mark.parametrize(
        "flags",
        [
            "--channel white --vary x --range 0:1:0.5 --p 1.0000000000005 --r 0",
            "--channel white --vary p --range 0:1:0.5 --x 1.0000000000005 --r 0",
            "--channel white --vary p --range 0:1.0000000000005:0.5 --x 0.3 --r 0",
        ],
    )
    def test_values_past_the_model_domain_rejected(self, flags, capsys):
        # The model's own rule decides: a value above 1 by any amount is
        # refused, as every state builder refuses it.
        argv = f"{flags} --quantity concurrence".split()
        with pytest.raises(ParseError, match=r"=1\.0000000000005 outside \[0, 1\]"):
            parse_spec(argv)
        assert main(["sweep", *argv]) == 1
        assert "outside [0, 1]" in capsys.readouterr().err
        parse_spec([token.replace("1.0000000000005", "1") for token in argv])

    def test_grid_row_cap(self):
        # Refused before any row is built: grid_values would list 1e12 rows.
        with pytest.raises(ParseError, match="gives 1000000000001 grid rows"):
            parse_spec(
                "--channel white --vary p --range 0:1:1e-12 --x 0.2 --r 0 "
                "--quantity concurrence".split()
            )
        # A spec is validated when it is built, so one past the cap is never made.
        spec = SweepSpec(
            channel=Channel.WHITE,
            vary="p",
            start=0.0,
            stop=1.0,
            step=1.0 / (sweep_module.MAX_GRID_ROWS - 1),
            fixed={"x": (0.2,), "r": (0.0,)},
            quantity=Quantity.CONCURRENCE,
        )
        sweep_module.validate_spec(spec)
        with pytest.raises(ParseError, match=f"gives {sweep_module.MAX_GRID_ROWS + 1} grid rows"):
            dataclasses.replace(spec, step=1.0 / sweep_module.MAX_GRID_ROWS)
        with pytest.raises(ParseError, match="gives inf grid rows"):
            dataclasses.replace(spec, step=5e-324)

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


# A valid white-channel spec, as SweepSpec fields and as sweep flags.
SPEC_FIELDS = dict(
    channel=Channel.WHITE,
    vary="p",
    start=0.0,
    stop=1.0,
    step=0.5,
    fixed={"x": (0.3,), "r": (0.0,)},
    quantity=Quantity.CONCURRENCE,
)
SPEC_FLAGS = "--channel white --vary p --range 0:1:0.5 --x 0.3 --r 0 --quantity concurrence"


class TestParameterSetRules:
    """A spec built in code keeps the rules of the parameter set that the
    sweep flags keep, with the message the CLI prints for the same mistake."""

    @pytest.mark.parametrize(
        "fields, flags, message",
        [
            (
                {"vary": "q"},
                SPEC_FLAGS.replace("--vary p", "--vary q"),
                "--vary: 'q' is not a white-channel parameter ('x', 'p', 'r')",
            ),
            (
                {"fixed": {"x": (0.3,)}},
                SPEC_FLAGS.replace(" --r 0", ""),
                "--r is required for the white channel",
            ),
            (
                {"fixed": {"x": (0.3,)}, "quantity": Quantity.QFI_P},
                SPEC_FLAGS.replace(" --r 0", "").replace("concurrence", "qfi-p"),
                "--r is required for the white channel",
            ),
            (
                {"fixed": {"x": (0.3,), "p": (0.5,), "r": (0.0,)}},
                SPEC_FLAGS + " --p 0.5",
                "--p: parameter is being varied, do not also fix it",
            ),
            (
                {"fixed": {"x": (0.3,), "q": (0.5,), "r": (0.0,)}},
                SPEC_FLAGS + " --q 0.5",
                "--q: not a white-channel parameter",
            ),
            (
                {"fixed": {"x": (), "r": (0.0,)}},
                SPEC_FLAGS.replace(" --x 0.3", "") + " --x",
                "--x: missing value (scalar or comma-list)",
            ),
            (
                {"fixed": {"x": (0.2, 0.2), "r": (0.0, 0.0)}},
                SPEC_FLAGS.replace("--x 0.3 --r 0", "--x 0.2,0.2 --r 0,0.0"),
                "--x: a value is given twice in 0.2,0.2",
            ),
            (
                {"fixed": {"x": (0.3,), "r": (0.0, 0.5, 0)}},
                SPEC_FLAGS.replace("--r 0", "--r 0,0.5,0.0"),
                "--r: a value is given twice in 0,0.5,0",
            ),
        ],
        ids=[
            "vary-foreign", "r-missing", "r-missing-qfi", "varied-fixed", "fixed-foreign", "empty-values",
            "repeated-values", "repeated-r",
        ],
    )
    def test_spec_built_in_code_breaks_the_rule_as_the_cli_does(self, fields, flags, message, capsys):
        assert main(["sweep", *flags.split()]) == 1
        assert capsys.readouterr().err == f"unruhkit: {message}\n"
        with pytest.raises(ParseError) as direct:
            SweepSpec(**{**SPEC_FIELDS, **fields})
        assert str(direct.value) == message
        with pytest.raises(ParseError) as replaced:
            dataclasses.replace(FIGURE_PRESETS["fig1a"], **fields)
        assert str(replaced.value) == message


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
        assert any("pi/4" in line for line in run_sweep(spec).provenance)

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
        # A column is one call with no per-cell fallback: a cell error the
        # column call raises propagates out of run_sweep.
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
        shapes = []

        def refusing(rho):
            shapes.append(np.shape(rho))
            raise NotPSDError("stacked call refused")

        monkeypatch.setattr(sweep_module, "concurrence", refusing)
        with pytest.raises(NotPSDError, match="stacked call refused"):
            run_sweep(spec)
        assert shapes == [(5, 4, 4)]

    @pytest.mark.parametrize(
        "name, want",
        [
            ("fig9b", {"FamilyEvalError": 3, "SingularPointError": 6}),
            ("fig11b", {"FamilyEvalError": 3}),
        ],
    )
    def test_x_one_cells_alone_are_rerun(self, name, want, monkeypatch):
        # At x=1 the complex step reaches the branch point of sqrt(1 - x^2).
        # The one call over the three series gives NaN there, and the cell
        # takes its reason from the NaN mask: no cell is rerun.
        shapes = []
        engine = sweep_module.qfi_two_qubit_spectral_retry

        def counting(family, theta, *args, **kwargs):
            shapes.append(np.shape(theta))
            return engine(family, theta, *args, **kwargs)

        monkeypatch.setattr(sweep_module, "qfi_two_qubit_spectral_retry", counting)
        table = run_sweep(figure_preset(name))
        assert shapes == [(3, 101)]
        assert table.warnings == want

    def test_theta_free_reduced_family_column_is_zero(self, monkeypatch, capsys):
        # The combined channel's reduced state does not depend on q, so its
        # family returns one 2x2 matrix; it broadcasts over the column.
        shapes = []
        engine = sweep_module.qfi_single_bloch

        def counting(family, theta):
            shapes.append(np.shape(theta))
            return engine(family, theta)

        monkeypatch.setattr(sweep_module, "qfi_single_bloch", counting)
        argv = (
            "--channel whitecolor --vary q --range 0:0.5:0.25 --x 0.3 --p 0.2 --r 0.1 "
            "--quantity qfi-q --qfi-form single --method numeric"
        ).split()
        assert main(["sweep", *argv]) == 0
        rows = [line for line in capsys.readouterr().out.splitlines() if not line.startswith("#")]
        assert rows == ["q,qfi-q-single:numeric", "0,0", "0.25,0", "0.5,0"]
        assert shapes == [(3,)]

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

    @staticmethod
    def per_cell_body(table):
        rows = [",".join("" if c is None else format(c, ".12g") for c in row) for row in table.rows]
        return "\n".join([",".join(table.columns), *rows]) + "\n"

    def test_body_is_the_per_cell_format(self):
        # Full rows go through one whole-row template, rows with an empty cell
        # cell by cell; both must give format(c, ".12g") per cell exactly.
        cells = [0.0, -0.0, 1 / 3, math.pi * 1e-300, 5e-324, 1.5e300, -2.5e-7, 123456789012.5, 0.85, 7]
        rows = [cells, [None, *cells[1:]], [*cells[:-1], None], [None] * len(cells), cells[::-1]]
        table = sweep_module.SweepTable(
            columns=[f"c{i}" for i in range(len(cells))], rows=rows, provenance=[]
        )
        assert render_csv_body(table) == self.per_cell_body(table)
        for name in ("fig1a", "fig9b"):  # fig9b has empty cells
            table = run_sweep(figure_preset(name))
            assert render_csv_body(table) == self.per_cell_body(table)
        assert any(None in row for row in table.rows)

    def test_chunks_render_as_the_per_cell_format(self, monkeypatch):
        # 3 columns of 1,500 rows hold 4,500 cells: a chunk of 1,365 rows
        # (4,095 cells) and a chunk of 135 rows, the second with an empty cell.
        per_chunk = sweep_module.channels.BLOCK_CELLS // 3
        rows = [[i / 7, -math.pi * i, 1e-300 * (i + 1)] for i in range(1500)]
        rows[per_chunk + 7][1] = None
        table = sweep_module.SweepTable(columns=["a", "b", "c"], rows=rows, provenance=[])
        assert render_csv_body(table) == self.per_cell_body(table)
        # One row of fig9b's 7 cells per chunk; its rows x=0 and x=1 hold the
        # 9 empty cells.
        monkeypatch.setattr(sweep_module.channels, "BLOCK_CELLS", 8)
        table = run_sweep(figure_preset("fig9b"))
        assert [row[0] for row in table.rows if None in row] == [0.0, 1.0]
        assert render_csv_body(table) == self.per_cell_body(table)

    def test_reemission_identical_up_to_timestamp(self, tmp_path):
        table = run_sweep(figure_preset("fig4a"))
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(table, first)
        emit_csv(table, second)
        strip = lambda path: [
            line for line in path.read_text().splitlines() if not line.startswith("# generated")
        ]
        assert strip(first) == strip(second)


class TestLabelsAndEcho:
    CLOSE_X = (
        "--channel white --vary p --range 0:1:0.5 --x 0.1234567,0.1234568 --r 0 "
        "--quantity concurrence --method numeric"
    ).split()

    @staticmethod
    def _echo_flags(spec) -> list[str]:
        """The ``spec:`` provenance line of ``spec``'s run as sweep flags."""
        (line,) = [line for line in run_sweep(spec).provenance if line.startswith("spec: ")]
        pairs = (pair.split("=") for pair in line.split()[1:])
        return [token for key, value in pairs for token in (f"--{key}", value)]

    def test_series_that_print_alike_get_distinct_names(self, capsys):
        assert main(["sweep", *self.CLOSE_X]) == 0
        header = [line for line in capsys.readouterr().out.splitlines() if not line.startswith("#")][0]
        assert header == "p,concurrence[x=0.1234567]:numeric,concurrence[x=0.1234568]:numeric"

    @pytest.mark.parametrize("name", [None, *FIGURE_PRESETS])
    def test_echo_reads_back_as_the_spec(self, name):
        spec = parse_spec(self.CLOSE_X) if name is None else FIGURE_PRESETS[name]
        flags = self._echo_flags(spec)
        for flag, text in zip(flags[::2], flags[1::2]):
            if flag in ("--x", "--p", "--q", "--r"):
                assert tuple(map(float, text.split(","))) == spec.fixed[flag[2:]]
            if flag == "--range":
                assert tuple(map(float, text.split(":"))) == (spec.start, spec.stop, spec.step)
        again = parse_spec(flags)
        fields = ("channel", "vary", "start", "stop", "step", "fixed", "quantity", "method", "qfi_form", "r_limit")
        for field in fields:
            assert getattr(again, field) == getattr(spec, field), (name, field)

    def test_preset_headers_keep_the_g_format(self):
        # Every preset's series print apart under :g, so its header is the
        # one the :g labels give.
        for name, spec in FIGURE_PRESETS.items():
            multi = [k for k in ("x", "p", "q", "r") if len(spec.fixed.get(k, ())) > 1]
            want = [spec.vary]
            for value in spec.fixed[multi[0]]:
                base = sweep_module._quantity_base(spec)
                want += [f"{base}[{multi[0]}={value:g}]:{variant}" for variant in spec.method.variants]
            assert run_sweep(spec).columns == want, name


class TestFrozenSpec:
    """A valid spec stays valid: ``fixed`` is read-only, in the channel's
    parameter order, and every number is a Python float."""

    NUMPY_FIELDS = dict(
        channel=Channel.WHITE,
        vary="p",
        start=np.float64(0.0),
        stop=np.int64(1),
        step=np.float64(0.5),
        fixed={"r": (np.float64(0.1), np.float64(0.1000000001)), "x": (np.float64(1 / 3),)},
        quantity=Quantity.CONCURRENCE,
    )

    @pytest.mark.parametrize("name", ["x", "r", "q"])
    def test_fixed_refuses_assignment(self, name):
        spec = FIGURE_PRESETS["fig1a"]
        with pytest.raises(TypeError):
            spec.fixed[name] = ()
        assert spec.fixed == {"x": (0.2,), "r": (0.0, 0.5, 0.8)}

    def test_builder_dict_is_copied(self):
        fields = {**self.NUMPY_FIELDS, "fixed": dict(self.NUMPY_FIELDS["fixed"])}
        spec = SweepSpec(**fields)
        fields["fixed"]["x"] = ()
        assert spec.fixed["x"] == (1 / 3,)

    def test_numbers_are_floats_in_parameter_order(self):
        spec = SweepSpec(**self.NUMPY_FIELDS)
        assert list(spec.fixed) == ["x", "r"]
        numbers = [spec.start, spec.stop, spec.step, *(v for group in spec.fixed.values() for v in group)]
        assert {type(v) for v in numbers} == {float}

    def test_numpy_spec_prints_plain_numbers(self):
        spec = SweepSpec(**self.NUMPY_FIELDS)
        table = run_sweep(spec)
        assert table.columns == [
            "p",
            "concurrence[r=0.1]:numeric",
            "concurrence[r=0.1]:closed",
            "concurrence[r=0.1000000001]:numeric",
            "concurrence[r=0.1000000001]:closed",
        ]
        assert table.provenance[1] == (
            "spec: channel=white vary=p range=0:1:0.5 x=0.3333333333333333 r=0.1,0.1000000001 "
            "quantity=concurrence method=both qfi-form=two"
        )
        assert parse_spec(TestLabelsAndEcho._echo_flags(spec)) == spec

    @pytest.mark.parametrize("name", sorted(FIGURE_PRESETS))
    def test_preset_survives_pickle_and_deepcopy(self, name):
        spec = FIGURE_PRESETS[name]
        for again in (pickle.loads(pickle.dumps(spec)), copy.deepcopy(spec)):
            assert again == spec and again is not spec
            with pytest.raises(TypeError):
                again.fixed["x"] = ()
