import numpy as np
import pytest

from unruhkit import FamilyEvalError, StateFamily, qfi_single_bloch, qfi_two_qubit_spectral
from unruhkit.cli import main
from unruhkit.sweep import _FLAG_GRAMMAR

# A complete sweep; the last two tokens are the --x flag and its value.
SWEEP_FLAGS = [
    "--channel", "white",
    "--vary", "p",
    "--range", "0:1:0.5",
    "--r", "0",
    "--quantity", "concurrence",
    "--method", "numeric",
    "--x", "0.3",
]


def body(csv_text):
    return [line for line in csv_text.splitlines() if not line.startswith("# generated:")]


class TestSweepCommand:
    def test_sweep_to_stdout(self, capsys):
        rc = main(
            [
                "sweep",
                "--channel", "white",
                "--vary", "p",
                "--range", "0:1:0.5",
                "--x", "0.3",
                "--r", "0",
                "--quantity", "concurrence",
                "--method", "numeric",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        body = [line for line in out.splitlines() if not line.startswith("#")]
        assert body[0] == "p,concurrence:numeric"
        assert len(body) == 4

    def test_sweep_with_config_file(self, tmp_path, capsys):
        config = tmp_path / "scan.cfg"
        config.write_text(
            "channel = white\nvary = p\nrange = 0:1:0.5\nx = 0.3\nr = 0\n"
            "quantity = concurrence\nmethod = numeric\n"
        )
        assert main(["sweep", "--config", str(config)]) == 0
        assert "concurrence:numeric" in capsys.readouterr().out

    def test_missing_config_is_io_error(self, capsys):
        assert main(["sweep", "--config", "/no/such/file.cfg"]) == 3

    def test_usage_error(self, capsys):
        rc = main(
            [
                "sweep",
                "--channel", "white",
                "--vary", "p",
                "--range", "1:0:0.1",
                "--x", "0.2",
                "--r", "0",
                "--quantity", "concurrence",
            ]
        )
        assert rc == 1
        assert "start must be below stop" in capsys.readouterr().err

    def test_flags_before_and_after_out_write_the_same_csv(self, tmp_path):
        first, second = tmp_path / "first.csv", tmp_path / "second.csv"
        assert main(["sweep", *SWEEP_FLAGS[:6], "--out", str(first), *SWEEP_FLAGS[6:]]) == 0
        assert main(["sweep", "--out", str(second), *SWEEP_FLAGS]) == 0
        assert body(first.read_text()) == body(second.read_text())

    def test_config_out_key_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "out.csv"
        config = tmp_path / "scan.cfg"
        config.write_text(
            "channel = white\nvary = p\nrange = 0:1:0.5\nx = 0.3\nr = 0\n"
            f"quantity = concurrence\nout = {out}\n"
        )
        assert main(["sweep", "--config", str(config)]) == 1
        captured = capsys.readouterr()
        assert "config line 7: unknown key 'out'" in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_equals_form_is_unknown_flag(self, capsys):
        assert main(["sweep", *SWEEP_FLAGS[:-2], "--x=0.3"]) == 1
        assert "unknown flag --x=0.3" in capsys.readouterr().err

    def test_abbreviated_flag_is_unknown(self, capsys):
        assert main(["sweep", *SWEEP_FLAGS[:-2], "--meth", "numeric"]) == 1
        assert "unknown flag --meth" in capsys.readouterr().err

    def test_help_names_every_sweep_flag(self, capsys):
        assert main(["sweep", "--help"]) == 0
        text = capsys.readouterr().out
        for name in _FLAG_GRAMMAR:
            assert f"--{name} " in text


class TestFigureCommand:
    def test_unknown_preset(self, capsys):
        assert main(["figure", "fig99"]) == 1
        assert "valid names" in capsys.readouterr().err

    def test_sweep_flag_is_usage_error(self, capsys):
        assert main(["figure", "fig1a", "--channel", "white"]) == 1
        assert "unrecognized arguments: --channel white" in capsys.readouterr().err

    def test_unwritable_destination_is_io_error(self, capsys):
        assert main(["figure", "fig1a", "--out", "/no/such/dir/out.csv"]) == 3
        assert "i/o error" in capsys.readouterr().err


class TestVerifyCommand:
    def test_failure_exit_code(self, monkeypatch, capsys):
        from unruhkit import CheckRecord, VerificationReport
        import unruhkit.cli as cli

        def fake(tolerance, grid_n):
            report = VerificationReport(tolerance=tolerance, grid_n=grid_n)
            report.checks.append(
                CheckRecord(
                    name="synthetic",
                    grid="1",
                    max_residual=1.0,
                    threshold=1e-8,
                    passed=False,
                )
            )
            return report

        monkeypatch.setattr(cli, "run_verification", fake)
        assert main(["verify"]) == 2
        assert "overall: FAIL" in capsys.readouterr().out

    def test_nan_tolerance_is_usage_error(self, capsys):
        for tol in ("nan", "inf"):
            assert main(["verify", "--tol", tol, "--grid", "5"]) == 1
            assert "tolerance must be positive" in capsys.readouterr().err


class TestFamilyErrors:
    def test_single_engine_wraps_bad_family(self):
        broken = StateFamily(evaluate=lambda t: 1.0 / (t - t), param="p", dim=2)
        with pytest.raises(FamilyEvalError):
            qfi_single_bloch(broken, 0.5)

    def test_spectral_engine_rejects_non_finite(self):
        nan_matrix = np.full((4, 4), np.nan, dtype=complex)
        family = StateFamily(evaluate=lambda t: nan_matrix, param="p")
        with pytest.raises(FamilyEvalError):
            qfi_two_qubit_spectral(family, 0.5)
