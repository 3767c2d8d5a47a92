import errno
import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from unruhkit import FamilyEvalError, StateFamily, qfi_single_bloch, qfi_two_qubit_spectral
from unruhkit import cli, sweep
from unruhkit.cli import main
from unruhkit.sweep import _FLAG_GRAMMAR
from unruhkit.version import __version__

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

    def test_non_utf8_config_is_io_error(self, tmp_path, capsys):
        config = tmp_path / "scan.cfg"
        config.write_bytes(b"channel = white\n\xfe\n")
        assert main(["sweep", "--config", str(config)]) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("unruhkit: cannot read config: 'utf-8' codec can't decode byte 0xfe")
        assert captured.out == ""

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

    def test_unreadable_value_is_reported_before_a_broken_rule(self, capsys):
        # --p is both fixed while varied and not a float: the value that does
        # not read is the one reported.
        assert main(["sweep", *SWEEP_FLAGS, "--p", "zz"]) == 1
        assert capsys.readouterr().err == "unruhkit: --p: expected float, got 'zz'\n"

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

    @pytest.mark.parametrize("flag", ["--out", "--config"])
    def test_file_flag_without_value_is_usage_error(self, flag, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["sweep", *SWEEP_FLAGS, flag]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"unruhkit: {flag}: missing value (FILE)\n"
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag", ["--out", "--config"])
    def test_file_flag_equals_form_is_unknown_flag(self, flag, tmp_path, capsys):
        path = tmp_path / "file"
        assert main(["sweep", *SWEEP_FLAGS, f"{flag}={path}"]) == 1
        captured = capsys.readouterr()
        assert f"unknown flag {flag}={path}" in captured.err
        assert captured.out == ""
        assert not path.exists()

    def test_repeated_out_keeps_the_last(self, tmp_path, capsys):
        first, last = tmp_path / "first.csv", tmp_path / "last.csv"
        assert main(["sweep", "--out", str(first), *SWEEP_FLAGS, "--out", str(last)]) == 0
        assert capsys.readouterr().out == ""
        assert not first.exists()
        assert body(last.read_text())[-1].startswith("1,")

    def test_short_help_after_sweep_flags_prints_help(self, capsys):
        assert main(["sweep", "--channel", "white", "-h"]) == 0
        assert "--config FILE" in capsys.readouterr().out

    def test_version_is_not_a_sweep_flag(self, capsys):
        assert main(["sweep", "--version"]) == 1
        assert "unknown flag --version" in capsys.readouterr().err

    def test_module_entry_point_writes_the_in_process_csv(self, tmp_path):
        child, parent = tmp_path / "child.csv", tmp_path / "parent.csv"
        src = str(Path(cli.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-m", "unruhkit.cli", "sweep", *SWEEP_FLAGS, "--out", str(child)],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert main(["sweep", *SWEEP_FLAGS, "--out", str(parent)]) == 0
        assert body(child.read_text()) == body(parent.read_text())

    def test_command_line_is_walked_once(self, tmp_path, monkeypatch):
        # parse_spec takes the mapping the CLI has read; it walks no tokens again.
        walks, walk = [], sweep._tokens_to_mapping

        def counted(argv, *grammar):
            walks.append(list(argv))
            return walk(argv, *grammar)

        monkeypatch.setattr(cli, "_tokens_to_mapping", counted)
        monkeypatch.setattr(sweep, "_tokens_to_mapping", counted)
        assert main(["sweep", *SWEEP_FLAGS, "--out", str(tmp_path / "out.csv")]) == 0
        assert walks == [[*SWEEP_FLAGS, "--out", str(tmp_path / "out.csv")]]

    def test_help_names_every_sweep_flag(self, capsys):
        # One help text, built from the command table, names every flag of
        # every command wherever -h or --help stands.
        flags = [name for grammar in cli._COMMANDS.values() for name in grammar]
        assert set(_FLAG_GRAMMAR) < set(flags)
        for argv in (["sweep", "--help"], ["sweep", "--out", "-h"], ["figure", "fig1a", "-h"],
                     ["figure", "--help"], ["verify", "--tol", "-h"], ["verify", "--help"], ["-h"]):
            assert main(argv) == 0
            captured = capsys.readouterr()
            assert captured.err == ""
            for name in flags:
                assert f"--{name} " in captured.out


def sweep_to(path):
    return main(["sweep", *SWEEP_FLAGS, "--out", str(path)])


def figure_to(path):
    return main(["figure", "fig1a", "--out", str(path)])


class TestOutFile:
    """--out overwrites a regular file in place and cuts it to the CSV's length."""

    @pytest.mark.parametrize(
        "before, write",
        [(figure_to, sweep_to), (sweep_to, figure_to), (None, sweep_to)],
        ids=["shorter-leaves-no-stale-tail", "longer-grows-the-file", "new-path-is-created"],
    )
    def test_rewrite_equals_a_fresh_file(self, tmp_path, before, write):
        target, fresh = tmp_path / "out.csv", tmp_path / "fresh.csv"
        if before is not None:
            assert before(target) == 0
        assert write(target) == 0
        assert write(fresh) == 0
        assert target.stat().st_size == fresh.stat().st_size
        assert body(target.read_text()) == body(fresh.read_text())

    def test_failed_write_leaves_no_old_rows(self, tmp_path, monkeypatch, capsys):
        target = tmp_path / "out.csv"
        assert figure_to(target) == 0
        real_write = os.write
        calls = []

        def half_write(fd, data):
            # The first write takes half the bytes; the next finds the disk full.
            calls.append(len(data))
            if len(calls) > 1:
                raise OSError(errno.ENOSPC, "No space left on device")
            return real_write(fd, data[: len(data) // 2])

        monkeypatch.setattr(sweep.os, "write", half_write)
        assert sweep_to(target) == 3
        assert len(calls) == 2
        assert "No space left on device" in capsys.readouterr().err
        assert target.read_bytes() == b""

    def test_short_writes_give_the_whole_file(self, tmp_path, monkeypatch):
        # os.write may take fewer bytes than it is given; the rest follows.
        target, fresh = tmp_path / "out.csv", tmp_path / "fresh.csv"
        assert figure_to(target) == 0
        real_write = os.write
        monkeypatch.setattr(sweep.os, "write", lambda fd, data: real_write(fd, data[:7]))
        assert sweep_to(target) == 0
        monkeypatch.undo()
        assert sweep_to(fresh) == 0
        assert target.stat().st_size == fresh.stat().st_size
        assert body(target.read_text()) == body(fresh.read_text())

    def test_inode_and_mode_are_kept(self, tmp_path):
        target = tmp_path / "out.csv"
        assert figure_to(target) == 0
        target.chmod(0o600)
        inode = target.stat().st_ino
        assert sweep_to(target) == 0
        assert target.stat().st_ino == inode
        assert target.stat().st_mode & 0o777 == 0o600

    def test_symlink_updates_its_target(self, tmp_path):
        target, link, fresh = tmp_path / "out.csv", tmp_path / "link.csv", tmp_path / "fresh.csv"
        assert figure_to(target) == 0
        link.symlink_to(target)
        assert sweep_to(link) == 0
        assert sweep_to(fresh) == 0
        assert link.is_symlink()
        assert body(target.read_text()) == body(fresh.read_text())

    def test_dev_null(self, capsys):
        assert sweep_to(os.devnull) == 0
        assert capsys.readouterr() == ("", "")

    def test_directory_is_io_error(self, tmp_path, capsys):
        assert sweep_to(tmp_path) == 3
        assert "i/o error" in capsys.readouterr().err


class TestFigureCommand:
    def test_unknown_preset(self, capsys):
        assert main(["figure", "fig99"]) == 1
        assert "valid names" in capsys.readouterr().err

    def test_sweep_flag_is_usage_error(self, capsys):
        assert main(["figure", "fig1a", "--channel", "white"]) == 1
        captured = capsys.readouterr()
        assert "unknown flag --channel" in captured.err
        assert captured.out == ""

    def test_unwritable_destination_is_io_error(self, capsys):
        assert main(["figure", "fig1a", "--out", "/no/such/dir/out.csv"]) == 3
        assert "i/o error" in capsys.readouterr().err


class TestVerifyCommand:
    def test_failure_exit_code(self, monkeypatch, capsys):
        from unruhkit import CheckRecord, VerificationReport
        import unruhkit.cli as cli

        def fake(tolerance=1e-8, grid_n=21):  # the CLI passes only the flags given
            report = VerificationReport(tolerance=tolerance, grid_n=grid_n)
            report.checks.append(
                CheckRecord(
                    name="synthetic",
                    grid="1",
                    max_residual=1.0,
                    threshold=1e-8,
                )
            )
            return report

        monkeypatch.setattr(cli, "run_verification", fake)
        assert main(["verify"]) == 2
        assert "overall: FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flags, passed",
        [([], {}), (["--grid", "5"], {"grid_n": 5}), (["--tol", "1e-6"], {"tolerance": 1e-6})],
    )
    def test_only_the_flags_given_are_passed(self, monkeypatch, flags, passed):
        from unruhkit import VerificationReport

        calls = []

        def fake(**options):
            calls.append(options)
            return VerificationReport(tolerance=1e-8, grid_n=21)

        monkeypatch.setattr(cli, "run_verification", fake)
        assert main(["verify", *flags]) == 0
        assert calls == [passed]

    def test_nan_tolerance_is_usage_error(self, capsys):
        for tol in ("nan", "inf"):
            assert main(["verify", "--tol", tol, "--grid", "5"]) == 1
            assert "tolerance must be positive" in capsys.readouterr().err


class TestUsageErrors:
    """figure and verify read their flags by the sweep's rule: --name value,
    no --name=value, no abbreviations, and figure's PRESET first."""

    @pytest.mark.parametrize(
        "argv, named",
        [
            pytest.param([*command, *tokens], named, id=" ".join([*command, *tokens]))
            for command in (["figure", "fig1a"], ["verify"])
            for tokens, named in (
                (["--grid=5"], "--grid=5"),
                (["--gr", "5"], "--gr"),
                (["--out=F"], "--out=F"),
                (["--tol"], "--tol"),
                (["--out"], "--out"),
            )
        ]
        + [
            pytest.param(["verify", "--grid", "5.0"], "'5.0'", id="verify --grid 5.0"),
            pytest.param(["verify", "--tol", "x"], "'x'", id="verify --tol x"),
            pytest.param(["figure"], "PRESET", id="figure"),
            pytest.param(["figure", "fig1a", "fig1b"], "'fig1b'", id="figure fig1a fig1b"),
            pytest.param(["figure", "--out", "F", "fig1a"], "'--out'", id="figure --out F fig1a"),
            pytest.param([], "missing command", id="no-command"),
            pytest.param(["bogus"], "'bogus'", id="bogus"),
        ],
    )
    def test_bad_token_is_named(self, argv, named, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert named in captured.err
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv, message",
        [
            pytest.param(argv, message, id=" ".join(argv).replace(" ".join(SWEEP_FLAGS), "..."))
            for argv, message in (
                (["figure", "fig1a", "--out", "--out"], "--out: missing value (FILE)"),
                (["sweep", *SWEEP_FLAGS, "--out", "--config"], "--out: missing value (FILE)"),
                (["sweep", *SWEEP_FLAGS, "--config", "--out"], "--config: missing value (FILE)"),
                (["verify", "--tol", "--grid", "5"], "--tol: missing value (T)"),
                (["sweep", "--channel", *SWEEP_FLAGS[2:]], f"--channel: missing value ({_FLAG_GRAMMAR['channel']})"),
                (["sweep", "--bogus", "1", "--out"], "unknown flag --bogus"),
                (["verify", "--tol", "x"], "--tol: expected float, got 'x'"),
                (["verify", "--grid", "5.0"], "--grid: expected int, got '5.0'"),
                (["sweep", *SWEEP_FLAGS, "--range", "0:a:0.5"], "--range: expected float, got 'a'"),
                (["sweep", *SWEEP_FLAGS, "--x", "0.3,b"], "--x: expected float, got 'b'"),
            )
        ],
    )
    def test_first_bad_token_gives_the_message(self, argv, message, tmp_path, monkeypatch, capsys):
        """A flag is never read as a value, the first error in token order
        wins, and a number that does not read names the type it expected."""
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 1
        assert capsys.readouterr() == ("", f"unruhkit: {message}\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [[], ["bogus"]], ids=["missing", "unknown"])
    def test_bad_command_prints_usage_to_stderr(self, argv, capsys):
        assert main(argv) == 1
        assert "unruhkit verify\n  --tol T\n" in capsys.readouterr().err

    def test_version(self, capsys):
        assert main(["--version"]) == 0
        assert capsys.readouterr() == (f"unruhkit {__version__}\n", "")


def test_package_metadata_reads_the_version_the_cli_prints():
    # One source for the version: pyproject.toml names none of its own, and
    # the build reads the attribute that --version and the provenance print.
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((Path(__file__).resolve().parents[1] / "pyproject.toml").read_text())
    assert "version" not in project["project"] and "version" in project["project"]["dynamic"]
    assert project["tool"]["setuptools"]["dynamic"]["version"] == {"attr": "unruhkit.version.__version__"}


def test_import_loads_numpy_only():
    # The runtime dependency stays numpy only, and the CLI needs no argparse.
    script = (
        "import sys, unruhkit, unruhkit.cli\n"
        "banned = {'argparse', 'scipy', 'sympy', 'mpmath', 'concurrent', 'logging'}\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in banned))\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_verify_under_dev_mode_warns_of_nothing():
    # -X dev reports threads left running and resources never closed on
    # stderr; verify runs its cube pass on a second thread.
    script = "from unruhkit.cli import run; run()"
    src = str(Path(cli.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-X", "dev", "-c", script, "verify", "--grid", "5"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60,
    )
    golden = (Path(__file__).parent / "golden" / "verify_grid5.txt").read_text(encoding="utf-8")
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout + "exit code: 0\n" == golden


def test_figure_under_dev_mode_warns_of_nothing(tmp_path):
    # fig9b's 9 empty cells go from NaN to None to empty fields; -W error
    # makes any warning on the way, such as a complex cast, fail the run.
    out = tmp_path / "fig9b.csv"
    script = "from unruhkit.cli import run; run()"
    src = str(Path(cli.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", "-c", script, "figure", "fig9b", "--out", str(out)],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60,
    )
    golden = (Path(__file__).parent / "golden" / "fig9b.csv").read_text(encoding="utf-8")
    assert (done.returncode, done.stderr) == (0, "")
    assert "\n".join(body(out.read_text(encoding="utf-8"))) + "\n" == golden


class TestCachedParser:
    """Calls of main in one process share no state."""

    def test_reused_parser_gives_what_fresh_calls_give(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        sequence = [
            ["figure", "fig1a", "--channel", "white"],
            ["--version"],
            ["sweep", "--help"],
            ["sweep", *SWEEP_FLAGS, "--out", str(a)],
            ["sweep", *SWEEP_FLAGS],
            ["figure", "fig1a", "--out", str(b)],
            ["verify", "--tol", "nan", "--grid", "5"],
        ]

        def call(argv):
            code = main(argv)
            captured = capsys.readouterr()
            files = tuple(body(path.read_text()) if path.exists() else None for path in (a, b))
            return code, body(captured.out), captured.err, files

        fresh = []
        for argv in sequence:
            fresh.append(call(argv))
        a.unlink()
        b.unlink()

        reused = []
        for argv in sequence:
            reused.append(call(argv))
            if argv[-1] == str(a):
                written = a.read_text()
        assert reused == fresh
        assert [code for code, *_ in reused] == [1, 0, 0, 0, 0, 0, 1]
        # The sweep without --out went to stdout and left A as it was.
        assert a.read_text() == written
        assert reused[4][1] == reused[3][3][0]


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
