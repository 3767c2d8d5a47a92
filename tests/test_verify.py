import math

import pytest

from unruhkit import run_verification
from unruhkit.cli import main


@pytest.fixture(scope="module")
def report():
    return run_verification(tolerance=1e-8, grid_n=7)


def record(report, name):
    matches = [check for check in report.checks if check.name == name]
    assert len(matches) == 1, f"missing check {name}"
    return matches[0]


class TestReportContent:
    def test_overall_pass(self, report):
        assert report.overall_pass

    def test_channel_checks_tight(self, report):
        for name in (
            "white-closed-state-vs-channel",
            "color-closed-state-vs-channel",
            "whitecolor-boundary-reductions",
        ):
            check = record(report, name)
            assert check.passed and check.max_residual <= 1e-12

    def test_corrected_white_form_passes(self, report):
        check = record(report, "concurrence-white-closed(corrected)")
        assert check.passed and not check.ledgered
        assert "corrected" in check.notes

    def test_printed_coefficient_is_ledgered_failure(self, report):
        check = record(report, "concurrence-white-closed(printed-coef-4)")
        assert check.ledgered and not check.passed
        assert check.max_residual >= 0.3

    def test_whitecolor_reading_adjudicated(self, report):
        printed = record(report, "concurrence-whitecolor-closed(printed)")
        weighted = record(report, "concurrence-whitecolor-closed(cos-r)")
        assert printed.ledgered and weighted.ledgered
        assert weighted.max_residual < 1e-8
        assert printed.max_residual > 1e-3
        assert "cos-r-weighted reading matches" in printed.notes

    def test_qfi_checks(self, report):
        single = record(report, "qfi-single-closed-vs-bloch-engine")
        assert single.passed and single.max_residual <= 1e-6
        two = record(report, "qfi-two-closed-vs-spectral-engine")
        assert two.ledgered and two.max_residual <= 1e-6
        dpi = record(report, "qfi-data-processing-inequality")
        assert dpi.passed and dpi.max_residual <= 1e-6

    def test_render_has_one_line_per_check(self, report):
        lines = report.render().splitlines()
        assert len(lines) == len(report.checks) + 2
        assert lines[-1].startswith("overall: PASS")


def test_every_check_reports_its_worst_point():
    report = run_verification(grid_n=5)
    for check in report.checks:
        assert check.worst_point is not None, check.name
        assert math.isfinite(check.max_residual), check.name
    # The DPI residual is single - two, never positive: its worst is 0 at r=0.
    dpi = record(report, "qfi-data-processing-inequality")
    assert "max-residual=0.000e+00 at (0.25, 0.25, 0)" in dpi.line()


class TestCliVerify:
    def test_exit_zero_on_pass(self, capsys):
        assert main(["verify", "--tol", "1e-8", "--grid", "5"]) == 0
        out = capsys.readouterr().out
        assert "overall: PASS" in out
        assert "LEDGERED" in out

    def test_grid_too_small_is_usage_error(self, capsys):
        assert main(["verify", "--grid", "3"]) == 1


class TestArguments:
    def test_bad_tolerance(self):
        with pytest.raises(ValueError):
            run_verification(tolerance=-1.0)

    def test_bad_grid(self):
        with pytest.raises(ValueError):
            run_verification(grid_n=4)
