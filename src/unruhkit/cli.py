"""Command-line interface: sweep, figure and verify subcommands.

Exit codes: 0 success, 1 usage error, 2 verification failure, 3 I/O error.
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import Optional, Sequence

from .errors import ParseError, UnknownPresetError
from .sweep import _FLAG_GRAMMAR, emit_csv, figure_preset, parse_spec, run_sweep
from .verify import run_verification
from .version import __version__


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; this tool reserves 2 for
    # verification failures, so remap to 1.
    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


# Built on the first figure, verify, --version or --help call and reused
# (a sweep never builds it): argparse keeps no per-call state on a parser,
# and --help, --version and usage errors look up sys.stdout and sys.stderr
# when they print.
@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="unruhkit", description=__doc__)
    parser.add_argument("--version", action="version", version=f"unruhkit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    # Only serves `sweep --help`: main runs a sweep without this parser.
    sweep = sub.add_parser(
        "sweep",
        help="run a declarative parameter sweep and emit CSV",
        description="sweep flags, each given as --name value (comma-lists become series):\n"
        + "".join(f"  --{name} {grammar}\n" for name, grammar in _FLAG_GRAMMAR.items()),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sweep.add_argument("--out", metavar="FILE", help="write the CSV here instead of stdout")
    sweep.add_argument("--config", metavar="FILE", help="key=value file of sweep flags; flags win")

    figure = sub.add_parser("figure", help="run a published-figure preset")
    figure.add_argument("preset", help="e.g. fig1a ... fig11c")
    figure.add_argument("--out")

    verify = sub.add_parser(
        "verify",
        help="cross-check every closed form against its numerical oracle",
        description=(
            "--tol sets the closed-vs-numeric concurrence threshold; the state, "
            "QFI and data-processing thresholds are fixed contracts."
        ),
    )
    verify.add_argument("--tol", type=float, default=1e-8)
    verify.add_argument("--grid", type=int, default=21)
    return parser


def _sweep(tokens: Sequence[str]) -> int:
    """Run `unruhkit sweep`: take the --out and --config pairs out of the
    --name value pairs and pass every other token to parse_spec."""
    files: dict[str, Optional[str]] = {"--out": None, "--config": None}
    flags: list[str] = []
    for i in range(0, len(tokens), 2):
        pair = tokens[i : i + 2]
        if pair[0] not in files:
            flags += pair
        elif len(pair) < 2:
            raise ParseError(f"{pair[0]}: missing value (FILE)")
        else:
            files[pair[0]] = pair[1]
    config_text = None
    if files["--config"] is not None:
        try:
            with open(files["--config"], encoding="utf-8") as stream:
                config_text = stream.read()
        except (OSError, UnicodeDecodeError) as exc:
            print(f"unruhkit: cannot read config: {exc}", file=sys.stderr)
            return 3
    emit_csv(run_sweep(parse_spec(flags, config_text=config_text)), files["--out"])
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    # A sweep never builds the argparse parser: _sweep and parse_spec parse
    # its tokens once.  The parser serves figure, verify, --version and --help.
    argv = sys.argv[1:] if argv is None else argv
    try:
        if argv and argv[0] == "sweep" and "-h" not in argv and "--help" not in argv:
            return _sweep(argv[1:])
        try:
            args = _build_parser().parse_args(argv)
        except SystemExit as exc:  # usage errors, --help and --version
            return exc.code
        if args.command == "figure":
            spec = figure_preset(args.preset)
            table = run_sweep(spec)
            emit_csv(table, args.out)
            return 0
        try:  # args.command == "verify"
            report = run_verification(tolerance=args.tol, grid_n=args.grid)
        except ValueError as exc:
            print(f"unruhkit: {exc}", file=sys.stderr)
            return 1
        print(report.render())
        return 0 if report.overall_pass else 2
    except (ParseError, UnknownPresetError) as exc:
        print(f"unruhkit: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"unruhkit: i/o error: {exc}", file=sys.stderr)
        return 3


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
