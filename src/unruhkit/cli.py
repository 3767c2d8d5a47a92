"""Command-line interface: sweep, figure and verify subcommands.

`sweep` runs a parameter sweep and emits CSV (a comma-list of values gives
one series per value), `figure PRESET` runs a published-figure preset, and
`verify` cross-checks every closed form (--tol, default 1e-8, sets the
concurrence threshold; --grid, default 21, the grid).  --out writes the CSV
to FILE, not stdout; --config reads sweep flags from a key=value FILE, and
flags win.  Every flag is given as --name value; --name=value, abbreviated
names and a value starting with -- are usage errors.  -h or --help anywhere
prints this text.

Exit codes: 0 success, 1 usage error, 2 verification failure, 3 I/O error.
"""

from __future__ import annotations

import sys
from typing import Optional, Sequence

from .errors import ParseError, UnknownPresetError
from .sweep import _FLAG_GRAMMAR, _convert, _tokens_to_mapping, emit_csv, figure_preset, parse_spec, run_sweep
from .verify import run_verification
from .version import __version__

# Each command's flags and the value each takes.
_COMMANDS = {
    "sweep": {**_FLAG_GRAMMAR, "out": "FILE", "config": "FILE"},
    "figure": {"out": "FILE"},
    "verify": {"tol": "T", "grid": "N"},
}


def _usage() -> str:
    lines = [__doc__ or ""]
    for command, grammar in _COMMANDS.items():
        lines.append(f"unruhkit {command}" + " PRESET" * (command == "figure"))
        lines += (f"  --{name} {value}" for name, value in grammar.items())
    return "\n".join(lines)


def _sweep(tokens: Sequence[str]) -> int:
    """Run `unruhkit sweep`: take --out and --config out of the --name value
    pairs and pass the mapping of every other pair to parse_spec."""
    flags = _tokens_to_mapping(tokens, _COMMANDS["sweep"])
    out, config = flags.pop("out", None), flags.pop("config", None)
    config_text = None
    if config is not None:
        try:
            with open(config, encoding="utf-8") as stream:
                config_text = stream.read()
        except (OSError, UnicodeDecodeError) as exc:
            print(f"unruhkit: cannot read config: {exc}", file=sys.stderr)
            return 3
    emit_csv(run_sweep(parse_spec(flags, config_text=config_text)), out)
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        if "-h" in argv or "--help" in argv:
            print(_usage())
            return 0
        if argv and argv[0] == "sweep":
            return _sweep(argv[1:])
        if argv and argv[0] == "--version":
            print(f"unruhkit {__version__}")
            return 0
        if not argv or argv[0] not in _COMMANDS:
            print(_usage(), file=sys.stderr)
            raise ParseError(f"unknown command {argv[0]!r}" if argv else "missing command")
        if argv[0] == "figure":
            if len(argv) < 2:
                raise ParseError("figure: missing PRESET")
            spec = figure_preset(argv[1])
            flags = _tokens_to_mapping(argv[2:], _COMMANDS["figure"])
            emit_csv(run_sweep(spec), flags.get("out"))
            return 0
        flags = _tokens_to_mapping(argv[1:], _COMMANDS["verify"])
        readers = {"tol": ("tolerance", float), "grid": ("grid_n", int)}
        options = {key: _convert(kind, name, flags[name]) for name, (key, kind) in readers.items() if name in flags}
        try:
            report = run_verification(**options)
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
