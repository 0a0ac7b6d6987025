"""Command-line driver with bit-stable CSV/JSON serialization.

Four subcommands: evolve (densities after N periods), perturbative
(first-order density against the full numerics), scan (detuning sweeps),
scaling (width power laws). evolve and perturbative run on the one
ladder of their SimConfig (evolve's --basis, or sized from --kicks) and
sample positions on its one observation grid (--grid, or sized from the
ladder); nothing resizes either after the run. Numeric fields are
written with the shortest representation that parses back to the
identical float, so identical physics yields identical bytes. Wall-clock
times (the total, and for perturbative the stage_s of its evolve and
first_order stages) live only in the standalone manifest file; the
manifest block embedded in data files omits them, keeping outputs
byte-stable across re-runs. --threads is accepted and has no effect: a
sweep runs in one thread. scan refuses a profile it cannot take the
width of (exit 3) in CSV as well as in JSON, although only the JSON file
carries the width. scaling measures its widths from the simulation:
--mode both writes the two laws side by side, one mode writes that
mode's widths and fit.

Each subcommand only measures: it returns its manifest block, the extra
fields of the standalone manifest and its tables. main alone writes:
once the measurement has returned it creates --out, writes each table
and then manifest.json. So a run refused while it measures leaves no
directory behind.

Exit codes: 0 success, 2 bad usage or invalid parameters (a ValueError or
an OSError), 3 a numerical invariant failed (a NumericalError, whose
message names it), including a NaN or an infinity that a JSON file would
have to carry (NonFiniteOutputError).
"""
from __future__ import annotations

import argparse
import csv
import json
import re
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .analytics import _first_order_k, perturbative_density
from .observables import momentum_density, position_density
from .propagator import evolve
from .scanner import (
    MODES,
    auto_scan,
    compare_modes,
    scan_epsilon,
    scan_width,
    width_scaling,
)
from .wavepacket import NumericalError, SimConfig, to_position


class NonFiniteOutputError(NumericalError):
    """A JSON file would carry a NaN or an infinity, which JSON cannot hold."""


def _write_json(path: Path, payload: dict) -> None:
    # serialized before the file is opened, so a refusal leaves no file
    try:
        text = json.dumps(payload, indent=2, allow_nan=False)
    except ValueError as exc:
        raise NonFiniteOutputError(f"{path.name}: {exc}") from None
    path.write_text(text + "\n", encoding="utf-8")


def _write_table(out: Path, stem: str, fmt: str, manifest: dict, columns: dict,
                 meta: dict | None = None, extra: dict | None = None) -> None:
    """Write out/<stem>.csv (a header row, then the columns row by row) or
    out/<stem>.json ({"manifest", "data": {**meta, **columns}, **extra}).

    Columns are lists of Python ints and floats, whose str and repr are the
    shortest text that parses back to the identical value.
    """
    if fmt == "csv":
        with open(out / f"{stem}.csv", "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(list(columns))
            writer.writerows(zip(*columns.values()))
    else:
        _write_json(out / f"{stem}.json", {
            "manifest": manifest,
            "data": {**(meta or {}), **columns},
            **(extra or {}),
        })


def _listify(arr) -> list[float]:
    return [float(v) for v in np.asarray(arr).ravel()]


def _manifest(command: str, config: dict, health: dict | None = None) -> dict:
    block = {
        "command": command,
        "version": __version__,
        "config": config,
    }
    if health is not None:
        block["health"] = health
    return block


def _config(args, half_width=None) -> SimConfig:
    """The SimConfig of the flags evolve and perturbative share."""
    return SimConfig(
        phi_d=args.phi_d,
        epsilon=args.epsilon,
        l=args.l,
        kicks=args.kicks,
        half_width=half_width,
        n_points=args.grid,
    )


def _evolved(cfg: SimConfig) -> tuple:
    """The step evolve and perturbative share: the state after the
    config's kicks, the position density on its grid and the run's health
    block."""
    state = evolve(cfg)
    pos = position_density(to_position(state, cfg.grid()))
    health = {
        "norm_drift": abs(1.0 - state.norm_sq()),
        "edge_occupancy": state.edge_occupancy(),
    }
    return state, pos, health


def _cmd_evolve(args) -> tuple[dict, dict, list]:
    cfg = _config(args, args.basis)
    state, pos, health = _evolved(cfg)
    mom = momentum_density(state)
    health["half_width_used"] = state.half_width
    return _manifest("evolve", asdict(cfg), health), {}, [
        ("position_density",
         {"X": _listify(pos.support), "density": _listify(pos.values)}),
        ("momentum_density",
         {"m": [int(v) for v in mom.support], "prob": _listify(mom.values)}),
    ]


def _cmd_perturbative(args) -> tuple[dict, dict, list]:
    cfg = _config(args)
    # the first-order route first: its |K| > 1 refusal reads only the
    # flags, so a refused run makes no period
    started = time.monotonic()
    approx = perturbative_density(
        cfg.kicks, cfg.phi_d, cfg.epsilon, cfg.grid(), cfg.half_width, l=cfg.l
    ).values
    first_order = time.monotonic()
    _, pos, health = _evolved(cfg)
    # stage times, like wall time, only in the standalone manifest, and K
    # beside them, so the data file's manifest block stays as it was
    extras = {"stage_s": {"evolve": time.monotonic() - first_order,
                          "first_order": first_order - started},
              "first_order_K": _first_order_k(cfg.kicks, cfg.phi_d, cfg.epsilon, cfg.l)}
    return _manifest("perturbative", asdict(cfg), health), extras, [
        ("density_comparison", {
            "X": _listify(pos.support),
            "numeric": _listify(pos.values),
            "perturbative": _listify(approx),
            "difference": _listify(pos.values - approx),
        }),
    ]


def _cmd_scan(args) -> tuple[dict, dict, list]:
    if args.eps_max == "auto":
        scan = auto_scan(args.kicks, args.phi_d, args.l, args.mode,
                         args.points)
    else:
        scan = scan_epsilon(args.kicks, args.phi_d, args.l, args.mode,
                            float(args.eps_max), args.points)
    manifest = _manifest("scan", {
        "phi_d": args.phi_d,
        "l": args.l,
        "kicks": args.kicks,
        "mode": args.mode,
        # the grid ends exactly at the range (see scanner._symmetric_grid)
        "epsilon_max": float(scan.epsilons[-1]),
        "points": args.points,
    })
    # a profile without a width is refused in either format; only the
    # JSON file carries the width
    return manifest, {}, [
        ("scan",
         {"epsilon": _listify(scan.epsilons), "value": _listify(scan.values)},
         {"kicks": scan.kicks, "mode": scan.mode}, {"fwhm": scan_width(scan)}),
    ]


def _fit_block(ws) -> dict:
    return {
        "gamma": ws.gamma,
        "intercept": ws.intercept,
        "r_squared": ws.r_squared,
    }


def _cmd_scaling(args) -> tuple[dict, dict, list]:
    n_list = list(range(args.n_from, args.n_to + 1))
    config = {
        "phi_d": args.phi_d,
        "l": args.l,
        "n_from": args.n_from,
        "n_to": args.n_to,
        "mode": args.mode,
        "points": args.points,
    }
    if args.mode == "both":
        cmp = compare_modes(n_list, args.phi_d, args.l, args.points)
        columns = dict(zip(("N", "position", "fidelity", "ratio"),
                           map(list, zip(*cmp.table))))
        fit = {
            "position": _fit_block(cmp.position),
            "fidelity": _fit_block(cmp.fidelity),
            "crossover_first_exceed": cmp.crossover_first_exceed,
            "crossover_fit": cmp.crossover_fit,
        }
    else:
        ws = width_scaling(n_list, args.phi_d, args.l, args.mode, args.points)
        columns = {"N": [int(n) for n in ws.kick_numbers],
                   "width": _listify(ws.widths)}
        fit = _fit_block(ws)
    return _manifest("scaling", config), {}, [
        ("scaling", columns, None, {"fit": fit}),
    ]


#: a digit run with single underscores between digits, as float() reads it
_DIGITS = r"\d(?:_?\d)*"
#: the negative numbers float() reads: digits with an optional point and
#: exponent, or inf, infinity or nan in any case, and trailing white space
_NEGATIVE_FLOAT = re.compile(
    rf"^-(?:(?:(?:{_DIGITS})?\.{_DIGITS}|{_DIGITS}\.?)(?:[eE][+-]?{_DIGITS})?"
    r"|(?i:inf|infinity|nan))\s*$")


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that takes every negative number float() reads,
    --epsilon -2e-5, -inf or -1_0, for a value, as it takes -0.00002, so
    the spaced form of a flag acts as its = form. argparse's own rule
    matches only forms like -5 and -0.5 (Python 3.11), so it reads the
    others as options and refuses the flag. Its subcommand parsers are of
    this class too."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_FLOAT


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qkr",
        description="Kicked-ring revival simulator and width-scaling toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, kicks=True):
        p.add_argument("--phi-d", type=float, default=0.485,
                       help="effective kick strength (default 0.485)")
        p.add_argument("--l", type=int, default=1,
                       help="revival order (default 1)")
        if kicks:
            p.add_argument("--kicks", type=int, required=True,
                           help="number of kick periods")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", required=True, help="output directory")

    def evolving(p, basis=False):
        p.add_argument("--epsilon", type=float, default=0.0,
                       help="period detuning (default 0)")
        if basis:
            p.add_argument("--basis", type=int, default=None,
                           help="momentum ladder half width "
                                "(default: sized from N)")
        p.add_argument("--grid", type=int, default=None,
                       help="observation grid points "
                            "(default: sized from the ladder)")

    def sweeping(p, modes, eps_max=False):
        p.add_argument("--mode", choices=modes, required=True)
        if eps_max:
            p.add_argument("--eps-max", default="auto",
                           help="sweep half range, or 'auto' (default)")
        p.add_argument("--points", type=int, default=65,
                       help="odd sweep point count (default 65)")
        p.add_argument("--threads", type=int, default=None,
                       help="accepted and ignored; a sweep runs in one thread")

    p = sub.add_parser("evolve", help="densities after N periods")
    common(p)
    evolving(p, basis=True)
    p.set_defaults(func=_cmd_evolve)

    p = sub.add_parser("perturbative",
                       help="first-order density vs full numerics")
    common(p)
    evolving(p)
    p.set_defaults(func=_cmd_perturbative)

    p = sub.add_parser("scan", help="observable swept over detuning")
    common(p)
    sweeping(p, MODES, eps_max=True)
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("scaling", help="width power law over kick numbers")
    common(p, kicks=False)
    p.add_argument("--n-from", type=int, default=5)
    p.add_argument("--n-to", type=int, default=12)
    sweeping(p, (*MODES, "both"))
    p.set_defaults(func=_cmd_scaling)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.monotonic()
    try:
        manifest, extras, tables = args.func(args)
        # the one place --out is made, after the measurement has returned
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        for stem, *table in tables:
            _write_table(out, stem, args.format, manifest, *table)
        # wall time only here: the manifest block in data files omits it
        wall = {"wall_time_s": time.monotonic() - started}
        _write_json(out / "manifest.json", {**manifest, **extras, **wall})
        return 0
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
