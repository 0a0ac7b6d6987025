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
sweep runs in one thread. scan makes one core call per probe step and
per block of up to 128 detunings; scaling makes about two per kick
number: one block of the probe steps up to the deepest one the previous
kick number stopped at (every probe step for the first), one call per
probe step climbed past it, and one block of every final grid.
scan refuses a profile it cannot take the
width of (exit 3) in CSV as well as in JSON, although only the JSON file
carries the width. scaling measures its
widths from the simulation: --mode both writes the two laws side by
side, one mode writes that mode's widths and fit. No command creates
--out before its measurement returns, so a run refused while it measures
leaves no directory behind.

Exit codes: 0 success, 2 bad usage or invalid parameters (a ValueError or
an OSError), 3 a numerical invariant failed (a NumericalError, whose
message names it), including a NaN or an infinity that a JSON file would
have to carry (NonFiniteOutputError).
"""
from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .analytics import perturbative_density
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


def _out_dir(raw: str) -> Path:
    out = Path(raw)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_evolve(args) -> tuple[Path, dict]:
    cfg = SimConfig(
        phi_d=args.phi_d,
        epsilon=args.epsilon,
        l=args.l,
        kicks=args.kicks,
        half_width=args.basis,
        n_points=args.grid,
    )
    state = evolve(cfg)
    pos = position_density(to_position(state, cfg.grid()))
    mom = momentum_density(state)
    health = {
        "norm_drift": abs(1.0 - state.norm_sq()),
        "edge_occupancy": state.edge_occupancy(),
        "half_width_used": state.half_width,
    }
    manifest = _manifest("evolve", asdict(cfg), health)
    out = _out_dir(args.out)
    _write_table(out, "position_density", args.format, manifest,
                 {"X": _listify(pos.support), "density": _listify(pos.values)})
    _write_table(out, "momentum_density", args.format, manifest,
                 {"m": [int(v) for v in mom.support],
                  "prob": _listify(mom.values)})
    return out, manifest


def _cmd_perturbative(args) -> tuple[Path, dict]:
    cfg = SimConfig(
        phi_d=args.phi_d,
        epsilon=args.epsilon,
        l=args.l,
        kicks=args.kicks,
        n_points=args.grid,
    )
    started = time.monotonic()
    state = evolve(cfg)
    grid = cfg.grid()
    numeric = position_density(to_position(state, grid)).values
    evolved = time.monotonic()
    approx = perturbative_density(
        cfg.kicks, cfg.phi_d, cfg.epsilon, grid, cfg.half_width
    ).values
    stage_s = {"evolve": evolved - started,
               "first_order": time.monotonic() - evolved}
    diff = numeric - approx
    manifest = _manifest("perturbative", asdict(cfg), {
        "norm_drift": abs(1.0 - state.norm_sq()),
        "edge_occupancy": state.edge_occupancy(),
    })
    out = _out_dir(args.out)
    _write_table(out, "density_comparison", args.format, manifest, {
        "X": _listify(grid.nodes),
        "numeric": _listify(numeric),
        "perturbative": _listify(approx),
        "difference": _listify(diff),
    })
    # stage times, like wall time, only in the standalone manifest
    return out, {**manifest, "stage_s": stage_s}


def _cmd_scan(args) -> tuple[Path, dict]:
    if args.eps_max == "auto":
        scan = auto_scan(args.kicks, args.phi_d, args.l, args.mode,
                         args.points)
    else:
        scan = scan_epsilon(args.kicks, args.phi_d, args.l, args.mode,
                            float(args.eps_max), args.points)
    # the grid ends exactly at the range (see scanner._symmetric_grid)
    eps_max = float(scan.epsilons[-1])
    # a profile without a width is refused in either format, before any
    # file is written; only the JSON file carries the width
    width = scan_width(scan)
    manifest = _manifest("scan", {
        "phi_d": args.phi_d,
        "l": args.l,
        "kicks": args.kicks,
        "mode": args.mode,
        "epsilon_max": eps_max,
        "points": args.points,
    })
    out = _out_dir(args.out)
    extra = {"fwhm": width} if args.format == "json" else None
    _write_table(out, "scan", args.format, manifest,
                 {"epsilon": _listify(scan.epsilons),
                  "value": _listify(scan.values)},
                 meta={"kicks": scan.kicks, "mode": scan.mode}, extra=extra)
    return out, manifest


def _fit_block(ws) -> dict:
    return {
        "gamma": ws.gamma,
        "intercept": ws.intercept,
        "r_squared": ws.r_squared,
    }


def _cmd_scaling(args) -> tuple[Path, dict]:
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
    manifest = _manifest("scaling", config)
    out = _out_dir(args.out)
    _write_table(out, "scaling", args.format, manifest, columns,
                 extra={"fit": fit})
    return out, manifest


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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

    p = sub.add_parser("evolve", help="densities after N periods")
    common(p)
    p.add_argument("--epsilon", type=float, default=0.0,
                   help="period detuning (default 0)")
    p.add_argument("--basis", type=int, default=None,
                   help="momentum ladder half width (default: sized from N)")
    p.add_argument("--grid", type=int, default=None,
                   help="observation grid points (default: sized from basis)")
    p.set_defaults(func=_cmd_evolve)

    p = sub.add_parser("perturbative",
                       help="first-order density vs full numerics")
    common(p)
    p.add_argument("--epsilon", type=float, default=0.0)
    p.add_argument("--grid", type=int, default=None,
                   help="observation grid points (default: sized from N)")
    p.set_defaults(func=_cmd_perturbative)

    p = sub.add_parser("scan", help="observable swept over detuning")
    common(p)
    p.add_argument("--mode", choices=MODES, required=True)
    p.add_argument("--eps-max", default="auto",
                   help="sweep half range, or 'auto' (default)")
    p.add_argument("--points", type=int, default=65,
                   help="odd sweep point count (default 65)")
    p.add_argument("--threads", type=int, default=None,
                   help="accepted and ignored; a sweep runs in one thread, "
                        "one core call per block of up to 128 detunings")
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("scaling", help="width power law over kick numbers")
    common(p, kicks=False)
    p.add_argument("--n-from", type=int, default=5)
    p.add_argument("--n-to", type=int, default=12)
    p.add_argument("--mode", choices=(*MODES, "both"), required=True)
    p.add_argument("--points", type=int, default=65)
    p.add_argument("--threads", type=int, default=None,
                   help="accepted and ignored; a sweep runs in one thread, "
                        "about two core calls per kick number: the probe "
                        "steps up to the previous kick number's stop, then "
                        "every final grid")
    p.set_defaults(func=_cmd_scaling)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.monotonic()
    try:
        out, manifest = args.func(args)
        # wall time only here: the manifest block in data files omits it
        wall = {"wall_time_s": time.monotonic() - started}
        _write_json(out / "manifest.json", {**manifest, **wall})
        return 0
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
