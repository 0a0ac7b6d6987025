"""Span recorder and layer wrappers for the traced benchmark run.

The traced run replaces each public function of the six kickedrotor layer
modules at every module attribute through which it is called (its own
module, the other layer modules that import it, and the package). Each
wrapped call records a span: name, layer, the module whose binding was
called, start, end, parent, whether it raised, and a few facts a hook
reads from the arguments and the result. Spans stay in memory; the caller
writes them out when the run ends. Nothing inside ``src/`` is modified.

Classes (SimConfig, SpatialGrid, Density, ...) are not wrapped: their
validation runs as part of whichever span constructs them.

Per-layer numbers derive from the spans alone:

* self time of a span = its duration minus the union of the intervals its
  child spans cover (children may overlap when they run on worker threads);
* ``grow_restarts`` and ``probe_steps`` are inferred from returned values,
  because neither count is visible at a function boundary.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import itertools
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from kickedrotor import wavepacket

LAYERS = ("wavepacket", "analytics", "propagator", "observables", "scanner", "cli")
#: spans of the dense oracle route, reported as their own sub-layer
DENSE = ("propagator.evolve_dense", "propagator.kick_matrix")

#: first rung of auto_range's doubling ladder, in units of 1/N^2
PROBE_START = 0.1


@dataclass
class Span:
    id: int
    name: str
    layer: str
    via: str
    start: float
    end: float = 0.0
    parent: int | None = None
    failed: bool = False
    attrs: dict = field(default_factory=dict)
    call: tuple | None = None


class Recorder:
    """Collects spans in memory; one recorder per traced pass.

    Parents follow the call stack of each thread. A span opened on a worker
    thread with an empty stack is parented to the innermost open span of the
    thread that created the recorder: that thread is blocked waiting for the
    worker (the sweep thread pool), so the worker's time is covered by it.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._home = threading.get_ident()
        self._home_stack: list[Span] = []
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        if threading.get_ident() == self._home:
            return self._home_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, layer: str, via: str) -> Span:
        stack = self._stack()
        outer = stack or self._home_stack
        parent = outer[-1].id if outer else None
        span = Span(next(self._ids), name, layer, via, 0.0, parent=parent)
        stack.append(span)
        span.start = time.perf_counter()
        return span

    def close(self, span: Span, failed: bool) -> None:
        span.end = time.perf_counter()
        span.failed = failed
        self._stack().pop()
        self.spans.append(span)


def _wrap(recorder: Recorder, fn, name: str, layer: str, via: str, keep: bool):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = recorder.open(name, layer, via)
        failed = True
        try:
            result = fn(*args, **kwargs)
            failed = False
        finally:
            recorder.close(span, failed)
        if keep:
            # read by a hook after the pass, so the hook costs no traced time
            span.call = (fn, args, kwargs, result)
        return result

    return traced


def public_functions(module) -> dict:
    return {
        name: obj
        for name, obj in vars(module).items()
        if inspect.isfunction(obj)
        and obj.__module__ == module.__name__
        and not name.startswith("_")
    }


@contextlib.contextmanager
def installed(recorder: Recorder):
    """Wrap every public layer function at every binding, restore on exit."""
    package = importlib.import_module("kickedrotor")
    modules = {layer: importlib.import_module(f"kickedrotor.{layer}") for layer in LAYERS}
    namespaces = [package, *modules.values()]
    patches = []
    for layer, module in modules.items():
        for fname, fn in public_functions(module).items():
            name = f"{layer}.{fname}"
            for ns in namespaces:
                if vars(ns).get(fname) is fn:
                    via = ns.__name__.rpartition(".")[2]
                    wrapper = _wrap(recorder, fn, name, layer, via, name in HOOKS)
                    patches.append((ns, fname, fn, wrapper))
    for ns, fname, _, wrapper in patches:
        setattr(ns, fname, wrapper)
    try:
        yield
    finally:
        for ns, fname, fn, _ in patches:
            setattr(ns, fname, fn)


# ---------------------------------------------------------------- inference


def grow_restarts(initial_half_width: int, returned_half_width: int) -> int | None:
    """Auto-grow restarts implied by a returned ladder: each one doubles M.

    None when the returned width is not the initial one doubled a whole
    number of times, i.e. the program no longer grows that way.
    """
    k = 0
    m = initial_half_width
    while m < returned_half_width:
        m *= 2
        k += 1
    return k if m == returned_half_width else None


def probe_steps(kicks: int, returned_range: float, cap: float) -> int | None:
    """Probe sweeps auto_range ran to return this range.

    The ladder is r_k = min(0.1/N^2 * 2^k, cap), k = 0, 1, ...; returning
    r_k took k + 1 probe sweeps. Doubling is exact in binary, so an
    uncapped rung matches its ladder value bit for bit. None when the range
    is not on the ladder.
    """
    k = 0
    r = min(PROBE_START / (kicks * kicks), cap)
    while r < returned_range and r < cap:
        r = min(2.0 * r, cap)
        k += 1
    return k + 1 if r == returned_range else None


# -------------------------------------------------------------------- hooks


def _propagate_hook(a: dict, result) -> dict:
    free = a["free"]
    initial = a["half_width"]
    if initial is None:
        initial = wavepacket.default_half_width(a["kicks"], a["phi_d"])
    epsilon = free.epsilon if free.mode == "revival_relative" else None
    return {
        "key": ("position", int(a["kicks"]), float(a["phi_d"]), free.l, epsilon),
        "periods": int(a["kicks"]),
        "restarts": grow_restarts(int(initial), result.half_width),
    }


def _fidelity_hook(a: dict, result) -> dict:
    # N driven periods plus the reversed pulse
    return {
        "key": ("fidelity", int(a["kicks"]), float(a["phi_d"]), int(a["l"]),
                float(a["epsilon"])),
        "periods": int(a["kicks"]) + 1,
    }


def _auto_range_hook(a: dict, result) -> dict:
    return {"probe_steps": probe_steps(int(a["kicks"]), result, a["cap"])}


def _cli_main_hook(a: dict, result) -> dict:
    argv = list(a["argv"] or [])
    if "--out" not in argv:
        return {}
    out = Path(argv[argv.index("--out") + 1])
    files = [p for p in out.rglob("*") if p.is_file()]
    # manifest.json carries the wall time, so its size changes run to run;
    # the data files are byte-stable
    data = [p for p in files if p.name != "manifest.json"]
    return {"files": len(files), "bytes": sum(p.stat().st_size for p in data)}


HOOKS = {
    "propagator.propagate": _propagate_hook,
    "propagator.fidelity_protocol": _fidelity_hook,
    "scanner.auto_range": _auto_range_hook,
    "cli.main": _cli_main_hook,
}


# ------------------------------------------------------------------ metrics


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the time its children cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {
        s.id: (s.end - s.start) - covered_length(children[s.id], s.start, s.end)
        for s in spans
    }


def resolve(spans) -> None:
    """Run each kept call through its hook into span.attrs, then drop it.

    Call after the wrappers are removed, so hooks record no spans.
    """
    signatures = {}
    for s in spans:
        if s.call is None:
            continue
        fn, args, kwargs, result = s.call
        if fn not in signatures:
            signatures[fn] = inspect.signature(fn)
        bound = signatures[fn].bind(*args, **kwargs)
        bound.apply_defaults()
        s.attrs.update(HOOKS[s.name](bound.arguments, result))
        s.call = None


def _inferred(spans, attr: str) -> int:
    values = [s.attrs[attr] for s in spans if attr in s.attrs]
    if None in values:
        print(f"warning: {values.count(None)} {attr} values could not be inferred",
              file=sys.stderr)
    return sum(v for v in values if v is not None)


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer counts and self times of one traced pass."""
    resolve(spans)
    own = self_times(spans)
    m: dict[str, float] = {}
    for layer in LAYERS:
        mine = [s for s in spans if s.layer == layer]
        m[f"{layer}.calls"] = len(mine)
        m[f"{layer}.self_s"] = sum((own[s.id] for s in mine), 0.0)
        m[f"{layer}.failed"] = sum(s.failed for s in mine)

    points = [s for s in spans if s.layer == "propagator" and s.via == "scanner"]
    keys = [s.attrs["key"] for s in points if "key" in s.attrs]
    m["scanner.points_evaluated"] = len(points)
    m["scanner.unique_point_ratio"] = len(set(keys)) / len(points) if points else 0.0
    m["scanner.auto_range.probe_steps"] = _inferred(spans, "probe_steps")

    dense_s = sum((own[s.id] for s in spans if s.name in DENSE), 0.0)
    periods = sum(s.attrs.get("periods", 0) for s in spans)
    m["propagator.periods"] = periods
    m["propagator.s_per_period"] = (
        (m["propagator.self_s"] - dense_s) / periods if periods else 0.0
    )
    m["propagator.grow_restarts"] = _inferred(spans, "restarts")
    m["propagator.dense.self_s"] = dense_s

    for fname in ("bessel_j_row", "correction_term"):
        m[f"analytics.{fname}.calls"] = sum(
            s.name == f"analytics.{fname}" for s in spans
        )
    m["cli.files_written"] = sum(s.attrs.get("files", 0) for s in spans)
    m["cli.bytes_written"] = sum(s.attrs.get("bytes", 0) for s in spans)
    return m


def unit(metric: str) -> str:
    """Unit of a layer_metrics entry."""
    if metric.endswith(("self_s", "s_per_period")):
        return "s"
    if metric.endswith("ratio"):
        return "1"
    if metric.endswith("bytes_written"):
        return "B"
    return "count"


def span_record(s: Span) -> dict:
    return {
        "id": s.id,
        "name": s.name,
        "via": s.via,
        "start": s.start,
        "end": s.end,
        "parent": s.parent,
        "failed": s.failed,
    }
