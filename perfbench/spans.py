"""Outside-in span tracing of mirrorsobol and the per-layer metrics derived from it.

`Tracer.install` wraps every public function defined in a `mirrorsobol`
module, plus the few private hooks in `PRIVATE_HOOKS`, by replacing module
attributes.  Every module that imported a wrapped function by name (for
example `cli` importing `bandwidth_curve`) gets the wrapper as well, so the
program's own call sites are traced without any change to its source.

Spans are kept in memory: name, start, end, parent and the thread kind.
A span opened on a pool thread with an empty stack takes as parent the
innermost span open on the main thread, which is the call that submitted
the work.  With `memory=True`, tracemalloc runs and each of `PEAK_SPANS`
records its peak; that slows allocation-heavy code (the pilot target
builds millions of Python floats), so timings come from a run without it.

Functions that cannot be wrapped from outside, and so have no span:
methods (`KernelD.eval_scaled`, `InputModel.pdf`, `AnalyticModel.draw`),
closures returned by factories (`subset_density_fn`, `DensityEstimate.eval_rows`)
and private helpers (`estimator._row_sums`, `_row_sums_blocked`,
`_row_sums_sorted_1d`, `_prepare`, `bandwidth._objective`,
`testbed._over_seeds`, `testbed._kernel_run`).  Their time counts as self
time of the nearest wrapped caller.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
import threading
import time
import tracemalloc

import numpy as np
from scipy.spatial import cKDTree

PACKAGE = "mirrorsobol"
PRIVATE_HOOKS = frozenset({"cli._write_text"})
PEAK_SPANS = frozenset(
    {
        "bandwidth.build_beta_tables",
        "bandwidth.target_functional",
        "estimator.estimate_sobol",
        "estimator.estimate_t",
    }
)
# calls whose arguments are kept for the window-pair count and the solo replay
ARG_SPANS = frozenset({"estimator.estimate_sobol", "estimator.estimate_t"})
STUDY_SPANS = frozenset({"testbed.convergence_study", "testbed.coverage_study"})
# orchestration spans that do not attribute time to a layer
ROOT_SPANS = frozenset({"cli.main", "cli.run"}) | STUDY_SPANS

MIB = float(1 << 20)


class Tracer:
    """Wraps mirrorsobol functions in place and records their spans."""

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.spans = []
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_ident = threading.main_thread().ident
        self._main_stack = []
        self._peak_open = []
        self._patched = []
        self.originals = {}

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items()) if name == PACKAGE or name.startswith(PACKAGE + ".")]
        wrappers = {}
        for module in modules:
            short = module.__name__[len(PACKAGE) + 1 :]
            for attr, obj in vars(module).items():
                if not (inspect.isfunction(obj) and obj.__module__ == module.__name__):
                    continue
                name = f"{short}.{attr}"
                if attr.startswith("_") and name not in PRIVATE_HOOKS:
                    continue
                wrappers[id(obj)] = (obj, self._wrap(name, obj))
                self.originals[name] = obj
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    setattr(module, attr, wrappers[id(obj)][1])
                    self._patched.append((module, attr, obj))
        if self.memory:
            tracemalloc.start()

    def uninstall(self) -> None:
        if self.memory:
            tracemalloc.stop()
        for module, attr, obj in reversed(self._patched):
            setattr(module, attr, obj)
        self._patched.clear()

    def _wrap(self, name, fn):
        keep_args = name in ARG_SPANS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name, (args, kwargs) if keep_args else None)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span)

        return wrapper

    # -- span bookkeeping ---------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            if threading.get_ident() == self._main_ident:
                self._main_stack = stack
        return stack

    def _open(self, name, call):
        stack = self._stack()
        on_main = threading.get_ident() == self._main_ident
        if stack:
            parent = stack[-1]["id"]
        elif not on_main and self._main_stack:
            parent = self._main_stack[-1]["id"]
        else:
            parent = None
        span = {"id": next(self._ids), "name": name, "parent": parent, "thread": "main" if on_main else "pool"}
        if call is not None:
            span["call"] = call
        if self.memory and name in PEAK_SPANS:
            self._peak_event(span, opening=True)
        stack.append(span)
        span["start"] = time.perf_counter()
        return span

    def _close(self, span):
        span["end"] = time.perf_counter()
        self._stack().pop()
        if self.memory and span["name"] in PEAK_SPANS:
            self._peak_event(span, opening=False)
        with self._lock:
            self.spans.append(span)

    def _peak_event(self, span, opening: bool) -> None:
        """Fold the traced peak since the last event into every open peak span."""
        with self._lock:
            current, peak = tracemalloc.get_traced_memory()
            for open_span in self._peak_open:
                open_span["_max"] = max(open_span["_max"], peak)
            tracemalloc.reset_peak()
            if opening:
                span["_base"] = span["_max"] = current
                self._peak_open.append(span)
            else:
                self._peak_open.remove(span)
                span["peak_bytes"] = span.pop("_max") - span.pop("_base")


# --------------------------------------------------------------------------
# span arithmetic


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the part of its interval its children cover."""
    by_id = {s["id"]: s for s in spans}
    children = {}
    for s in spans:
        if s["parent"] in by_id:
            children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        clipped = [
            (max(c["start"], s["start"]), min(c["end"], s["end"]))
            for c in children.get(s["id"], ())
            if c["end"] > s["start"] and c["start"] < s["end"]
        ]
        out[s["id"]] = (s["end"] - s["start"]) - union_length(clipped)
    return out


def _outermost(spans, names):
    """Spans named in `names` that have no ancestor named in `names`."""
    by_id = {s["id"]: s for s in spans}
    out = []
    for s in spans:
        if s["name"] not in names:
            continue
        parent = by_id.get(s["parent"])
        while parent is not None and parent["name"] not in names:
            parent = by_id.get(parent["parent"])
        if parent is None:
            out.append(s)
    return out


def layer_time(spans, names, threads: int) -> float:
    """Summed duration of the outermost spans named in `names`.

    A span that ran on a pool thread is divided by the thread count, so the
    result is that layer's share of the wall time of the run.
    """
    names = {names} if isinstance(names, str) else set(names)
    return sum(
        ((s["end"] - s["start"]) / (threads if s["thread"] == "pool" else 1) for s in _outermost(spans, names)),
        0.0,
    )


# --------------------------------------------------------------------------
# window pairs


def window_pairs(x, lower, upper, h: float) -> int:
    """Ordered pairs (a, b), a != b, with X_b inside the mirrored window of X_a.

    On each axis the window of anchor a is [x_a, x_a + h/2] when x_a is at or
    below the axis midpoint and [x_a - h/2, x_a] above it, closed at both
    ends, which is where the kernel weight K_h(A_{x_a}(x_b - x_a)) can be
    nonzero.  A cKDTree with the max-norm finds the candidates; points within
    rounding distance of a window edge are decided by the exact comparison.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    half = 0.5 * h
    below = x <= 0.5 * (lower + upper)
    lo = np.where(below, x, x - half)
    hi = np.where(below, x + half, x)
    centre = 0.5 * (lo + hi)
    radius = 0.25 * h
    slack = 1e-9 * max(h, float(np.max(np.abs(x))))
    tree = cKDTree(x)
    outer = tree.query_ball_point(centre, radius + slack, p=np.inf, return_length=True)
    inner = tree.query_ball_point(centre, radius - slack, p=np.inf, return_length=True)
    unsure = outer != inner
    total = int(np.sum(inner[~unsure]))
    for a in np.nonzero(unsure)[0]:
        cand = np.asarray(tree.query_ball_point(centre[a], radius + slack, p=np.inf), dtype=int)
        pts = x[cand]
        total += int(np.sum(np.all((pts >= lo[a]) & (pts <= hi[a]), axis=1)))
    return total - x.shape[0]  # every anchor lies in its own window


def window_pairs_brute(x, lower, upper, h: float) -> int:
    """Double-loop reference for `window_pairs`; x has shape (n, d)."""
    rows = [[float(v) for v in r] for r in x]
    count = 0
    for a, xa in enumerate(rows):
        for b, xb in enumerate(rows):
            if a == b:
                continue
            inside = True
            for i, (va, vb) in enumerate(zip(xa, xb)):
                if va <= 0.5 * (float(lower[i]) + float(upper[i])):
                    inside = inside and va <= vb <= va + 0.5 * h
                else:
                    inside = inside and va - 0.5 * h <= vb <= va
            count += inside
    return count


# --------------------------------------------------------------------------
# per-layer metrics


def _call_window(call):
    """(masked rows, sub-domain bounds, h) of an estimate_t / estimate_sobol call."""
    args, kwargs = call
    bound = dict(zip(("sample", "spec", "kernel", "h", "f_x"), args))
    bound.update(kwargs)
    # without an explicit domain, f_x is an InputModel and supplies it
    domain = bound.get("domain") or bound["f_x"].domain
    mask = list(bound["spec"].mask)
    x = np.asarray(bound["sample"].V)[:, mask]
    return x, domain.lower[mask], domain.upper[mask], float(bound["h"])


def count_window_pairs(spans) -> int:
    """Window pairs summed over every traced estimator call."""
    cache = {}
    total = 0
    for s in spans:
        if "call" not in s:
            continue
        x, lo, hi, h = _call_window(s["call"])
        key = (id(s["call"][0][0]), h)
        if key not in cache:
            cache[key] = window_pairs(x, lo, hi, h)
        total += cache[key]
    return total


def solo_time(spans, originals, repeats: int = 3) -> float:
    """Median time of the first traced estimate_sobol call replayed alone, unwrapped."""
    first = min((s for s in spans if s["name"] == "estimator.estimate_sobol"), key=lambda s: s["start"], default=None)
    if first is None:
        return 0.0
    fn = originals["estimator.estimate_sobol"]
    args, kwargs = first["call"]
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn(*args, **kwargs)
        times.append(time.perf_counter() - t0)
    return sorted(times)[len(times) // 2]


def peak_metrics(spans) -> dict:
    """Peak metrics (MiB above the level at span entry) of a run traced with memory=True."""

    def peak_mb(*names):
        return max((s.get("peak_bytes", 0) for s in spans if s["name"] in names), default=0) / MIB

    return {
        "bandwidth.beta_tables_peak_mb": peak_mb("bandwidth.build_beta_tables"),
        "bandwidth.target_peak_mb": peak_mb("bandwidth.target_functional"),
        "estimator.peak_mb": peak_mb("estimator.estimate_sobol", "estimator.estimate_t"),
    }


def layer_metrics(spans, threads: int, run_s: float, pairs: int, solo_s: float) -> dict:
    """Time and count metrics of one traced run, keyed by metric name (no units)."""
    by_id = {s["id"]: s for s in spans}
    selfs = self_times(spans)

    def named(name):
        return [s for s in spans if s["name"] == name]

    def dur(s):
        return s["end"] - s["start"]

    grid = [s for s in named("estimator.estimate_t") if by_id.get(s["parent"], {}).get("name") == "bandwidth.bandwidth_curve"]
    sobol_calls = named("estimator.estimate_sobol")
    est_summed = sum(dur(s) for s in sobol_calls + named("estimator.estimate_t"))
    studies = [s for n in STUDY_SPANS for s in named(n)]
    study_ids = {s["id"] for s in studies}
    replicate_s = sum(dur(s) for s in spans if s["parent"] in study_ids)
    study_wall = sum((dur(s) for s in studies), 0.0)
    attributed = [(s["start"], s["end"]) for s in spans if s["name"] not in ROOT_SPANS]
    mean_sobol = sum(dur(s) for s in sobol_calls) / len(sobol_calls) if sobol_calls else 0.0
    return {
        "bandwidth.beta_tables_s": layer_time(spans, "bandwidth.build_beta_tables", threads),
        "bandwidth.target_s": layer_time(spans, "bandwidth.target_functional", threads),
        "bandwidth.virtual_outputs_s": layer_time(spans, "bandwidth.virtual_outputs", threads),
        "bandwidth.grid_s": sum((dur(s) for s in grid), 0.0),
        "bandwidth.grid_evals": len(grid),
        "bandwidth.curve_self_s": sum((selfs[s["id"]] for s in named("bandwidth.bandwidth_curve")), 0.0),
        "estimator.estimate_sobol_s": layer_time(spans, "estimator.estimate_sobol", threads),
        "estimator.estimate_sobol_calls": len(sobol_calls),
        "estimator.estimate_t_s": layer_time(spans, "estimator.estimate_t", threads),
        "estimator.estimate_t_calls": len(named("estimator.estimate_t")),
        "estimator.window_pairs": pairs,
        "estimator.ns_per_window_pair": est_summed * 1e9 / pairs if pairs else 0.0,
        "baselines.nn_s": layer_time(spans, "baselines.nn_estimate", threads),
        "baselines.nn_calls": len(named("baselines.nn_estimate")),
        "baselines.pf_s": layer_time(spans, "baselines.pick_freeze_estimate", threads),
        "baselines.rank_s": layer_time(spans, "baselines.rank_estimate", threads),
        "testbed.study_s": study_wall,
        "testbed.variance_oracles_s": layer_time(spans, "testbed.variance_oracles", threads),
        "testbed.pool_busy_frac": replicate_s / (study_wall * threads) if study_wall else 0.0,
        "testbed.contention_ratio": mean_sobol / solo_s if solo_s else 0.0,
        "inputs.draw_s": layer_time(spans, "inputs.sample", threads),
        "inputs.draw_calls": len(named("inputs.sample")),
        "kernels.build_kernel_s": layer_time(spans, "kernels.build_kernel", threads),
        "cli.parse_s": sum(selfs[s["id"]] for s in named("cli.main")),
        "cli.write_s": layer_time(spans, "cli._write_text", threads),
        "trace.attributed_frac": union_length(attributed) / run_s if run_s else 0.0,
    }
