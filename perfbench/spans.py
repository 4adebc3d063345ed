"""Span tracing of a swanopt sweep from outside the program.

The benchmark edits no program source. It replaces public swanopt functions
in the module namespaces they are called from with wrappers that record a
span each: name, start, end, parent span and realization index. Spans stay
in flat in-memory arrays until the run ends; the per-layer metrics are
derived from them, and `save` writes them out.

Layers are the package modules: cli, harness, geometry, optimize, channel
and bound. Private helpers (`_best_grid_point`, `_element_update`, ...) get
no span of their own, so their time shows up only as optimize self time.
"""

import importlib
import time
from array import array
from collections import Counter

import numpy as np

M_KEYS = (8, 20, 40)
OPTIMIZER_SPANS = (
    "optimize.greedy_hssa_type1",
    "optimize.greedy_hssa_type2",
    "optimize.full_sa_baseline.type1",
    "optimize.full_sa_baseline.type2",
)
BOUND_FUNCTIONS = ("exact_amplitude_bound", "sum_rate_bound", "split_for_user", "f_exact", "f_integral")
COMPLEX128_BYTES = 16


class Patches:
    """Attribute replacements on modules, undone in reverse order by `restore`."""

    def __init__(self):
        self._saved = []

    def replace(self, module_name: str, attr: str, make_wrapper) -> None:
        module = importlib.import_module(module_name)
        original = getattr(module, attr)
        self._saved.append((module, attr, original))
        setattr(module, attr, make_wrapper(original))

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


class Tracer:
    """In-memory span store plus counters recorded at the same boundaries."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("i")
        self.realization = array("q")
        self.extra: dict[int, int] = {}  # span index -> segment count M, for scheme and point spans
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._realization = -1
        self._last_rng = None
        self._point = None

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        i = len(self.start)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.name.append(name_id)
        self.realization.append(self._realization)
        self._stack.append(i)
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def new_realization(self, rng) -> None:
        # The harness draws each realization (and its redraws) from one fresh
        # Generator, so a new rng object marks a new realization.
        if rng is not self._last_rng:
            self._last_rng = rng
            self._realization += 1

    def begin_point(self, num_segments: int) -> None:
        """Close the open sweep-point span, if any, and open the next one."""
        self.end_point()
        self._point = self.open(self.name_id("harness.point"))
        self.extra[self._point] = num_segments

    def end_point(self) -> None:
        if self._point is not None:
            self.close(self._point)
            self._point = None

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            name=np.frombuffer(self.name, dtype=np.int32),
            realization=np.frombuffer(self.realization, dtype=np.int64),
        )


def _spanned(tracer: Tracer, name: str, fn, after=None):
    """Wrap `fn` in a span; `after(span, args, kwargs, result)` records counts."""
    name_id = tracer.name_id(name)

    def wrapper(*args, **kwargs):
        i = tracer.open(name_id)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(i)
        if after is not None:
            after(i, args, kwargs, result)
        return result

    return wrapper


def install(tracer: Tracer, patches: Patches) -> None:
    """Wrap every traced function in each namespace the sweep calls it through."""
    t = tracer

    def span(module, attr, name, after=None):
        patches.replace(module, attr, lambda fn: _spanned(t, name, fn, after))

    def record_greedy(i, args, kwargs, trace):
        t.extra[i] = args[1].num_segments
        degenerate = sum(lvl.degenerate for lvl in trace.levels)
        t.counts["optimize.degenerate_levels"] += degenerate
        t.counts[f"{t.names[t.name[i]]}.levels"] += len(trace.levels) - degenerate

    def full_sa(fn):
        ids = {v: t.name_id(f"optimize.full_sa_baseline.{v}") for v in ("type1", "type2")}

        def wrapper(*args, **kwargs):
            variant = args[4] if len(args) > 4 else kwargs.get("variant", "type1")
            i = t.open(ids[variant])
            try:
                result = fn(*args, **kwargs)
            finally:
                t.close(i)
            t.extra[i] = args[1].num_segments
            return result

        return wrapper

    def record_ao(i, args, kwargs, result):
        max_iter = args[3] if len(args) > 3 else kwargs.get("max_iter", 100)
        t.counts["optimize.phase_alternating_opt.sweeps"] += result.iterations
        if args[0].size > 1 and result.iterations >= max_iter:
            t.counts["optimize.phase_alternating_opt.cap_hits"] += 1

    def record_gains(i, args, kwargs, result):
        t.counts["channel.segment_gains.points"] += result.size

    def sample_users(fn):
        inner = _spanned(t, "geometry.sample_users", fn)

        def wrapper(num_users, region_x_m, region_y_m, power_w, rng_seed):
            t.new_realization(rng_seed)
            return inner(num_users, region_x_m, region_y_m, power_w, rng_seed)

        return wrapper

    def point_boundary(fn):
        def wrapper(num_segments, *args, **kwargs):
            t.begin_point(num_segments)
            return fn(num_segments, *args, **kwargs)

        return wrapper

    def write(fn):
        inner = _spanned(t, "harness.write", fn)

        def wrapper(*args, **kwargs):
            t.end_point()
            return inner(*args, **kwargs)

        return wrapper

    patches.replace("swanopt.cli", "write_sweep_result", write)
    patches.replace("swanopt.harness", "build_centered_layout", point_boundary)
    patches.replace("swanopt.harness", "sample_users", sample_users)
    span("swanopt.harness", "greedy_hssa_type1", "optimize.greedy_hssa_type1", record_greedy)
    span("swanopt.harness", "greedy_hssa_type2", "optimize.greedy_hssa_type2", record_greedy)
    patches.replace("swanopt.harness", "full_sa_baseline", full_sa)
    for fn in ("exact_amplitude_bound", "sum_rate_bound"):
        span("swanopt.harness", fn, f"bound.{fn}")
    for fn in ("split_for_user", "f_exact", "f_integral"):
        span("swanopt.bound", fn, f"bound.{fn}")
    span("swanopt.optimize", "build_phase_matrix", "optimize.build_phase_matrix")
    span("swanopt.optimize", "phase_alternating_opt", "optimize.phase_alternating_opt", record_ao)
    for module in ("swanopt.optimize", "swanopt.channel"):
        span(module, "segment_gains", "channel.segment_gains", record_gains)
        span(module, "cascaded_gain_matrix", "channel.cascaded_gain_matrix")


def traced_call(tracer: Tracer, name: str, fn, *args):
    """Run `fn(*args)` as a root span named `name`."""
    i = tracer.open(tracer.name_id(name))
    try:
        return fn(*args)
    finally:
        tracer.end_point()
        tracer.close(i)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics derived from the spans and counters of one traced sweep."""
    t = tracer
    n_names = len(t.names)
    start = np.frombuffer(t.start, dtype=float)
    end = np.frombuffer(t.end, dtype=float)
    parent = np.frombuffer(t.parent, dtype=np.int64)
    name = np.frombuffer(t.name, dtype=np.int32)
    dur = end - start
    calls = np.bincount(name, minlength=n_names)
    secs = np.bincount(name, weights=dur, minlength=n_names)
    has_parent = parent >= 0
    child_s = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    self_s = dur - child_s

    def ident(n):
        return t._ids.get(n, -1)

    def n_calls(n):
        i = ident(n)
        return int(calls[i]) if i >= 0 else 0

    def seconds(n):
        i = ident(n)
        return float(secs[i]) if i >= 0 else 0.0

    def durations_by_m(n):
        i = ident(n)
        by_m = {}
        for span, m in t.extra.items():
            if name[span] == i:
                by_m.setdefault(m, []).append(dur[span])
        return by_m

    out: dict[str, float] = {}
    for n in OPTIMIZER_SPANS:
        out[f"{n}.calls"] = n_calls(n)
        out[f"{n}.s"] = seconds(n)
        by_m = durations_by_m(n)
        for m in M_KEYS:
            out[f"{n}.s_per_call.M{m}"] = float(np.mean(by_m[m])) if m in by_m else 0.0

    ao = "optimize.phase_alternating_opt"
    out[f"{ao}.calls"] = n_calls(ao)
    out[f"{ao}.s"] = seconds(ao)
    out[f"{ao}.sweeps"] = t.counts[f"{ao}.sweeps"]
    out[f"{ao}.cap_hits"] = t.counts[f"{ao}.cap_hits"]
    out["optimize.build_phase_matrix.calls"] = n_calls("optimize.build_phase_matrix")
    out["optimize.build_phase_matrix.s"] = seconds("optimize.build_phase_matrix")

    # AO calls made inside hssa-2 searches, per committed non-degenerate level.
    hssa2, ao_id = ident("optimize.greedy_hssa_type2"), ident(ao)
    ao_in_hssa2 = 0
    for span in np.flatnonzero(name == ao_id):
        p = parent[span]
        while p >= 0 and name[p] != hssa2:
            p = parent[p]
        ao_in_hssa2 += int(p >= 0)
    levels = t.counts["optimize.greedy_hssa_type2.levels"]
    out["optimize.ao_calls_per_level"] = ao_in_hssa2 / levels if levels else 0.0
    out["optimize.degenerate_levels"] = t.counts["optimize.degenerate_levels"]
    optimize_ids = [i for i, n in enumerate(t.names) if n.startswith("optimize.")]
    out["optimize.self_s"] = float(np.sum(self_s[np.isin(name, optimize_ids)]))

    out["channel.segment_gains.calls"] = n_calls("channel.segment_gains")
    out["channel.segment_gains.s"] = seconds("channel.segment_gains")
    points = t.counts["channel.segment_gains.points"]
    out["channel.segment_gains.points"] = points
    out["channel.segment_gains.bytes_computed"] = points * COMPLEX128_BYTES
    out["channel.cascaded_gain_matrix.calls"] = n_calls("channel.cascaded_gain_matrix")
    out["channel.cascaded_gain_matrix.s"] = seconds("channel.cascaded_gain_matrix")

    for fn in BOUND_FUNCTIONS:
        out[f"bound.{fn}.calls"] = n_calls(f"bound.{fn}")
        out[f"bound.{fn}.s"] = seconds(f"bound.{fn}")

    out["geometry.sample_users.calls"] = n_calls("geometry.sample_users")
    out["geometry.sample_users.s"] = seconds("geometry.sample_users")

    point_by_m = durations_by_m("harness.point")
    for m in M_KEYS:
        out[f"harness.point_s.M{m}"] = float(point_by_m[m][0]) if m in point_by_m else 0.0
    point_s = [d for ds in point_by_m.values() for d in ds]
    out["harness.point_s_p50"] = float(np.percentile(point_s, 50)) if point_s else 0.0
    out["harness.point_s_p90"] = float(np.percentile(point_s, 90)) if point_s else 0.0
    out["harness.write_s"] = seconds("harness.write")
    return out
