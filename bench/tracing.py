"""In-memory span tracer and the per-layer metrics derived from its spans.

Installing a :class:`Tracer` replaces each public function of the traced
polywalk modules with a wrapper, at every module attribute bound to that
function: ``shadow`` binds ``edge_directions`` and ``verify_vertex`` by name,
``experiments`` and ``cli`` bind ``find_path``, and ``linalg`` is reached as a
module attribute, so patching only the defining module would miss calls.
Nothing under ``src/`` changes; the wrappers are removed on exit.

Each call records one span: name, start, end, parent span and whether it
raised.  Spans live in flat typed arrays (about 40 bytes each), so a traced
corpus pass of a few hundred thousand spans stays small.  A generator
function (``feasible_bases``) records one span per resumption, all sharing
the call id of the first, so time spent by its consumer between items is not
charged to it.  Self time is a span's duration minus that of its children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import sys
import time
from array import array

import numpy as np

PACKAGE = "polywalk"
TRACED_MODULES = ("linalg", "polytope", "shadow", "flatness", "instances",
                  "experiments", "cli")

# Input coercions run inside nearly every other call; wrapping them would
# multiply the span count without naming a layer.
UNTRACED = frozenset({"as_vector", "as_matrix", "as_int_matrix", "normalize"})


def _span_name(module: str, func: str) -> str:
    if module == "cli" and func.startswith("cmd_"):
        func = func[len("cmd_"):]
    return f"{module}.{func}"


def _observe_find_path(counters, args, kwargs, result, exc):
    if exc is not None:
        counters["shadow.find_path.attempts"] += len(getattr(exc, "reasons", ()))
        return
    counters["shadow.find_path.attempts"] += result.retries + 1
    if result.status == "Perturbed+Completed":
        counters["shadow.find_path.perturbed"] += 1


def _observe_delta_A(counters, args, kwargs, result, exc):
    if exc is not None:
        return
    inst = args[0] if args else kwargs["inst"]
    counters["flatness.delta_A.bases_checked"] += result.n_bases_checked
    counters["flatness.delta_A.bases_total"] += math.comb(inst.m, inst.n)


OBSERVERS = {"shadow.find_path": _observe_find_path,
             "flatness.delta_A": _observe_delta_A}


class Tracer:
    """Records spans of traced polywalk calls while installed.

    Use as a context manager; ``with Tracer() as tracer:`` wraps the
    functions on entry and restores the originals on exit.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self._name = array("i")
        self._parent = array("q")
        self._call = array("q")
        self._start = array("d")
        self._end = array("d")
        self._failed = array("b")
        self._stack = [-1]
        self.counters: dict[str, int] = {}
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------

    def _open(self, ix: int, call: int | None = None) -> int:
        sid = len(self._start)
        self._name.append(ix)
        self._parent.append(self._stack[-1])
        self._call.append(sid if call is None else call)
        self._failed.append(0)
        self._end.append(0.0)
        self._stack.append(sid)
        self._start.append(time.perf_counter())
        return sid

    def _close(self, sid: int, failed: bool = False) -> None:
        self._end[sid] = time.perf_counter()
        self._stack.pop()
        if failed:
            self._failed[sid] = 1

    def _name_index(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
        return self._index[name]

    def _wrap(self, name: str, fn):
        ix = self._name_index(name)
        observe = OBSERVERS.get(name)
        tracer = self

        if inspect.isgeneratorfunction(fn):
            yielded = f"{name}.yielded"
            self.counters.setdefault(yielded, 0)

            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                it = fn(*args, **kwargs)
                first = None
                while True:
                    sid = tracer._open(ix, first)
                    if first is None:
                        first = sid
                    try:
                        item = next(it)
                    except StopIteration:
                        tracer._close(sid)
                        return
                    except Exception:
                        tracer._close(sid, failed=True)
                        raise
                    tracer._close(sid)
                    tracer.counters[yielded] += 1
                    yield item

            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = tracer._open(ix)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer._close(sid, failed=True)
                if observe is not None:
                    observe(tracer.counters, args, kwargs, None, exc)
                raise
            tracer._close(sid)
            if observe is not None:
                observe(tracer.counters, args, kwargs, result, None)
            return result

        return traced

    # -- installation ---------------------------------------------------

    def __enter__(self) -> "Tracer":
        for key in ("shadow.find_path.attempts", "shadow.find_path.perturbed",
                    "flatness.delta_A.bases_checked", "flatness.delta_A.bases_total"):
            self.counters.setdefault(key, 0)
        modules = {short: importlib.import_module(f"{PACKAGE}.{short}")
                   for short in TRACED_MODULES}
        loaded = [mod for key, mod in sorted(sys.modules.items())
                  if mod is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        for short, module in modules.items():
            for attr, fn in sorted(vars(module).items()):
                if attr.startswith("_") or attr in UNTRACED:
                    continue
                if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                wrapper = self._wrap(_span_name(short, attr), fn)
                for mod in loaded:
                    for bound, value in list(vars(mod).items()):
                        if value is fn:
                            self._patched.append((mod, bound, fn))
                            setattr(mod, bound, wrapper)
        return self

    def __exit__(self, *exc_info) -> None:
        for mod, bound, fn in reversed(self._patched):
            setattr(mod, bound, fn)
        self._patched.clear()

    # -- analysis -------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        """The spans as numpy arrays, one entry per span."""
        return {
            "name": np.frombuffer(self._name, dtype=np.intc).copy(),
            "parent": np.frombuffer(self._parent, dtype=np.int64).copy(),
            "call": np.frombuffer(self._call, dtype=np.int64).copy(),
            "start": np.frombuffer(self._start, dtype=np.float64).copy(),
            "end": np.frombuffer(self._end, dtype=np.float64).copy(),
            "failed": np.frombuffer(self._failed, dtype=np.int8).copy(),
        }

    def write(self, path) -> None:
        """Write every span plus the name table to an ``.npz`` file."""
        np.savez(path, names=np.array(self.names, dtype=str), **self.arrays())

    def summary(self) -> "SpanSummary":
        return SpanSummary(self.names, self.arrays(), dict(self.counters))


class SpanSummary:
    """Calls, time and self time per span name, plus parent-child counts."""

    def __init__(self, names: list[str], spans: dict[str, np.ndarray],
                 counters: dict[str, int]):
        self.names = names
        self.counters = counters
        self._ix = {name: i for i, name in enumerate(names)}
        self.name = spans["name"]
        self.parent = spans["parent"]
        self.failed = spans["failed"].astype(bool)
        self.dur = spans["end"] - spans["start"]
        total = self.name.size
        idx = np.arange(total)
        self.first = spans["call"] == idx
        has_parent = self.parent >= 0
        child_time = np.bincount(self.parent[has_parent], weights=self.dur[has_parent],
                                 minlength=total)
        self.self_time = self.dur - child_time
        self.parent_name = np.full(total, -1)
        self.parent_name[has_parent] = self.name[self.parent[has_parent]]

    def _mask(self, name: str) -> np.ndarray:
        if name not in self._ix:
            return np.zeros(self.name.size, dtype=bool)
        return self.name == self._ix[name]

    def calls(self, name: str) -> int:
        return int(np.count_nonzero(self._mask(name) & self.first))

    def seconds(self, name: str) -> float:
        return float(self.dur[self._mask(name)].sum())

    def self_seconds(self, name: str) -> float:
        return float(self.self_time[self._mask(name)].sum())

    def failed_seconds(self, name: str) -> float:
        return float(self.dur[self._mask(name) & self.failed].sum())

    def _under(self, name: str, parent: str) -> np.ndarray:
        if parent not in self._ix:
            return np.zeros(self.name.size, dtype=bool)
        return self._mask(name) & (self.parent_name == self._ix[parent])

    def calls_under(self, name: str, parent: str) -> int:
        """Calls of ``name`` made directly inside a span of ``parent``."""
        return int(np.count_nonzero(self._under(name, parent)))

    def seconds_under(self, name: str, parent: str) -> float:
        return float(self.dur[self._under(name, parent)].sum())


def _ratio(num: float, den: float) -> float:
    """num / den, or 0.0 when the base is empty (the layer did not run)."""
    return num / den if den else 0.0


def layer_metrics(s: SpanSummary) -> dict[str, tuple[float, str]]:
    """Every per-layer metric, by name, as (value, unit).

    A layer that a workload never enters reports zero calls, zero seconds
    and zero ratios, so every workload prints the same metric set.
    """
    out: dict[str, tuple[float, str]] = {}

    def calls_and_s(*names: str) -> None:
        for name in names:
            out[f"{name}.calls"] = (s.calls(name), "count")
            out[f"{name}.s"] = (s.seconds(name), "s")

    calls_and_s("linalg.solve", "linalg.inverse", "linalg.rank", "linalg.int_determinant",
                "polytope.verify_vertex", "polytope.edge_directions", "polytope.ratio_step")

    pivots = s.calls_under("polytope.ratio_step", "shadow.walk")
    calls_and_s("shadow.walk")
    out["shadow.walk.pivots"] = (pivots, "count")
    out["shadow.pivot_us"] = (_ratio(1e6 * s.seconds("shadow.walk"), pivots), "us")
    out["shadow.sample_objectives.calls"] = (s.calls("shadow.sample_objectives"), "count")

    subsets = s.calls_under("linalg.solve", "polytope.feasible_bases")
    yielded = s.counters.get("polytope.feasible_bases.yielded", 0)
    out["polytope.feasible_bases.subsets"] = (subsets, "count")
    out["polytope.feasible_bases.yielded"] = (yielded, "count")
    out["polytope.feasible_bases.yield_ratio"] = (_ratio(yielded, subsets), "ratio")
    out["polytope.feasible_bases.s"] = (s.seconds("polytope.feasible_bases"), "s")
    calls_and_s("polytope.vertex_graph", "instances.farthest_vertex_pair")
    out["instances.gen_random_sphere.draws"] = (
        s.calls_under("polytope.build_instance", "instances.gen_random_sphere"), "count")

    calls_and_s("flatness.delta_A")
    out["flatness.delta_A.bases_checked"] = (
        s.counters.get("flatness.delta_A.bases_checked", 0), "count")
    out["flatness.delta_A.bases_total"] = (
        s.counters.get("flatness.delta_A.bases_total", 0), "count")
    calls_and_s("flatness.delta_basis", "flatness.subdet_report")
    out["flatness.subdet_report.minors"] = (
        s.calls_under("linalg.int_determinant", "flatness.subdet_report"), "count")

    finds = s.calls("shadow.find_path")
    walk_s = s.seconds("shadow.walk")
    calls_and_s("shadow.find_path")
    out["shadow.find_path.self_s"] = (s.self_seconds("shadow.find_path"), "s")
    out["shadow.retry_perturb_s"] = (
        s.seconds("shadow.find_path") - s.seconds_under("shadow.walk", "shadow.find_path"), "s")
    out["shadow.attempts_per_walk"] = (
        _ratio(s.counters.get("shadow.find_path.attempts", 0), finds), "ratio")
    out["shadow.perturbed_share"] = (
        _ratio(s.counters.get("shadow.find_path.perturbed", 0), finds), "ratio")
    out["shadow.wasted_walk_share"] = (_ratio(s.failed_seconds("shadow.walk"), walk_s), "ratio")
    calls_and_s("polytope.perturb", "polytope.map_to_original")

    for name in ("experiments.run_batch", "experiments.bound_report", "experiments.emit",
                 "instances.read_instance", "instances.write_instance",
                 "cli.generate", "cli.path", "cli.bound_check", "cli.experiment"):
        out[f"{name}.s"] = (s.seconds(name), "s")
    return out

