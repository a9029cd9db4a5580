"""Span tracer for the toroidal benchmark, installed from outside the package.

Every module of ``toroidal`` is one layer.  ``Tracer.install`` wraps the
public functions, public methods, operator methods and public properties
defined in each module, and re-binds a wrapped function wherever another
module imported it by name.  Each call then records one span (name, start,
end, parent span, operation id) in memory.  Self time is a span's duration
minus the time covered by its child spans.  ``Tracer.uninstall`` puts the
original objects back.

A few accessor-sized callables are left unwrapped because a wrapper would
cost more than the call itself; their time is charged to the caller's span.

Two cache counters read the program's own caches before a call, so that work
done before the tracer was installed counts as cached: ``Calculus._anchor_cache``
for anchor hits and ``Cone._hilbert`` for Hilbert bases already computed.  If a
change renames either field, the traced run fails with an AttributeError and
this file must follow.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from array import array

LAYERS = (
    "ratfun",
    "linalg",
    "rootdata",
    "cones",
    "charts",
    "chevalley",
    "bigcell",
    "catalog",
    "suites",
    "analysis",
    "serialize",
    "cli",
)

SKIP = frozenset(
    {
        "linalg.dot",
        "linalg.primitive_vector",
        "linalg.Matrix.nrows",
        "linalg.Matrix.ncols",
        "linalg.Matrix.row",
        "linalg.Matrix.col",
        "cones.Cone.is_zero",
        "cones.Cone.dual_generators",
        "chevalley.Pinning.root_position",
        "cli.entry",
    }
)

OPERATORS = frozenset(
    {
        "__init__",
        "__eq__",
        "__add__",
        "__radd__",
        "__sub__",
        "__rsub__",
        "__mul__",
        "__rmul__",
        "__truediv__",
        "__rtruediv__",
        "__pow__",
        "__neg__",
        "__matmul__",
        "__rmatmul__",
    }
)

# Metric groups: a group's "calls" counts the spans of its members that were
# not opened directly inside another member of the same group, so that
# ``a - b`` (which adds internally) is one call of ratfun.add.
GROUPS = {
    "ratfun.mul": ("ratfun.RatFun.__mul__", "ratfun.RatFun.__rmul__"),
    "ratfun.add": (
        "ratfun.RatFun.__add__",
        "ratfun.RatFun.__radd__",
        "ratfun.RatFun.__sub__",
        "ratfun.RatFun.__rsub__",
    ),
    "ratfun.div": ("ratfun.RatFun.__truediv__", "ratfun.RatFun.__rtruediv__"),
    "ratfun.pow": ("ratfun.RatFun.__pow__",),
    "linalg.matmul": ("linalg.Matrix.__matmul__", "linalg.Matrix.__rmatmul__"),
    "linalg.matrix_init": ("linalg.Matrix.__init__",),
    "linalg.inverse": ("linalg.Matrix.inverse",),
    "linalg.snf": ("linalg.smith_normal_form",),
    "chevalley.ldu": ("chevalley.Pinning.ldu",),
    "chevalley.refactor": ("chevalley.Pinning.unipotent_refactor",),
    "chevalley.unipotent_product": ("chevalley.Pinning.unipotent_product",),
    "charts.validate": ("charts.ChartPoint.__init__",),
    "cones.relations": ("cones.Cone.relations",),
    "cones.cone_init": ("cones.Cone.__init__",),
    "cones.hilbert": ("cones.Cone.hilbert_basis",),
    "cones.fan_validate": ("cones.fan_validate",),
    "cones.orbit_fan": ("cones.orbit_fan",),
    "cones.is_proper": ("cones.is_proper",),
    "bigcell.reflect_simple": ("bigcell.Calculus.reflect_simple",),
    "bigcell.reorder": ("bigcell.Calculus.reorder",),
    "bigcell.act": ("bigcell.Calculus.act",),
    "bigcell.check_equivalence": ("bigcell.Calculus.check_equivalence",),
    "bigcell.anchors": ("bigcell.Calculus.anchors",),
    "analysis.analyze": ("analysis.analyze",),
    "suites.run_suite": ("suites.run_suite",),
    "serialize.dumps": ("serialize.dumps_report",),
    "cli.main": ("cli.main",),
}

# Spans whose duration is also kept per argument class, for the per-call
# micro timings (matmul by size, inverse and ldu by field).
_CLASSIFIED = {
    "linalg.Matrix.__matmul__": lambda a: f"n{a[0].nrows}"
    if len(a) > 1 and hasattr(a[1], "rows")
    else None,
    "linalg.Matrix.inverse": lambda a: _field(a[0]),
    "chevalley.Pinning.ldu": lambda a: _field(a[1]),
}

DOMAIN_STEPS = ("reflect_simple", "reorder", "act", "anchors", "reorder_direct", "act_direct")


def _field(matrix):
    from toroidal.ratfun import RatFun

    for row in matrix.rows:
        for x in row:
            if isinstance(x, RatFun):
                return "eps"
    return "q"


class Tracer:
    """In-memory span recorder with online self-time aggregation."""

    def __init__(self, max_spans: int = 3_000_000):
        self.enabled = False
        self.op_id = -1
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._layer: list[str] = []
        self._group: list[str | None] = []
        self.count: list[int] = []
        self.layer_entries: list[int] = []
        self.group_entries: list[int] = []
        self.total: list[float] = []
        self.self_time: list[float] = []
        self.stack: list[list] = []
        self.next_span = 0
        self.max_spans = max_spans
        self.dropped = 0
        self.columns = {
            "span": array("q"),
            "parent": array("q"),
            "name": array("i"),
            "op": array("q"),
            "start": array("d"),
            "end": array("d"),
        }
        self.classified: dict[tuple[str, str], list] = {}
        self.counters: dict[str, float] = {}
        self.domain_miss = {step: 0 for step in DOMAIN_STEPS}
        self._restore: list[tuple[object, str, object]] = []
        self._t_origin = time.perf_counter()

    # -- names -------------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = len(self.names)
            self._ids[name] = nid
            self.names.append(name)
            self._layer.append(name.split(".", 1)[0])
            group = None
            for g, members in GROUPS.items():
                if name in members:
                    group = g
            self._group.append(group)
            for lst in (self.count, self.layer_entries, self.group_entries):
                lst.append(0)
            for lst in (self.total, self.self_time):
                lst.append(0.0)
        return nid

    def bump(self, key: str, by: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + by

    # -- spans -------------------------------------------------------------

    def open(self, nid: int, t0: float) -> list:
        frame = [nid, t0, 0.0, self.next_span]
        self.next_span += 1
        self.stack.append(frame)
        return frame

    def close(self, frame: list, t1: float) -> None:
        stack = self.stack
        stack.pop()
        nid, t0, child, span = frame
        dur = t1 - t0
        self.count[nid] += 1
        self.total[nid] += dur
        self.self_time[nid] += dur - child
        if stack:
            parent = stack[-1]
            parent[2] += dur
            pid = parent[0]
            if self._layer[pid] != self._layer[nid]:
                self.layer_entries[nid] += 1
            if self._group[pid] != self._group[nid]:
                self.group_entries[nid] += 1
            parent_span = parent[3]
        else:
            self.layer_entries[nid] += 1
            self.group_entries[nid] += 1
            parent_span = -1
        if span < self.max_spans:
            cols = self.columns
            cols["span"].append(span)
            cols["parent"].append(parent_span)
            cols["name"].append(nid)
            cols["op"].append(self.op_id)
            cols["start"].append(t0 - self._t_origin)
            cols["end"].append(t1 - self._t_origin)
        else:
            self.dropped += 1

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, fn, name: str):
        nid = self.name_id(name)
        tracer = self
        perf = time.perf_counter
        layer = name.split(".", 1)[0]
        classify = _CLASSIFIED.get(name)
        hook = _HOOKS.get(name)

        if classify is None and hook is None and layer != "bigcell":

            def traced(*args, **kwargs):
                if not tracer.enabled:
                    return fn(*args, **kwargs)
                frame = tracer.open(nid, perf())
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer.close(frame, perf())

        else:
            from toroidal.bigcell import OutsideDomain

            def traced(*args, **kwargs):
                if not tracer.enabled:
                    return fn(*args, **kwargs)
                key = classify(args) if classify else None
                post = hook(tracer, args) if hook else None
                t0 = perf()
                frame = tracer.open(nid, t0)
                try:
                    result = fn(*args, **kwargs)
                except OutsideDomain as e:
                    parent = tracer.stack[-2] if len(tracer.stack) > 1 else None
                    if parent is None or tracer._layer[parent[0]] != "bigcell":
                        tracer.domain_miss[e.report.step] = (
                            tracer.domain_miss.get(e.report.step, 0) + 1
                        )
                    raise
                finally:
                    t1 = perf()
                    tracer.close(frame, t1)
                    if key is not None:
                        slot = tracer.classified.setdefault((name, key), [0, 0.0])
                        slot[0] += 1
                        slot[1] += t1 - t0
                if post is not None:
                    post(result)
                return result

        functools.update_wrapper(traced, fn)
        return traced

    def install(self) -> None:
        """Wrap every layer's public callables; idempotent per instance."""
        if self._restore:
            return
        modules = {layer: importlib.import_module(f"toroidal.{layer}") for layer in LAYERS}
        modules["__init__"] = importlib.import_module("toroidal")
        replaced = {}
        for layer in LAYERS:
            mod = modules[layer]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    if not issubclass(obj, BaseException):
                        self._wrap_class(layer, obj)
                elif inspect.isfunction(obj):
                    name = f"{layer}.{attr}"
                    if name not in SKIP:
                        replaced[id(obj)] = (obj, self._wrap(obj, name))
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])

    def _wrap_class(self, layer: str, cls) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in OPERATORS:
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if name in SKIP:
                continue
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap(raw.__func__, name))
            elif isinstance(raw, staticmethod):
                new = staticmethod(self._wrap(raw.__func__, name))
            elif isinstance(raw, property):
                if raw.fget is None or raw.fset is not None:
                    continue
                new = property(self._wrap(raw.fget, name), doc=raw.__doc__)
            elif inspect.isfunction(raw):
                new = self._wrap(raw, name)
            else:
                continue
            self._restore.append((cls, attr, raw))
            setattr(cls, attr, new)

    def uninstall(self) -> None:
        for owner, attr, obj in reversed(self._restore):
            setattr(owner, attr, obj)
        self._restore.clear()

    # -- operations ------------------------------------------------------------

    def begin_op(self, op_id: int, kind: str) -> list:
        self.op_id = op_id
        return self.open(self.name_id(f"bench.{kind}"), time.perf_counter())

    def end_op(self, frame: list) -> None:
        self.close(frame, time.perf_counter())
        self.op_id = -1

    # -- results ---------------------------------------------------------------

    def _sum(self, pick, values) -> float:
        return sum(v for nid, v in enumerate(values) if pick(nid))

    def metrics(self) -> dict:
        """Per-layer metric values keyed by the names BENCHMARK.json lists."""
        out = {}
        for layer in LAYERS + ("bench",):
            out[f"{layer}.self_s"] = self._sum(lambda n: self._layer[n] == layer, self.self_time)
            out[f"{layer}.calls"] = self._sum(
                lambda n: self._layer[n] == layer, self.layer_entries
            )
        for group in GROUPS:
            out[f"{group}.calls"] = self._sum(
                lambda n: self._group[n] == group, self.group_entries
            )
            out[f"{group}.self_s"] = self._sum(
                lambda n: self._group[n] == group, self.self_time
            )
        for step, n in self.domain_miss.items():
            out[f"bigcell.domain_miss.{step}"] = n
        anchors = out["bigcell.anchors.calls"]
        out["bigcell.anchors.hit_ratio"] = (
            self.counters.get("anchors.hits", 0) / anchors if anchors else 0.0
        )
        attempts = self.counters.get("equivalence.attempts", 0)
        out["bigcell.equivalence.attempts"] = attempts
        out["bigcell.equivalence.decided_ratio"] = (
            self.counters.get("equivalence.decided", 0) / attempts if attempts else 0.0
        )
        out["cones.hilbert.computed"] = self.counters.get("hilbert.computed", 0)
        out["cones.hilbert.accesses"] = out.pop("cones.hilbert.calls")
        out["cones.fan_validate.pairs"] = self.counters.get("fan_validate.pairs", 0)
        out["cones.orbit_fan.cones"] = self.counters.get("orbit_fan.cones", 0)
        out["serialize.bytes"] = self.counters.get("serialize.bytes", 0)
        micro = {
            "linalg.matmul.n2.us_per_call": ("linalg.Matrix.__matmul__", "n2"),
            "linalg.matmul.n3.us_per_call": ("linalg.Matrix.__matmul__", "n3"),
            "linalg.matmul.n4.us_per_call": ("linalg.Matrix.__matmul__", "n4"),
            "linalg.inverse.q.us_per_call": ("linalg.Matrix.inverse", "q"),
            "linalg.inverse.eps.us_per_call": ("linalg.Matrix.inverse", "eps"),
            "chevalley.ldu.q.us_per_call": ("chevalley.Pinning.ldu", "q"),
            "chevalley.ldu.eps.us_per_call": ("chevalley.Pinning.ldu", "eps"),
        }
        for metric, key in micro.items():
            n, t = self.classified.get(key, (0, 0.0))
            out[metric] = 1e6 * t / n if n else 0.0
        for metric, names in (
            ("ratfun.mul.us_per_call", GROUPS["ratfun.mul"]),
            ("ratfun.add.us_per_call", GROUPS["ratfun.add"]),
            ("cones.cone_init.us_per_call", GROUPS["cones.cone_init"]),
        ):
            ids = [self._ids[n] for n in names if n in self._ids]
            calls = sum(self.count[i] for i in ids)
            total = sum(self.total[i] for i in ids)
            out[metric] = 1e6 * total / calls if calls else 0.0
        computed = out["cones.hilbert.computed"]
        out["cones.hilbert.us_per_call"] = (
            1e6 * out["cones.hilbert.self_s"] / computed if computed else 0.0
        )
        out["trace.spans"] = self.next_span
        out["trace.spans_dropped"] = self.dropped
        return out

    def write(self, path) -> None:
        """Write the span columns (binary, native order) plus a JSON header."""
        header = {
            "names": self.names,
            "columns": {k: v.typecode for k, v in self.columns.items()},
            "rows": len(self.columns["span"]),
            "dropped": self.dropped,
            "time_unit": "s since tracer creation",
        }
        with open(f"{path}.json", "w", encoding="utf-8") as f:
            json.dump(header, f)
        with open(f"{path}.bin", "wb") as f:
            for col in self.columns.values():
                col.tofile(f)


# -- counters read at specific boundaries --------------------------------------


def _hook_anchors(tracer, args):
    if args[1] in args[0]._anchor_cache:
        tracer.bump("anchors.hits")
    return None


def _hook_hilbert(tracer, args):
    if args[0]._hilbert is None:
        tracer.bump("hilbert.computed")
    return None


def _hook_equivalence(tracer, args):
    def post(verdict):
        tracer.bump("equivalence.attempts", verdict.attempts)
        if verdict.kind != "inconclusive":
            tracer.bump("equivalence.decided")

    return post


def _hook_fan_validate(tracer, args):
    n = len(args[0].cones)
    tracer.bump("fan_validate.pairs", n * (n - 1) // 2)
    return None


def _hook_orbit_fan(tracer, args):
    return lambda fan: tracer.bump("orbit_fan.cones", len(fan.cones))


def _hook_dumps(tracer, args):
    return lambda text: tracer.bump("serialize.bytes", len(text.encode("utf-8")))


_HOOKS = {
    "bigcell.Calculus.anchors": _hook_anchors,
    "cones.Cone.hilbert_basis": _hook_hilbert,
    "bigcell.Calculus.check_equivalence": _hook_equivalence,
    "cones.fan_validate": _hook_fan_validate,
    "cones.orbit_fan": _hook_orbit_fan,
    "serialize.dumps_report": _hook_dumps,
}
