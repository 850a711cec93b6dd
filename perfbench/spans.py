"""Span tracer for the benchmark's traced runs.

`Tracer.install()` replaces every public function and method of the
`toricfilt` modules with a wrapper that records one span per call: the
layer (the defining module), start, end, parent span and operation id.  A
function is patched under every name it is bound to, so a copy bound by
`from .linalg import intersect` in another module is traced too.
`Tracer.restore()` puts every original back.

Spans go into flat arrays in memory and are written out once, when the run
ends; self time per layer is computed from them afterwards.  Times come from
`time.perf_counter`, which on Linux reads CLOCK_MONOTONIC, a clock shared by
all processes, so spans recorded in CLI child processes line up with the
parent's timestamps.
"""

from __future__ import annotations

import array
import json
import statistics
import sys
import types
from time import perf_counter
from typing import Callable, Dict, List

PACKAGE = "toricfilt"

# Element-level helpers stay unwrapped: they run once per scalar or vector,
# so a span per call would cost more than the work it measures.  Their time
# counts as self time of the calling function, which sits in the same layer.
LEAF_HELPERS = {
    "linalg": {"to_fraction", "vector", "dot", "vadd", "vsub", "vscale",
               "is_zero_vector", "kron"},
    "lattice": {"content", "is_primitive"},
    "serialize": {"format_rational", "parse_rational", "jsonable"},
}

MARK = "_perfbench_original"


def is_wrapped(obj) -> bool:
    return hasattr(obj, MARK)


def _layer(module_name: str) -> str:
    return module_name.rsplit(".", 1)[-1]


class SpanStore:
    """Spans as parallel arrays; `names[fid]` is "layer:qualified.name"."""

    def __init__(self):
        self.names: List[str] = []
        self.fid = array.array("H")
        self.start = array.array("d")
        self.end = array.array("d")
        self.parent = array.array("i")
        self.op = array.array("i")
        self.counters: Dict[str, float] = {}
        self.samples: Dict[str, List[float]] = {}

    def __len__(self) -> int:
        return len(self.fid)

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def sample(self, key: str, value: float) -> None:
        self.samples.setdefault(key, []).append(value)

    def dump(self, path: str) -> None:
        """One JSON header line, then the arrays in binary."""
        header = {"names": self.names, "n": len(self), "counters": self.counters,
                  "samples": self.samples}
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for arr in (self.fid, self.start, self.end, self.parent, self.op):
                arr.tofile(handle)

    def merge_file(self, path: str, op: int) -> int:
        """Append the spans dumped by another process, re-tagged with `op`;
        returns the index of the first appended span."""
        with open(path, "rb") as handle:
            header = json.loads(handle.readline())
            n = header["n"]
            parts = []
            for code in ("H", "d", "d", "i", "i"):
                arr = array.array(code)
                arr.fromfile(handle, n)
                parts.append(arr)
        fid, start, end, parent, _ = parts
        remap = [self._fid(name) for name in header["names"]]
        base = len(self)
        self.fid.extend(array.array("H", (remap[f] for f in fid)))
        self.start.extend(start)
        self.end.extend(end)
        self.parent.extend(array.array("i", (p + base if p >= 0 else -1 for p in parent)))
        self.op.extend(array.array("i", [op]) * n)
        for key, value in header["counters"].items():
            self.count(key, value)
        for key, values in header["samples"].items():
            self.samples.setdefault(key, []).extend(values)
        return base

    def _fid(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            self.names.append(name)
            return len(self.names) - 1

    def add(self, name: str, start: float, end: float, parent: int, op: int) -> int:
        self.fid.append(self._fid(name))
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        self.op.append(op)
        return len(self) - 1


# Per-function observations that a span alone cannot give; each hook gets
# (store, args, result, seconds).
def _rref_rows(store, args, result, dt):
    store.count("linalg.rref_rows", len(args[0]))


def _cone_verdict(store, args, result, dt):
    kind = result.refutation.kind if result.refutation is not None else result.verdict
    store.count(f"compatibility.verdict.{kind}")
    if result.verdict in ("certificate", "refutation"):
        store.sample(f"compatibility.{result.verdict}_ms", dt * 1000)


def _laurent_terms(store, args, result, dt):
    store.count("bundles.laurent_terms", sum(len(c) for row in result.entries for c in row))


def _basis_monomials(store, args, result, dt):
    store.count("algebras.basis_monomials", len(result.basis))


def _torus(store, args, result, dt):
    store.count("reduction.universe_lines", result.universe_size)
    store.count("reduction.none_found", result.verdict == "NONE-FOUND")


HOOKS: Dict[str, Callable] = {
    "linalg.rref": _rref_rows,
    "compatibility.cone_compatibility": _cone_verdict,
    "bundles.transition": _laurent_terms,
    "algebras.build_truncation": _basis_monomials,
    "reduction.check_torus_reduction": _torus,
}


class Tracer:
    def __init__(self):
        self.store = SpanStore()
        self.op = -1
        self._stack: List[int] = []
        self._wrappers: Dict[int, object] = {}
        self._patches: list = []

    # -- wrapping -------------------------------------------------------

    def _wrap(self, fn, name: str):
        key = id(fn)
        if key in self._wrappers:
            return self._wrappers[key]
        store, stack, tracer = self.store, self._stack, self
        fid = store._fid(name)
        hook = HOOKS.get(name.split(":", 1)[1])
        fids, starts, ends, parents, ops = (store.fid, store.start, store.end,
                                            store.parent, store.op)

        def wrapper(*args, **kwargs):
            idx = len(fids)
            fids.append(fid)
            parents.append(stack[-1] if stack else -1)
            ops.append(tracer.op)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if hook is not None:
                hook(store, args, result, t1 - t0)
            return result

        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        wrapper.__doc__ = fn.__doc__
        setattr(wrapper, MARK, fn)
        self._wrappers[key] = wrapper
        return wrapper

    def open_span(self, name: str, start: float) -> int:
        """Start a span that code outside the wrappers closes by setting
        `store.end`; calls made meanwhile become its children."""
        idx = self.store.add(name, start, 0.0, self._stack[-1] if self._stack else -1, self.op)
        self._stack.append(idx)
        return idx

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        modules = sorted((n, m) for n, m in sys.modules.items()
                         if m is not None and (n == PACKAGE or n.startswith(PACKAGE + ".")))
        for modname, module in modules:
            for attr, value in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if isinstance(value, type):
                    if value.__module__ == modname and not issubclass(value, BaseException):
                        self._patch_class(value)
                    continue
                home = getattr(value, "__module__", None) or ""
                if not callable(value) or not home.startswith(PACKAGE + "."):
                    continue
                if not isinstance(value, types.FunctionType) and not hasattr(value, "cache_info"):
                    continue
                layer = _layer(home)
                if value.__name__ in LEAF_HELPERS.get(layer, ()):
                    continue
                self._patch(module, attr, self._wrap(value, f"{layer}:{layer}.{value.__name__}"))

    def _patch_class(self, cls) -> None:
        layer = _layer(cls.__module__)
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{layer}:{layer}.{cls.__name__}.{attr}"
            if isinstance(raw, staticmethod):
                self._patch(cls, attr, staticmethod(self._wrap(raw.__func__, name)))
            elif isinstance(raw, types.FunctionType):
                self._patch(cls, attr, self._wrap(raw, name))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def lru_stats() -> Dict[str, tuple]:
    """(hits, misses) so far of the two cone caches in `fans`; read while
    the wrappers are not installed."""
    from toricfilt import fans
    return {name: tuple(getattr(fans, name).cache_info()[:2])
            for name in ("cone_from_generators", "cone_intersection")}


# ---------------------------------------------------------------------------
# per-layer metrics

LAYERS = ("linalg", "lattice", "fans", "filtrations", "compatibility", "bundles",
          "algebras", "reduction", "serialize", "cli")


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(store: SpanStore, wall: float, lru: Dict[str, tuple]) -> Dict[str, float]:
    """Calls, self time and share of wall time per layer, plus the extra
    per-layer figures named in BENCHMARK.json."""
    n = len(store)
    layer_of = [name.split(":", 1)[0] for name in store.names]
    func_of = [name.split(":", 1)[1] for name in store.names]
    dur = [e - s for s, e in zip(store.start, store.end)]
    child = [0.0] * n
    for i, p in enumerate(store.parent):
        if p >= 0:
            child[p] += dur[i]

    out: Dict[str, float] = {}
    calls = {layer: 0 for layer in LAYERS}
    self_s = {layer: 0.0 for layer in LAYERS}
    per_func_calls: Dict[str, int] = {}
    per_func_s: Dict[str, float] = {}
    for i in range(n):
        f = store.fid[i]
        layer = layer_of[f]
        calls[layer] = calls.get(layer, 0) + 1
        self_s[layer] = self_s.get(layer, 0.0) + dur[i] - child[i]
        func = func_of[f]
        per_func_calls[func] = per_func_calls.get(func, 0) + 1
        per_func_s[func] = per_func_s.get(func, 0.0) + dur[i]
    for layer in LAYERS:
        out[f"{layer}.calls"] = calls[layer]
        out[f"{layer}.self_s"] = self_s[layer]
        out[f"{layer}.share"] = self_s[layer] / wall if wall > 0 else 0.0

    def fcalls(*names):
        return sum(per_func_calls.get(x, 0) for x in names)

    def fsec(*names):
        return sum(per_func_s.get(x, 0.0) for x in names)

    def outer_seconds(pred) -> float:
        """Inclusive seconds of matching spans not nested in another match."""
        hit = [pred(func_of[store.fid[i]]) for i in range(n)]
        inside = [False] * n
        total = 0.0
        for i in range(n):
            p = store.parent[i]
            inside[i] = p >= 0 and (inside[p] or hit[p])
            if hit[i] and not inside[i]:
                total += dur[i]
        return total

    def ratio(key):
        hits, misses = lru.get(key, (0, 0))
        return hits / (hits + misses) if hits + misses else 0.0

    c = store.counters
    out.update({
        "linalg.rref_calls": fcalls("linalg.rref"),
        "linalg.rref_rows": c.get("linalg.rref_rows", 0),
        "linalg.kernel_calls": fcalls("linalg.kernel"),
        "linalg.intersect_calls": fcalls("linalg.intersect", "linalg.intersect_all"),
        "linalg.span_calls": fcalls("linalg.span_canonical"),
        "lattice.snf_calls": fcalls("lattice.smith_normal_form"),
        "lattice.solve_integer_calls": fcalls("lattice.solve_integer"),
        "fans.dd_calls": fcalls("fans.dual_description"),
        "fans.cone_cache_hit_ratio": ratio("cone_from_generators"),
        "fans.intersection_cache_hit_ratio": ratio("cone_intersection"),
        "filtrations.tensor_s": fsec("filtrations.tensor"),
        "filtrations.dual_s": fsec("filtrations.dual"),
        "filtrations.direct_sum_s": fsec("filtrations.direct_sum"),
        "compatibility.cones": fcalls("compatibility.cone_compatibility"),
        "compatibility.certificate_ms_p50": _median(store.samples.get("compatibility.certificate_ms")),
        "compatibility.refutation_ms_p50": _median(store.samples.get("compatibility.refutation_ms")),
    })
    for kind in ("certificate", "distributivity", "integrality", "exhausted", "inconclusive"):
        out[f"compatibility.verdict.{kind}"] = c.get(f"compatibility.verdict.{kind}", 0)
    out.update({
        "compatibility.exhaustive_calls": fcalls("compatibility.exhaustive_adapted_search"),
        "compatibility.exhaustive_s": fsec("compatibility.exhaustive_adapted_search"),
        "compatibility.verify_s": fsec("compatibility.verify_cone_decomposition"),
        "bundles.transition_calls": fcalls("bundles.transition"),
        "bundles.laurent_terms": c.get("bundles.laurent_terms", 0),
        "bundles.glue_s": fsec("bundles.check_gluing"),
        "algebras.basis_monomials": c.get("algebras.basis_monomials", 0),
        "algebras.check_s": fsec("algebras.check_multiplicative",
                                 "algebras.check_compatible_algebra",
                                 "algebras.check_coaction_commutes"),
        "reduction.universe_lines": c.get("reduction.universe_lines", 0),
        "reduction.torus_s": fsec("reduction.check_torus_reduction"),
        "reduction.none_found": c.get("reduction.none_found", 0),
        "serialize.load_s": outer_seconds(lambda f: f.startswith("serialize.load_")),
        "serialize.dump_s": outer_seconds(
            lambda f: f == "serialize.dump_report" or
            (f.startswith("serialize.") and f.endswith("_to_obj"))),
    })
    return out
