"""Tests of the benchmark itself: seeded corpus digests, and that span
wrappers are installed on every binding and removed again.

Run from the repository root: python -m pytest perfbench/tests
"""

import json
import os
import sys

import pytest

import corpus
import run
import spans
import workloads
from conftest import BENCH, SRC

import toricfilt
import toricfilt.cli  # noqa: F401  (imports every module of the package)
from toricfilt import bundles, compatibility, fans, linalg


def package_modules():
    return [m for n, m in sorted(sys.modules.items())
            if n == "toricfilt" or n.startswith("toricfilt.")]


def bindings():
    """Every (owner, attribute, value) a tracer may patch."""
    out = []
    for module in package_modules():
        for attr, value in vars(module).items():
            out.append((module, attr, value))
            if isinstance(value, type) and value.__module__ == module.__name__:
                out.extend((value, a, v) for a, v in vars(value).items())
    return out


def unwrap(value):
    return value.__func__ if isinstance(value, staticmethod) else value


def assert_nothing_wrapped():
    wrapped = [f"{getattr(o, '__name__', o)}.{a}" for o, a, v in bindings()
               if spans.is_wrapped(unwrap(v))]
    assert wrapped == []


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_same_seed_same_digest(workload):
    first = corpus.build(workload, 7).digest()
    assert corpus.build(workload, 7).digest() == first
    assert corpus.build(workload, 8).digest() != first


def test_default_seed_digest_matches_golden():
    with open(os.path.join(BENCH, "golden.json"), encoding="utf-8") as handle:
        golden = json.load(handle)
    for workload in corpus.WORKLOADS:
        assert corpus.build(workload, golden["seed"]).digest() == golden["digests"][workload]


def test_install_patches_every_binding_and_restore_undoes_it():
    before = {(id(o), a): v for o, a, v in bindings()}
    tracer = spans.Tracer()
    tracer.install()
    try:
        # a copy bound by `from .linalg import intersect` is patched as well,
        # with the same wrapper as the original binding
        assert spans.is_wrapped(compatibility.intersect)
        assert compatibility.intersect is linalg.intersect
        assert spans.is_wrapped(toricfilt.intersect)
        assert spans.is_wrapped(fans.cone_from_generators)
        assert spans.is_wrapped(linalg.Subspace.__dict__["full"].__func__)
        assert not spans.is_wrapped(linalg.to_fraction)  # element-level helper
        for owner, attr, value in bindings():
            value = unwrap(value)
            original = getattr(value, spans.MARK, None)
            if original is None:
                continue
            # every other binding of the same function is wrapped too
            for o2, a2, v2 in bindings():
                assert unwrap(v2) is not original, f"{a2} still bound to the original"
    finally:
        tracer.restore()
    after = {(id(o), a): v for o, a, v in bindings()}
    assert after == before
    assert_nothing_wrapped()


def small_workload(monkeypatch, name="bundle"):
    monkeypatch.setattr(run, "MIN_PASSES", 1)
    wl = workloads.make(name, 1, BENCH, SRC)
    wl.prepare()
    wl.ops = wl.ops[:4]
    wl.reload()
    return wl


def test_untraced_run_leaves_functions_unwrapped(monkeypatch):
    wl = small_workload(monkeypatch)
    originals = {(id(o), a): v for o, a, v in bindings()}
    real_call = wl.call

    def call_and_look(i):
        assert_nothing_wrapped()
        return real_call(i)

    monkeypatch.setattr(wl, "call", call_and_look)
    attempted, failed, metrics = run.end_to_end(wl, 0, 0.1)
    assert attempted >= 4 and failed == 0
    assert set(metrics) == set(run.END_TO_END)
    assert {(id(o), a): v for o, a, v in bindings()} == originals


def test_traced_run_records_spans_and_restores(monkeypatch):
    wl = small_workload(monkeypatch)
    originals = {(id(o), a): v for o, a, v in bindings()}
    seen = []
    real_call = wl.call

    def call_and_look(i):
        seen.append(spans.is_wrapped(bundles.check_gluing))
        return real_call(i)

    monkeypatch.setattr(wl, "call", call_and_look)
    attempted, failed, metrics = run.per_layer(wl, 0)
    assert failed == 0
    assert True in seen and False in seen  # reference phase, then traced phase
    assert metrics["bundles.calls"]["value"] > 0
    assert metrics["trace.overhead_ratio"]["value"] > 0
    shares = sum(v["value"] for k, v in metrics.items() if k.endswith(".share"))
    assert 0.9 < shares <= 1.0 + 1e-9
    assert {(id(o), a): v for o, a, v in bindings()} == originals
    assert_nothing_wrapped()


def test_metric_names_match_benchmark_json(monkeypatch):
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json"), encoding="utf-8") as h:
        spec = json.load(h)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    wl = small_workload(monkeypatch)
    _, _, metrics = run.per_layer(wl, 0)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        k: v["unit"] for k, v in metrics.items()}
