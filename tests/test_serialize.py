"""Reading files through integers: the literal reader of `serialize` against
`Fraction(str)`.

Filtration bases go from their literals to integer rows and canonical
spans, and frames and morphism matrices to integer rows over one
denominator, with no Fraction.  Every load here must equal, field for
field and in `repr`, the reference load of `tests/oracle.py`, which parses
each literal with `Fraction(str)` and spans with `span_canonical`.
"""

import pathlib
import random
import sys
from fractions import Fraction

import pytest

from oracle import (
    reference_bundle_from_obj,
    reference_filtration_from_obj,
    reference_matrix_from_obj,
)
from toricfilt import filtrations, linalg, serialize
from toricfilt.errors import InputError
from toricfilt.linalg import Subspace

BENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import corpus  # noqa: E402
import workloads  # noqa: E402

P1 = {"rank": 1, "rays": [[1], [-1]], "maximal_cones": [[0], [1]]}
P2 = {"rank": 2, "rays": [[1, 0], [0, 1], [-1, -1]],
      "maximal_cones": [[0, 1], [1, 2], [0, 2]]}


def literal(rng, x: Fraction):
    """One of several spellings of x: a JSON int, a plain or zero-padded
    string, an unreduced "p/q", and "-0" or "0/5" for zero."""
    n, d = x.numerator, x.denominator
    sign = "-" if n < 0 else ""
    k = rng.randint(2, 6)
    forms = [f"{n}/{d}" if d > 1 else str(n), f"{n * k}/{d * k}",
             f"{sign}00{abs(n)}" + (f"/{d}" if d > 1 else "")]
    if d == 1:
        forms.append(n)
    if n == 0:
        forms += ["-0", "0/5", "-000/7"]
    return rng.choice(forms)


def random_rows(rng, count: int, dim: int):
    """`count` rows of Fractions: random ones, zero rows, and rational
    combinations of the rows before them."""
    rows = []
    for _ in range(count):
        kind = rng.random()
        if kind < 0.15:
            rows.append([Fraction(0)] * dim)
        elif kind < 0.4 and rows:
            a, b = rng.choice(rows), rng.choice(rows)
            s, t = Fraction(rng.randint(-3, 3), rng.randint(1, 4)), Fraction(rng.randint(-3, 3))
            rows.append([s * x + t * y for x, y in zip(a, b)])
        else:
            rows.append([Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(dim)])
    return rows


def spelled(rng, rows):
    return [[literal(rng, x) for x in row] for row in rows]


def random_filtration_obj(rng):
    dim = rng.randint(1, 4)
    return {
        "fan": P2,
        "dim": dim,
        "filtrations": {
            str(k): [{"i": i, "basis": spelled(rng, random_rows(rng, rng.randint(0, dim + 1), dim))}
                     for i in rng.sample(range(-2, 4), rng.randint(1, 3))]
            for k in range(3)
        },
    }


def random_bundle_obj(rng):
    n = rng.randint(1, 3)
    fan = rng.choice((P1, P2))
    return {
        "group": {"kind": "GL", "n": n},
        "fan": fan,
        "cones": [{"cone": k, "frame": spelled(rng, random_rows(rng, n, n)),
                   "chars": [[rng.randint(-2, 2) for _ in range(fan["rank"])] for _ in range(n)]}
                  for k in range(len(fan["maximal_cones"]))],
    }


def assert_same(got, expected):
    assert got == expected
    assert repr(got) == repr(expected)


def test_seeded_objects_match_reference():
    rng = random.Random("serialize/literals")
    for _ in range(60):
        obj = random_filtration_obj(rng)
        assert_same(serialize.filtration_from_obj(obj), reference_filtration_from_obj(obj))
        obj = random_bundle_obj(rng)
        assert_same(serialize.bundle_from_obj(obj), reference_bundle_from_obj(obj))
        rows = spelled(rng, random_rows(rng, rng.randint(1, 4), rng.randint(1, 4)))
        assert_same(serialize.matrix_from_obj(rows), reference_matrix_from_obj(rows))


def test_spellings_of_one_row_span_alike():
    """Unreduced, zero-padded and signed-zero spellings, JSON ints, a zero
    row and a dependent row span one line."""
    rows = [["6/4", "-0", "007", "0/5"], [3, 0, 14, 0], ["0", "0/3", "-0", 0]]
    obj = {"fan": P1, "dim": 4,
           "filtrations": {"0": [{"i": 1, "basis": rows}], "1": [{"i": 0, "basis": rows[:1]}]}}
    data = serialize.filtration_from_obj(obj)
    assert_same(data, reference_filtration_from_obj(obj))
    line = Subspace(4, ((3, 0, 14, 0),))
    assert [f.jumps for f in data.filtrations] == [((1, line),), ((0, line),)]


def cli_corpus_files(seed, work):
    workloads.write_files(corpus.build("cli", seed), str(work))
    return sorted(work.glob("*.json"))


def outcome(load, *args):
    """The loaded value, or the message of the InputError it raised."""
    try:
        return load(*args)
    except InputError as exc:
        return f"InputError: {exc}"


def reference_load(path):
    base = str(path.parent)
    try:
        obj = serialize.load_json(str(path))
        if "filtrations" in obj:
            return reference_filtration_from_obj(obj, base)
        if "cones" in obj:
            return reference_bundle_from_obj(obj, base)
        return reference_matrix_from_obj(obj)
    except InputError as exc:
        return f"InputError: {exc}"


@pytest.mark.parametrize("seed", [0, 1])
def test_cli_corpus_matches_reference(seed, tmp_path):
    checked = 0
    for path in cli_corpus_files(seed, tmp_path):
        text = path.read_text(encoding="utf-8")
        if '"filtrations"' in text:
            load = serialize.load_filtration
        elif '"cones"' in text:
            load = serialize.load_bundle
        elif text.startswith("["):
            load = serialize.load_matrix
        else:
            continue
        got = outcome(load, str(path))
        expected = reference_load(path)
        assert got == expected, path.name
        assert repr(got) == repr(expected), path.name
        checked += 1
    assert checked > 20


def test_filtration_bases_load_without_fraction(tmp_path, monkeypatch):
    """Loading builds no Fraction, and neither does deciding a morphism:
    with the name patched to raise in `serialize` and `linalg`, every `cli`
    corpus filtration, bundle and matrix file loads (or is refused) exactly
    as it does unpatched, and `check_morphism` gives each `morphism` command
    of the corpus its expected verdict."""
    loaders = []
    for path in cli_corpus_files(0, tmp_path):
        text = path.read_text(encoding="utf-8")
        if '"filtrations"' in text:
            loaders.append((serialize.load_filtration, str(path)))
        elif '"cones"' in text:
            loaders.append((serialize.load_bundle, str(path)))
        elif text.startswith("["):
            loaders.append((serialize.load_matrix, str(path)))
    morphisms = [op for op in corpus.build("cli", 0).ops if op["argv"][0] == "morphism"]

    def no_fraction(*args):
        raise AssertionError("a Fraction was built while loading or deciding a morphism")

    monkeypatch.setattr(serialize, "Fraction", no_fraction)
    monkeypatch.setattr(linalg, "Fraction", no_fraction)
    patched = [outcome(load, p) for load, p in loaders]
    verdicts = [filtrations.check_morphism(
        serialize.load_matrix(str(tmp_path / phi)), serialize.load_filtration(str(tmp_path / a)),
        serialize.load_filtration(str(tmp_path / b))) for _, phi, a, b in
        (op["argv"] for op in morphisms)]
    monkeypatch.undo()
    assert patched == [outcome(load, p) for load, p in loaders]
    assert verdicts == [op["exit"] == 0 for op in morphisms] and set(verdicts) == {True, False}
    loaded = [load for (load, _), x in zip(loaders, patched) if not isinstance(x, str)]
    assert loaded.count(serialize.load_filtration) > 10
    assert loaded.count(serialize.load_bundle) > 3 and loaded.count(serialize.load_matrix) == 2
