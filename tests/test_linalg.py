import ast
import pathlib
import random
import re
import time
from fractions import Fraction
from math import gcd, lcm

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from builders import identity, random_split_bundle, replace, transpose
import toricfilt
from oracle import (
    Eliminator,
    reference_complement,
    reference_det,
    reference_intersection,
    reference_inverse,
    reference_kernel,
    reference_product,
    reference_reduce,
    reference_rref,
    tensor_product,
)
from toricfilt import linalg
from toricfilt.linalg import (
    QMatrix,
    Subspace,
    annihilator,
    block_sum,
    cached_on_instance,
    column_chain,
    column_lines,
    complement_in,
    _integer_row,
    _image_rows,
    _kernel,
    integer_span,
    intersect,
    intersect_all,
    levelled_meets,
    levelled_spans,
    maps_into,
    record,
    span_canonical,
    subspace_sum,
    sum_all,
    to_fraction,
)

scalars = st.integers(min_value=-6, max_value=6)


def rows_strategy(ambient, max_rows=4):
    return st.lists(
        st.lists(scalars, min_size=ambient, max_size=ambient),
        min_size=0, max_size=max_rows,
    )


def subspace_strategy(ambient):
    return rows_strategy(ambient).map(lambda rows: span_canonical(rows, ambient))


def test_span_scaling_invariance():
    assert span_canonical([[2, 0], [0, 2]]) == Subspace.full(2)


def test_span_dependent_rows_collapse():
    s = span_canonical([[1, 1], [2, 2]])
    assert s.basis == ((Fraction(1), Fraction(1)),)


def test_span_empty_in_ambient_three():
    s = span_canonical([], ambient=3)
    assert s == Subspace.zero(3)
    assert s.dim == 0


def test_sum_axes_fill_plane():
    assert subspace_sum(span_canonical([[1, 0]]), span_canonical([[0, 1]])) == Subspace.full(2)


def test_sum_idempotent():
    a = span_canonical([[1, 2, 3], [0, 1, 1]])
    assert subspace_sum(a, a) == a


def test_sum_of_two_independent_lines():
    # rank oracle: det [[1,1],[1,-1]] = -2 != 0, so the sum must be the plane
    assert QMatrix.from_rows([[1, 1], [1, -1]]).det() != 0
    assert subspace_sum(span_canonical([[1, 1]]), span_canonical([[1, -1]])) == Subspace.full(2)


def test_intersect_containment():
    assert intersect(Subspace.full(2), span_canonical([[1, 1]])) == span_canonical([[1, 1]])


def test_intersect_transverse_lines():
    assert intersect(span_canonical([[1, 0]]), span_canonical([[0, 1]])) == Subspace.zero(2)


def test_complement_of_zero_and_full():
    v = span_canonical([[1, 0, 2], [0, 1, 1]])
    assert complement_in([Subspace.zero(3)], v) == v
    assert complement_in([v], v) == Subspace.zero(3)


def test_complement_greedy_rule():
    # greedy walks the canonical basis (1,0), (0,1) of Q^2 and keeps (1,0)
    c = complement_in([span_canonical([[1, 1]])], Subspace.full(2))
    assert c == span_canonical([[1, 0]])


def test_complement_containment_violation():
    with pytest.raises(ValueError):
        complement_in([span_canonical([[1, 0]])], span_canonical([[0, 1]]))


@record
class _Box:
    value: int


def test_cached_on_instance_calls_once_per_instance():
    calls = []

    @cached_on_instance
    def doubled(box):
        calls.append(box.value)
        return (2 * box.value,)

    a, b = _Box(1), _Box(1)
    first = doubled(a)
    assert doubled(a) is first and calls == [1]
    assert doubled(b) == first and doubled(b) is not first and calls == [1, 1]


def test_cached_on_instance_does_not_cache_exceptions():
    """A call that raises leaves no value behind: the next call runs the
    function again, and only its returned value is cached."""
    calls = []

    @cached_on_instance
    def flaky(box):
        calls.append(box.value)
        if len(calls) == 1:
            raise ValueError("first call fails")
        return ("ok",)

    box = _Box(3)
    with pytest.raises(ValueError):
        flaky(box)
    assert flaky(box) == ("ok",)
    assert flaky(box) is flaky(box) and len(calls) == 2


def test_cached_annihilator_leaves_equality_and_hash_alone():
    rng = random.Random(5)
    for _ in range(20):
        rows = [[rng.randint(-3, 3) for _ in range(4)] for _ in range(rng.randint(0, 3))]
        a, b = span_canonical(rows, 4), span_canonical(rows, 4)
        before = hash(a)
        assert annihilator(a) is annihilator(a)
        assert a == b and hash(a) == before == hash(b)
        assert {a: 1}[b] == 1


def test_annihilator_extremes():
    assert annihilator(Subspace.zero(2)) == Subspace.full(2)
    assert annihilator(Subspace.full(2)) == Subspace.zero(2)


def test_annihilator_of_diagonal_line():
    # solve x + y = 0: kernel is spanned by (1, -1)
    assert annihilator(span_canonical([[1, 1]])) == span_canonical([[1, -1]])


def test_floats_rejected():
    with pytest.raises(TypeError):
        to_fraction(0.5)
    with pytest.raises(TypeError):
        span_canonical([[0.5, 1]])


def test_span_entry_types():
    """Ints and Fractions are taken as they are, and booleans, floats and
    strings are rejected wherever they sit in a row."""
    for row in ([1, True], [Fraction(1, 2), 0.5], [False, 0], [1.0, 2], [1, "2"]):
        with pytest.raises(TypeError):
            span_canonical([[1, 2], row])
    assert (span_canonical([[Fraction(1, 2), Fraction(3)], [Fraction(-2), 4]])
            == span_canonical([[Fraction(1, 2), 3], [-2, 4]]))
    assert span_canonical([[Fraction(-4, 6), Fraction(2, 3), 0]]) == span_canonical([[-1, 1, 0]])


def test_strings_rejected_without_parsing():
    """Rational literals are read only by `serialize`, whose one literal
    reader gives integer pairs to `parse_rational` and to the integer rows
    of filtration bases: a string reaching `linalg` raises TypeError before
    any parsing, however long its decimal expansion would be."""
    for literal in ("1/2", "1e2000000"):
        start = time.perf_counter()
        for build in (to_fraction, lambda x: QMatrix.from_rows([[x]]),
                      lambda x: span_canonical([[x]])):
            with pytest.raises(TypeError):
                build(literal)
        assert time.perf_counter() - start < 0.1


def test_matrix_inverse_and_det():
    m = QMatrix.from_rows([[1, 2], [3, 5]])
    assert m.det() == -1
    assert reference_product(m, reference_inverse(m)) == identity(2)
    singular = QMatrix.from_rows([[1, 1], [2, 2]])
    assert singular.det() == 0
    with pytest.raises(ValueError):
        reference_inverse(singular)


def from_sympy(matrix):
    return [[Fraction(int(x.p), int(x.q)) for x in row] for row in matrix.tolist()]


def test_rref_det_inverse_match_sympy():
    """The canonical rows of a span, divided by their pivots, are sympy's
    RREF; `QMatrix.det` is sympy's determinant, and the oracle's inverse
    is sympy's."""
    rng = random.Random(1406)
    singular = 0

    def entry(bound):
        if rng.random() < 0.5:
            return Fraction(rng.randint(-bound, bound))
        return Fraction(rng.randint(-bound, bound), rng.randint(1, 5))

    for _ in range(150):
        n, ncols = rng.randint(1, 6), rng.randint(1, 6)
        rows = [[entry(4) for _ in range(ncols)] for _ in range(n)]
        space = span_canonical(rows, ncols)
        reduced, pivots = space.basis, space.pivots
        ref, ref_pivots = sympy.Matrix(rows).rref()
        assert pivots == ref_pivots
        assert [list(r) for r in reduced] == from_sympy(ref)[:len(pivots)]

        rows = [[entry(2) for _ in range(n)] for _ in range(n)]
        square, ref = QMatrix.from_rows(rows), sympy.Matrix(rows)
        assert square.det() == ref.det()
        if ref.det() == 0:
            singular += 1
            with pytest.raises(ValueError, match="singular"):
                reference_inverse(square)
        else:
            assert [list(r) for r in reference_inverse(square).entries] == from_sympy(ref.inv())
    assert singular > 0


def _random_rows(rng, nrows, ncols, ints=False):
    """Rows with about 30% zeros and denominators 1-6; duplicate and zero
    rows are mixed in."""
    def entry():
        if rng.random() < 0.3:
            return 0 if ints else Fraction(0)
        if ints:
            return rng.randint(-9, 9)
        return Fraction(rng.randint(-9, 9), rng.randint(1, 6))
    rows = [[entry() for _ in range(ncols)] for _ in range(nrows)]
    if rows and rng.random() < 0.3:
        rows.insert(rng.randint(0, len(rows)), list(rng.choice(rows)))
    if rng.random() < 0.2:
        rows.insert(rng.randint(0, len(rows)), [0 if ints else Fraction(0)] * ncols)
    return rows


def test_rref_matches_fraction_elimination():
    """The integer elimination gives exactly the RREF of elimination over
    Fractions, read through `Subspace.basis` and `Subspace.pivots`: 0-12
    rows by 1-12 columns, tall 20x16 inputs, int rows."""
    rng = random.Random(2718)
    shapes = [(rng.randint(0, 12), rng.randint(1, 12)) for _ in range(400)]
    shapes += [(20, 16)] * 20
    for k, (nrows, ncols) in enumerate(shapes):
        rows = _random_rows(rng, nrows, ncols, ints=k % 4 == 0)
        space = span_canonical(rows, ncols)
        reduced, pivots = space.basis, space.pivots
        assert (reduced, pivots) == reference_rref(rows, ncols)
        assert all(type(x) is Fraction for row in reduced for x in row)


def test_integer_span_matches_fraction_elimination():
    """`integer_span` takes integer rows of any content as they are: its
    rows are the RREF of elimination over Fractions, scaled to primitive
    rows, and the input rows are left unchanged."""
    rng = random.Random(1618)
    for _ in range(300):
        nrows, ncols = rng.randint(0, 10), rng.randint(1, 8)
        rows = [[rng.randint(-3, 3) * x for x in row]
                for row in _random_rows(rng, nrows, ncols, ints=True)]
        before = [list(r) for r in rows]
        space = integer_span(rows, ncols)
        assert space.basis == reference_rref(rows, ncols)[0]
        assert all(gcd(*r) == 1 for r in space.rows)
        assert rows == before
    with pytest.raises(ValueError):
        integer_span([[1, 2]], 3)


def test_det_matches_fraction_elimination():
    rng = random.Random(3141)
    singular = 0
    for n in range(1, 9):
        for _ in range(40):
            rows = _random_rows(rng, n, n)[:n]
            while len(rows) < n:
                rows.append([Fraction(rng.randint(-3, 3)) for _ in range(n)])
            if n > 1 and rng.random() < 0.3:
                c = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
                rows[-1] = [a + c * b for a, b in zip(rows[0], rows[1])]
            det = QMatrix.from_rows(rows).det()
            assert det == reference_det(rows)
            singular += det == 0
    assert 0 < singular < 8 * 40
    assert QMatrix((), 0).det() == 1


def test_cached_det_equals_bareiss():
    """The determinant cached on the instance equals the uncached Bareiss
    value, on the call that fills the cache and on the calls that read it."""
    rng = random.Random(1729)
    bareiss = QMatrix.det.__wrapped__
    for k in range(1000):
        n = 1 + k % 8
        rows = _random_rows(rng, n, n)[:n]
        while len(rows) < n:
            rows.append([Fraction(rng.randint(-3, 3)) for _ in range(n)])
        m = QMatrix.from_rows(rows)
        want = bareiss(QMatrix.from_rows(rows))
        assert m.det() == want and m.det() == want and vars(m)["_det"] == want


def test_matrix_is_integer_rows_over_one_denominator():
    """`from_rows` keeps a matrix as integer rows over one positive
    denominator with no common factor left: its `entries` are the given
    rows, int rows stay as they are, and equal matrices, however written,
    are equal records with equal hashes."""
    rng = random.Random(1732)
    for k in range(300):
        nrows, ncols = rng.randint(0, 6), rng.randint(1, 6)
        rows = _random_rows(rng, nrows, ncols, ints=k % 3 == 0)[:nrows]
        m = QMatrix.from_rows(rows, ncols)
        assert [list(r) for r in m.entries] == rows
        assert m.den > 0 and gcd(m.den, *[x for r in m.rows for x in r]) == 1
        assert all(type(x) is int for r in m.rows for x in r)
        if k % 3 == 0:
            assert [list(r) for r in m.rows] == rows and m.den == 1
        c = rng.randint(1, 7)
        scaled = QMatrix.from_rows([[c * x for x in r] for r in rows], ncols, c)
        assert scaled == m and hash(scaled) == hash(m)
    assert QMatrix.from_rows([[1, Fraction(1, 2)], [3, 5]]) == QMatrix(((2, 1), (6, 10)), 2, 2)


def _col(m, j):
    return tuple(row[j] for row in m.entries)


def test_integer_columns_and_column_lines(monkeypatch):
    """The cached column lines equal `span_canonical` of each column (the
    zero space for a zero column), built from the integer rows with no
    elimination, a column with a negative lead flipped."""
    rng = random.Random(1730)
    cases = []
    for _ in range(300):
        nrows, ncols = rng.randint(1, 8), rng.randint(1, 8)
        rows = _random_rows(rng, nrows, ncols)[:nrows]
        m = QMatrix.from_rows(rows + [[Fraction(0)] * ncols] * (nrows - len(rows)))
        cases.append((m, [span_canonical([_col(m, j)], m.nrows) for j in range(m.ncols)]))
    monkeypatch.setattr(linalg, "_eliminate", None)
    for m, want in cases:
        lines = column_lines(m)
        assert lines is column_lines(m)
        assert list(lines) == want
    assert any(line.dim == 0 for _, want in cases for line in want)
    assert any(line.rows[0][line.pivots[0]] > 0 > m.rows[line.pivots[0]][j]
               for m, want in cases for j, line in enumerate(want) if line.dim)


def test_replace_starts_matrix_caches_empty():
    m = QMatrix.from_rows([[1, Fraction(1, 2)], [3, 5]])
    m.det()
    column_lines(m)
    assert {"_det", "_column_lines"} <= set(vars(m))
    copy = replace(m)
    assert copy == m and not {"_det", "_column_lines"} & set(vars(copy))


def test_validation_gluing_and_sl_take_each_determinant_once(p1, p2, monkeypatch):
    """`validate_bundle`, `check_gluing` and `check_sl_reduction` share one
    Bareiss pass per frame object, and none of them reads a frame's
    `entries`, which only printing reads."""
    from toricfilt.bundles import CocharBundleData, check_gluing, validate_bundle
    from toricfilt.reduction import check_sl_reduction
    from toricfilt.sampling import random_bundle

    bareiss, passes = QMatrix.det.__wrapped__, []

    def det(m):
        passes.append(id(m))
        return bareiss(m)

    rng = random.Random(1731)
    for fan in (p1, p2):
        for build in (random_bundle, random_split_bundle):
            data = build(rng, fan, 3)
            # the sampler took the determinants; copies start uncached, and
            # a frame object shared by several cones stays shared
            fresh = {id(f): replace(f) for f in data.frames}
            data = CocharBundleData.make(data.group, fan,
                                         [fresh[id(f)] for f in data.frames], data.chars)
            with monkeypatch.context() as patch:
                patch.setattr(QMatrix, "det", cached_on_instance(det))
                patch.setattr(QMatrix, "entries", property(
                    lambda m: pytest.fail("a frame's entries were read")))
                passes.clear()
                assert validate_bundle(data).valid
                check_gluing(data)
                check_sl_reduction(data)
            assert sorted(passes) == sorted(map(id, fresh.values()))


def test_containment_matches_reference_reduce():
    rng = random.Random(1618)
    for _ in range(300):
        n = rng.randint(1, 8)
        a = span_canonical(_random_rows(rng, rng.randint(0, n), n), n)
        b = span_canonical(_random_rows(rng, rng.randint(0, 3), n), n)
        assert a.contains_subspace(b) == all(
            not any(reference_reduce(a, v)) for v in b.basis)
        assert a.contains_subspace(intersect(a, b))
        # a space built around `a`, so that the annihilator product also
        # runs on proper outer spaces that do contain the inner one
        c = span_canonical([*a.rows, *_random_rows(rng, rng.randint(0, 2), n)], n)
        assert c.contains_subspace(a)
        assert c.contains_subspace(b) == all(
            not any(reference_reduce(c, v)) for v in b.basis)
        v = _random_rows(rng, 1, n)[0]
        assert a.contains(v) == (not any(reference_reduce(a, v)))
    with pytest.raises(ValueError):
        Subspace.full(2).contains([1, 2, 3])


def _image(s, m):
    """The span of the rows of `s` times `m`, multiplied by the oracle."""
    return span_canonical(reference_product(QMatrix(s.rows, s.ambient), m).entries, m.ncols)


def test_maps_into_matches_containment():
    """The containment of an image by annihilator products on unreduced
    mapped rows agrees with `contains_subspace` of the eliminated image, on
    zero, full, image and random targets and on singular and zero maps."""
    rng = random.Random(7331)
    seen = {True: 0, False: 0}
    for _ in range(400):
        n, k = rng.randint(1, 6), rng.randint(1, 6)
        a = span_canonical(_random_rows(rng, rng.randint(0, n + 1), n), n)
        m = QMatrix.from_rows([[Fraction(rng.choice([0, rng.randint(-9, 9)]), rng.randint(1, 4))
                                for _ in range(k)] for _ in range(n)], k)
        if rng.random() < 0.2:
            m = QMatrix.from_rows([[0] * k] * n, k)
        image = _image(a, m)
        t = rng.choice([Subspace.zero(k), Subspace.full(k), image,
                        span_canonical(_random_rows(rng, rng.randint(0, k), k), k)])
        phi = transpose(m)
        assert maps_into(a, phi, t) == t.contains_subspace(image)
        seen[maps_into(a, phi, t)] += 1
    assert min(seen.values()) > 50, seen
    with pytest.raises(ValueError):
        maps_into(Subspace.full(2), identity(2), Subspace.full(3))


def test_levelled_spans_match_span_canonical():
    """At each distinct level, in descending order, the incremental chain
    equals `span_canonical` of the vectors of that level or above, with
    zero, repeated, dependent and non-primitive vectors mixed in; the
    column chain of a matrix is that of its columns."""
    rng = random.Random(4096)
    for _ in range(300):
        n = rng.randint(0, 7)
        vecs = [[rng.choice([0, 0, rng.randint(-9, 9)]) for _ in range(n)]
                for _ in range(rng.randint(0, 9))]
        if vecs and n:
            vecs.append([0] * n)
            vecs.append([3 * x for x in rng.choice(vecs)])
            c = [rng.randint(-2, 2) for _ in vecs]
            vecs.append([sum(ci * v[j] for ci, v in zip(c, vecs)) for j in range(n)])
        levels = [rng.randint(-3, 3) for _ in vecs]
        got = levelled_spans(list(zip(levels, vecs)), n)
        assert got == [(i, span_canonical([v for v, lv in zip(vecs, levels) if lv >= i], n))
                       for i in sorted(set(levels), reverse=True)]
        if vecs and n:
            m = QMatrix.from_rows(list(zip(*vecs)), len(vecs))
            assert column_chain(m, levels) == got
    assert levelled_spans([], 3) == []


def test_levelled_meets_match_intersect_all():
    """At each distinct level, in descending order, the sweep's meet equals
    `intersect_all` of the space and the span of the vectors of that level
    or above, in dimensions 1-8, for zero, full and proper spaces, with
    zero, repeated, dependent and non-primitive vectors mixed in; once a
    meet is the whole space, the space itself is returned."""
    rng = random.Random(4099)
    kinds = set()
    for _ in range(400):
        n = rng.randint(1, 8)
        vecs = [[rng.choice([0, 0, rng.randint(-9, 9)]) for _ in range(n)]
                for _ in range(rng.randint(0, n + 2))]
        if vecs:
            vecs.append([0] * n)
            vecs.append([-2 * x for x in rng.choice(vecs)])
            c = [rng.randint(-2, 2) for _ in vecs]
            vecs.append([sum(ci * v[j] for ci, v in zip(c, vecs)) for j in range(n)])
        levels = [rng.randint(-3, 3) for _ in vecs]
        kind = rng.choice(["zero", "full", "proper", "proper", "inside"])
        if kind == "zero":
            space = Subspace.zero(n)
        elif kind == "full":
            space = Subspace.full(n)
        elif kind == "inside" and vecs:
            space = span_canonical(rng.sample(vecs, rng.randint(1, len(vecs))), n)
        else:
            space = span_canonical(_random_rows(rng, rng.randint(1, n), n), n)
        got = levelled_meets(space, list(zip(levels, vecs)))
        expected = [(i, intersect_all(
            [space, span_canonical([v for v, lv in zip(vecs, levels) if lv >= i], n)], n))
            for i in sorted(set(levels), reverse=True)]
        assert got == expected
        assert all(m is space for _, m in got if m.dim == space.dim)
        kinds.update(f"{kind}/{0 < m.dim < space.dim}" for _, m in got)
    assert {"zero/False", "full/True", "proper/True", "inside/True"} <= kinds
    assert levelled_meets(Subspace.full(3), []) == []


def _messy_int_rows(rng, nrows, ncols):
    """Integer rows of any content with zero, duplicated, scaled and
    dependent rows mixed in."""
    rows = [[rng.choice([0, 0, rng.randint(-9, 9)]) for _ in range(ncols)]
            for _ in range(nrows)]
    if rows:
        rows.append([0] * ncols)
        rows.append(list(rng.choice(rows)))
        rows.append([rng.choice([-3, 2, 6]) * x for x in rng.choice(rows)])
        c = [rng.randint(-2, 2) for _ in rows]
        rows.append([sum(ci * r[j] for ci, r in zip(c, rows)) for j in range(ncols)])
        rng.shuffle(rows)
    return rows


def _echelon_cases(rng):
    """Seeded inputs of the three echelon-placement callers at ambient
    0-12: (inner spaces, outer space) pairs for `complement_in`, integer
    rows for `rank`, and (space, levelled vectors) for `levelled_meets`."""
    complements, ranks, sweeps = [], [], []
    for n in range(13):
        for _ in range(12):
            inners = [span_canonical(_messy_int_rows(rng, rng.randint(0, n), n), n)
                      for _ in range(rng.randint(0, 3))]
            extra = span_canonical(_messy_int_rows(rng, rng.randint(0, n), n), n)
            outer = sum_all(inners + [extra], n) if rng.random() < 0.7 else extra
            complements.append((inners, outer))
            ranks.append(_messy_int_rows(rng, rng.randint(0, n + 3), n))
            vecs = _messy_int_rows(rng, rng.randint(0, n + 1), n)
            inside = vecs and rng.random() < 0.3
            space = span_canonical(rng.sample(vecs, rng.randint(1, len(vecs))) if inside
                                   else _messy_int_rows(rng, rng.randint(0, n), n), n)
            sweeps.append((space, [(rng.randint(-3, 3), v) for v in vecs]))
    return complements, ranks, sweeps


def test_echelon_placement_matches_references():
    """The callers that place rows into an echelon form that is never
    reduced agree with references that read canonical rows or Fraction
    ranks, at ambient 0-12 with zero, duplicated, scaled and dependent
    rows: `complement_in` with the oracle's greedy walk over Fractions (and
    raises exactly when the inner spaces do not lie in the outer one),
    `rank` with `integer_span(...).dim`, and `levelled_meets` with
    `intersect_all` at every level."""
    complements, ranks, sweeps = _echelon_cases(random.Random(2311))
    outcomes = set()
    for inners, outer in complements:
        rows = [row for s in inners for row in s.basis] + list(outer.basis)
        contained = Eliminator(outer.ambient, rows).rank == outer.dim
        if contained:
            assert complement_in(inners, outer) == reference_complement(inners, outer)
        else:
            with pytest.raises(ValueError, match="not contained"):
                complement_in(inners, outer)
        outcomes.add((contained, min(len(inners), 2)))
    assert outcomes == {(c, k) for c in (True, False) for k in (0, 1, 2)} - {(False, 0)}
    for rows in ranks:
        n = len(rows[0]) if rows else 0
        assert linalg.rank(rows, n) == integer_span(rows, n).dim
    with pytest.raises(ValueError, match="dimension mismatch"):
        linalg.rank([[1, 2], [1, 2, 3]], 2)
    for space, levelled in sweeps:
        n = space.ambient
        expected = [(i, intersect_all(
            [space, span_canonical([v for lv, v in levelled if lv >= i], n)], n))
            for i in sorted({lv for lv, _ in levelled}, reverse=True)]
        assert levelled_meets(space, levelled) == expected


def _wide_int_rows(rng, nrows, ncols):
    """Integer rows for the reduce step: rows led by ±1 (which give pivots
    of 1), rows with entries up to 10^6 (whose pivots are rarely 1), rows
    of content 2-12 and dependent combinations, with zeros mixed in."""
    rows = []
    for _ in range(nrows):
        kind = rng.randrange(4)
        lead = rng.randrange(ncols)
        row = [0] * lead + [rng.choice([-1, 1])] + [
            rng.choice([0, rng.randint(-9, 9), rng.randint(-10 ** 6, 10 ** 6)] if kind
                       else [0, rng.randint(-9, 9)]) for _ in range(ncols - lead - 1)]
        if kind == 2:
            row[lead] = rng.randint(-10 ** 6, 10 ** 6) or 7
        if kind == 3:
            row = [rng.randint(2, 12) * x for x in row]
        rows.append(row)
    if len(rows) > 1 and rng.random() < 0.5:
        c = [rng.randint(-3, 3) for _ in rows]
        rows.insert(rng.randint(0, len(rows)),
                    [sum(ci * r[j] for ci, r in zip(c, rows)) for j in range(ncols)])
    return rows


def _reduce_by_fractions(pivots, rows, v):
    """v cleared at each pivot over Fractions, with no scaling, and the
    pivots of the rows that cleared it (the step kinds of `_reduce`)."""
    w = [Fraction(x) for x in v]
    used = []
    for p, row in zip(pivots, rows):
        if w[p]:
            used.append(row[p])
            f = w[p] / row[p]
            w = [x - f * y for x, y in zip(w, row)]
    return w, used


def test_reduce_step_matches_fraction_elimination(monkeypatch):
    """The reduce step, pivot-1 steps subtracting with no scaling and other
    steps dividing by the content at once, gives exactly the elimination
    over Fractions, at ambient 1-9 with pivots of 1 and of up to 10^6,
    inputs of content up to 12 and entries up to 10^6: `integer_span`,
    `levelled_spans`, `rank` and `complement_in` agree with
    `reference_rref`, and every `_reduce` result that took a step is the
    primitive row on the line of the Fraction result, with its sign."""
    reduce = linalg._reduce
    seen = {"mixed": 0, "content": 0, "big": 0}

    def checked(pivots, rows, v):
        out = reduce(pivots, rows, v)
        w, used = _reduce_by_fractions(pivots, rows, v)
        if used:
            scale = lcm(*[x.denominator for x in w])
            ints = [int(x * scale) for x in w]
            c = gcd(*ints)
            assert list(out) == ([x // c for x in ints] if c else ints)
            seen["mixed"] += 1 in used and any(pivot != 1 for pivot in used)
        else:
            assert list(out) == list(v)
        seen["content"] += gcd(*v) > 1
        seen["big"] += max(map(abs, v), default=0) >= 10 ** 5
        return out

    monkeypatch.setattr(linalg, "_reduce", checked)
    rng = random.Random(1993)
    for _ in range(150):
        n = rng.randint(1, 9)
        rows = _wide_int_rows(rng, rng.randint(1, n + 2), n)
        reduced, pivots = reference_rref(rows, n)
        space = integer_span(rows, n)
        assert (space.basis, space.pivots) == (reduced, pivots)
        assert linalg.rank(rows, n) == len(pivots)
        levelled = [(rng.randint(-2, 2), r) for r in rows]
        assert [(i, s.basis) for i, s in levelled_spans(levelled, n)] == [
            (i, reference_rref([r for lv, r in levelled if lv >= i], n)[0])
            for i in sorted({lv for lv, _ in levelled}, reverse=True)]
        inner = integer_span(rows[:len(rows) // 2], n)
        outer = integer_span(rows, n)
        kept = []
        for row in outer.basis:
            if len(reference_rref(inner.basis + tuple(kept) + (row,), n)[1]) > inner.dim + len(kept):
                kept.append(row)
        assert complement_in([inner], outer).basis == reference_rref(kept, n)[0]
    assert min(seen.values()) > 50, seen


def test_echelon_placement_clears_no_pivot(monkeypatch):
    """Only canonical rows take the reduced placement (`_insert`):
    `complement_in` and `rank` never call it, and `levelled_meets` calls it
    only to span a meet that grew, once per row of each new meet that is
    neither zero nor the space itself."""
    complements, ranks, sweeps = _echelon_cases(random.Random(2357))
    calls = []
    insert = linalg._insert

    def spied(pivots, rows, v):
        calls.append(len(v))
        return insert(pivots, rows, v)

    monkeypatch.setattr(linalg, "_insert", spied)
    for inners, outer in complements:
        try:
            complement_in(inners, outer)
        except ValueError:
            pass
    for rows in ranks:
        linalg.rank(rows, len(rows[0]) if rows else 0)
    assert calls == []
    grown = 0
    for space, levelled in sweeps:
        del calls[:]
        meets = [m for _, m in levelled_meets(space, levelled)]
        new = [m for k, m in enumerate(meets) if k == 0 or m is not meets[k - 1]]
        spanned = sum(m.dim for m in new if m is not space)
        assert calls == [space.ambient] * spanned
        grown += spanned > 0
    assert grown > 20


def test_image_matches_matrix_product():
    """The mapped rows that `maps_into` tests, for phi acting on column
    vectors, span the image of a subspace under v -> v @ m with phi the
    transpose of m: the span of its rows times m, for singular, non-square
    and zero rational matrices whose rows have different denominators."""
    rng = random.Random(4242)
    kinds = {"singular": 0, "zero": 0}
    for _ in range(300):
        n, k = rng.randint(1, 6), rng.randint(0, 6)
        s = span_canonical(_random_rows(rng, rng.randint(0, n), n), n)
        rows = [[Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(k)]
                for _ in range(n)]
        if n > 1 and rng.random() < 0.3:
            c = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
            rows[-1] = [a + c * b for a, b in zip(rows[0], rows[1])]
            kinds["singular"] += 1
        if rng.random() < 0.1:
            rows = [[Fraction(0)] * k for _ in range(n)]
            kinds["zero"] += 1
        m = QMatrix.from_rows(rows, k)
        assert span_canonical(_image_rows(s, transpose(m)), k) == _image(s, m)
    assert all(kinds.values()), kinds
    with pytest.raises(ValueError):
        _image_rows(Subspace.full(2), identity(3))


def test_rows_are_canonical():
    """Spans of shuffled spanning sets, of sets rescaled by negative and
    fractional scalars and of sets with redundant rows are equal with equal
    hashes; each stored row is a primitive integer row with a positive
    pivot, and `basis` is the RREF of the spanning set."""
    rng = random.Random(2718)
    for _ in range(400):
        n = rng.randint(1, 7)
        gens = _random_rows(rng, rng.randint(0, n + 1), n)
        space = span_canonical(gens, n)
        shuffled = rng.sample(gens, len(gens))
        rescaled = [[c * x for x in g] for g in gens
                    for c in [Fraction(rng.choice([-4, -3, -2, -1, 1, 2, 3]), rng.randint(1, 5))]]
        redundant = gens + [[0] * n]
        for _ in range(2):
            coeffs = [rng.randint(-3, 3) for _ in gens]
            redundant.append([sum(c * g[j] for c, g in zip(coeffs, gens)) for j in range(n)])
        for rows in (shuffled, rescaled, redundant):
            other = span_canonical(rows, n)
            assert other == space and hash(other) == hash(space)
        for row in space.rows:
            assert all(type(x) is int for x in row) and gcd(*row) == 1
            assert next(x for x in row if x) > 0
        assert space.basis == reference_rref(gens, n)[0]
    assert span_canonical([[-2, 0], [0, Fraction(-1, 3)]], 2) == Subspace.full(2)
    assert Subspace.full(3).rows == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_fractions_imported_only_by_linalg_and_serialize():
    """The representation decision stays inside `linalg`: only it and the
    serializer at the output boundary import `fractions`."""
    importers = set()
    for path in sorted(pathlib.Path(toricfilt.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                     else [node.module] if isinstance(node, ast.ImportFrom) else [])
            if "fractions" in names:
                importers.add(path.stem)
    assert importers == {"linalg", "serialize"}


def test_no_unused_imports():
    """Every name a module of the package imports is used in it.  The one
    exception is `compatibility.intersect`, which the benchmark's tests read
    to check that the tracer wraps re-imported bindings too."""
    allowed = {("compatibility", "intersect")}
    unused = []
    for path in sorted(pathlib.Path(toricfilt.__file__).parent.glob("*.py")):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update(a.asname or a.name for a in node.names)
            elif isinstance(node, ast.Import):
                imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [(path.stem, name) for name in sorted(imported)
                   if name not in used and (path.stem, name) not in allowed]
    assert unused == []


def _readme_entry_points():
    """The names in the README's "Key entry points" paragraph."""
    text = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    paragraph = text[text.index("Key entry points:"):].split(".  ", 1)[0]
    return {name.rsplit(".", 1)[-1] for name in re.findall(r"`([\w.]+)`", paragraph)}


def unused_functions(package_dir, entry_points):
    """(module, name) of each module-level function of the package that no
    module names (calls, passes or reads as an attribute) outside its own
    definition, the re-exports of `__init__` not counted, and that, if it
    is public, is not one of `entry_points` either."""
    defined, named = {}, set()
    for path in sorted(pathlib.Path(package_dir).glob("*.py")):
        if path.stem == "__init__":
            continue
        for top in ast.parse(path.read_text()).body:
            is_def = isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef))
            if is_def and not top.name.startswith("__"):
                defined[top.name] = path.stem
            for node in ast.walk(top):
                name = (node.id if isinstance(node, ast.Name)
                        else node.attr if isinstance(node, ast.Attribute) else None)
                if name is not None and not (is_def and name == top.name):
                    named.add(name)
    return sorted((module, name) for name, module in defined.items()
                  if name not in named and (name.startswith("_") or name not in entry_points))


def test_no_unused_private_functions():
    """Every module-level function of the package, private or public, is
    named somewhere in the package outside its own definition (the
    re-exports of `__init__` do not count), or is a public entry point
    listed in the README, so none is kept alive by the tests alone."""
    entry_points = _readme_entry_points()
    assert {"check_gluing", "determinant_data", "verify_cone_decomposition"} <= entry_points
    package_dir = pathlib.Path(toricfilt.__file__).parent
    assert unused_functions(package_dir, entry_points) == []
    assert len([top for path in package_dir.glob("*.py")
                for top in ast.parse(path.read_text()).body
                if isinstance(top, ast.FunctionDef) and top.name.startswith("_")]) > 40


def test_one_per_instance_cache():
    """Instance dicts are written only by `linalg`'s two record helpers:
    `object.__setattr__` and `__dict__` appear only in `record` (whose
    generated `__init__` sets the fields) and in `cached_on_instance`, so
    every per-instance cache of the package goes through the latter."""
    found = set()
    for path in sorted(pathlib.Path(toricfilt.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Attribute) and (
                        node.attr == "__dict__" or node.attr == "__setattr__"
                        and isinstance(node.value, ast.Name) and node.value.id == "object"):
                    found.add((path.stem, getattr(top, "name", None)))
    assert found == {("linalg", "record"), ("linalg", "cached_on_instance")}


def test_one_reduction_step():
    """In `linalg` only `_primitive`, `_reduce` and `_insert` name `gcd`:
    every span, chain, complement, rank and elimination reduces its rows
    through `_reduce` and places them with `_append` or `_insert`, and none
    keeps a row reduction of its own."""
    path = pathlib.Path(linalg.__file__)
    found = set()
    for top in ast.parse(path.read_text()).body:
        for node in ast.walk(top):
            if (isinstance(node, ast.Name) and node.id == "gcd"
                    or isinstance(node, ast.Attribute) and node.attr == "gcd"):
                found.add(getattr(top, "name", None))
    assert "_reduce" in found
    assert found <= {"_primitive", "_reduce", "_insert"}, found


def test_compatibility_takes_no_kernel():
    """`compatibility` names neither `intersect_all`, `annihilator` nor a
    kernel: its meets come from line sweeps (`levelled_meets`) and its
    complements from insertion passes."""
    path = pathlib.Path(toricfilt.__file__).parent / "compatibility.py"
    forbidden = {"intersect_all", "annihilator", "kernel", "_kernel"}
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.asname or node.name)
    assert "levelled_meets" in found
    assert not found & forbidden, found & forbidden


def test_module_caches_are_bounded():
    """Every `lru_cache` of the package has a finite `maxsize`, and
    `functools.cache` is not used, so a long-running process keeps a fixed
    footprint however many fans and shapes it meets."""
    bounded, unbounded = set(), set()
    for path in sorted(pathlib.Path(toricfilt.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            where = (path.stem, getattr(top, "name", None))
            for node in ast.walk(top):
                if isinstance(node, ast.ImportFrom) and node.module == "functools" and any(
                        alias.name == "cache" for alias in node.names):
                    unbounded.add(where)
                elif isinstance(node, ast.Attribute) and node.attr == "cache" and isinstance(
                        node.value, ast.Name) and node.value.id == "functools":
                    unbounded.add(where)
                elif isinstance(node, ast.Call) and "lru_cache" in (
                        getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                    sizes = node.args[:1] + [k.value for k in node.keywords if k.arg == "maxsize"]
                    if any(isinstance(v, ast.Constant) and v.value is None for v in sizes):
                        unbounded.add(where)
                    else:
                        bounded.add(where)
    assert unbounded == set()
    assert bounded == {("fans", "cone_from_generators"), ("fans", "cone_intersection"),
                       ("algebras", "_shape"), ("bundles", "_gluing_refusals")}


def test_kernel_matches_annihilator():
    k = _kernel([[1, 2, 3]], 3)
    assert k.dim == 2
    assert all(sum(a * b for a, b in zip((1, 2, 3), v)) == 0 for v in k.basis)
    assert k == annihilator(span_canonical([[1, 2, 3]]))


def test_tensor_product_of_lines():
    t = tensor_product(span_canonical([[1, 2]]), span_canonical([[3, 0]]))
    assert t == span_canonical([[3, 0, 6, 0]])


def _seeded_pairs(rng):
    """Pairs of subspaces of ambient 0-5: zero and full spaces, then seeded
    spans of random rows."""
    for n in range(6):
        for m in range(6):
            yield Subspace.zero(n), Subspace.full(m)
            yield Subspace.full(n), Subspace.zero(m)
            yield Subspace.full(n), Subspace.full(m)
    for _ in range(300):
        n, m = rng.randint(0, 5), rng.randint(0, 5)
        yield (span_canonical(_random_rows(rng, rng.randint(0, n + 1), n), n),
               span_canonical(_random_rows(rng, rng.randint(0, m + 1), m), m))


def test_tensor_and_block_rows_are_canonical():
    """The Kronecker rows of `tensor_product` and the padded rows of
    `block_sum` are the canonical rows of the span of the same raw rows."""
    pairs = 0
    for a, b in _seeded_pairs(random.Random(53)):
        n, m = a.ambient, b.ambient
        kron = [[x * y for x in u for y in v] for u in a.rows for v in b.rows]
        assert tensor_product(a, b) == span_canonical(kron, n * m)
        blocks = [list(u) + [0] * m for u in a.rows] + [[0] * n + list(v) for v in b.rows]
        assert block_sum(a, b) == span_canonical(blocks, n + m)
        pairs += a.dim > 1 and b.dim > 1
    assert pairs > 20


def test_tensor_and_block_sum_eliminate_nothing(monkeypatch):
    """With elimination made to raise, both still return their results."""
    rng = random.Random(59)
    pairs = list(_seeded_pairs(rng))[-40:]
    expected = [(tensor_product(a, b), block_sum(a, b)) for a, b in pairs]

    def no_elimination(mat, ncols):
        raise AssertionError("eliminated")

    monkeypatch.setattr(linalg, "_eliminate", no_elimination)
    with pytest.raises(AssertionError):
        span_canonical([[1, 2]])
    assert [(tensor_product(a, b), block_sum(a, b)) for a, b in pairs] == expected


@settings(max_examples=60, deadline=None)
@given(rows=rows_strategy(3), mix=st.lists(st.lists(scalars, min_size=3, max_size=3), max_size=3))
def test_canonicality_projection(rows, mix):
    """Applying span_canonical to a different spanning set of the same space
    yields the identical basis."""
    s = span_canonical(rows, 3)
    regenerated = [r for r in s.basis]
    for combo in mix:
        if s.dim:
            v = [sum(Fraction(c) * s.basis[i][j] for i, c in enumerate(combo[: s.dim]))
                 for j in range(3)]
            regenerated.append(tuple(v))
    assert span_canonical(regenerated, 3) == s


@settings(max_examples=60, deadline=None)
@given(a=subspace_strategy(4), b=subspace_strategy(4))
def test_dimension_formula(a, b):
    assert a.dim + b.dim == subspace_sum(a, b).dim + intersect(a, b).dim


@settings(max_examples=60, deadline=None)
@given(a=subspace_strategy(4))
def test_double_annihilator(a):
    assert annihilator(annihilator(a)) == a


@settings(max_examples=60, deadline=None)
@given(inner_rows=rows_strategy(4, 2), outer_extra=rows_strategy(4, 2))
def test_complement_properties(inner_rows, outer_extra):
    inner = span_canonical(inner_rows, 4)
    outer = span_canonical(list(inner.basis) + list(
        span_canonical(outer_extra, 4).basis), 4)
    c = complement_in([inner], outer)
    assert intersect(c, inner) == Subspace.zero(4)
    assert subspace_sum(c, inner) == outer


def test_complement_guard_builds_no_annihilator(monkeypatch):
    """`complement_in` decides inner ⊆ outer from the rank count of its own
    insertion pass: with `annihilator` made to raise, it still returns the
    complement when inner lies in outer and raises ValueError otherwise."""
    rng = random.Random(43)
    cases = []
    for _ in range(200):
        n = rng.randint(1, 6)
        inner = span_canonical(_random_rows(rng, rng.randint(0, n), n), n)
        other = span_canonical(_random_rows(rng, rng.randint(0, n), n), n)
        outer = rng.choice([subspace_sum(inner, other), other])
        cases.append((inner, outer, outer.contains_subspace(inner)))

    def no_annihilator(a):
        raise AssertionError("annihilator built")

    monkeypatch.setattr(linalg, "annihilator", no_annihilator)
    outcomes = set()
    for inner, outer, contained in cases:
        if contained:
            assert complement_in([inner], outer) == reference_complement([inner], outer)
        else:
            with pytest.raises(ValueError, match="not contained"):
                complement_in([inner], outer)
        outcomes.add(contained)
    assert outcomes == {True, False}


def test_complement_matches_greedy_walk():
    """`complement_in` keeps the same rows of `outer` as the Fraction
    greedy walk of the oracle, in ambient dimensions 1-10."""
    rng = random.Random(41)
    for n in range(1, 11):
        for _ in range(60):
            def rows(k):
                return [[rng.choice([0, 0, rng.randint(-4, 4)]) for _ in range(n)]
                        for _ in range(k)]
            inner = span_canonical(rows(rng.randint(0, n)), n)
            outer = subspace_sum(inner, span_canonical(rows(rng.randint(0, n)), n))
            assert complement_in([inner], outer) == reference_complement([inner], outer)


def _random_matrix(rng, m, n, lo=-4, hi=4):
    return [[rng.choice([0, rng.randint(lo, hi)]) for _ in range(n)] for _ in range(m)]


def test_one_pass_kernel_matches_reference():
    """The reversed-column kernel gives the canonical rows of the Fraction
    kernel on seeded matrices, zero, full-rank and empty ones included."""
    rng = random.Random(17)
    cases = [([], 3), ([[0, 0, 0]], 3), ([[0, 0], [0, 0]], 2),
             ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 3), ([[2, 1], [1, 1]], 2), ([[3, -6, 9]], 3)]
    for _ in range(150):
        n = rng.randint(1, 7)
        cases.append((_random_matrix(rng, rng.randint(0, n + 1), n), n))
    for _ in range(20):
        n = rng.randint(1, 5)
        cases.append(([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)], n))
    for rows, n in cases:
        expected = reference_kernel(rows, n)
        assert _kernel([list(r) for r in rows], n) == expected
        if rows:
            halves = [[Fraction(x, 2) for x in r] for r in rows]
            assert _kernel([_integer_row(r) for r in halves], n) == expected


def test_intersect_all_short_paths_match_reference():
    rng = random.Random(19)
    for _ in range(60):
        n = rng.randint(1, 5)
        full, zero = Subspace.full(n), Subspace.zero(n)
        proper = span_canonical(_random_matrix(rng, rng.randint(1, n), n) or [[0] * n], n)
        other = span_canonical(_random_matrix(rng, rng.randint(1, n), n), n)
        # all members full
        assert intersect_all([full, full], n) == full == reference_intersection([full, full], n)
        assert intersect_all([], n) == full
        # one zero member
        members = [proper, zero, other]
        assert intersect_all(members, n) == zero == reference_intersection(members, n)
        # one proper member among full ones: its rows, unchanged
        members = [full, proper, full]
        got = intersect_all(members, n)
        assert got.rows == proper.rows
        assert got == reference_intersection(members, n)
        # two proper members go through the kernel
        members = [proper, full, other]
        assert intersect_all(members, n) == reference_intersection(members, n)
        assert intersect(proper, other) == reference_intersection([proper, other], n)
    with pytest.raises(ValueError):
        intersect_all([Subspace.zero(2), Subspace.full(3)], 2)
