import itertools
import random
import tracemalloc

import pytest

from builders import identity, replace
from oracle import (
    chain_members,
    coproduct,
    generator,
    level,
    multiply,
    products,
    reference_class_index,
    reference_coaction_commutes,
    reference_compatible_algebra,
    reference_multiplicative,
    row_degrees,
    weight_table,
)
from toricfilt.algebras import (
    _shape,
    build_truncation,
    check_coaction_commutes,
    check_compatible_algebra,
    check_multiplicative,
)
from toricfilt.bundles import CocharBundleData, GroupSpec
from toricfilt.fans import CharQuotient
from toricfilt.errors import InputError, PreconditionError
from toricfilt.sampling import p1_fan, p2_fan, random_bundle

I1 = identity(1)
I2 = identity(2)


def gl1_bundle(fan, chars):
    return CocharBundleData.make(GroupSpec("GL", 1), fan,
                                 [I1] * len(fan.maximal_cones),
                                 [[c] for c in chars])


def gl2_bundle(fan, chars):
    return CocharBundleData.make(GroupSpec("GL", 2), fan,
                                 [I2] * len(fan.maximal_cones), chars)


def column_weight_table(alg, chars):
    """The broken convention: weight by column index instead of row."""
    table = {}
    rank = alg.rank
    n = alg.n
    for m in alg.basis:
        w = [0] * rank
        for g, e in enumerate(m):
            j = g % n
            for t in range(rank):
                w[t] -= e * chars[j][t]
        table[m] = tuple(w)
    return table


def test_gl1_weights_and_levels(p1):
    # character a with a(rho) = 1: weights of 1, x, x^2 are 0, -a, -2a and
    # the ray chain picks up 1 at level 0, x at -1, x^2 at -2
    data = gl1_bundle(p1, [(1,), (1,)])
    alg = build_truncation(data, 0, 2)
    assert alg.rows == ((0,), (1,), (2,)) and alg.weights == ((0,), (-1,), (-2,))
    table = weight_table(alg)
    levels = {m: level(table, m, (1,)) for m in alg.basis}
    assert levels == {(0,): 0, (1,): -1, (2,): -2}
    assert [m for m in alg.basis if levels[m] >= 0] == [(0,)]
    assert [m for m in alg.basis if levels[m] >= -1] == [(0,), (1,)]
    assert len([m for m in alg.basis if levels[m] >= -2]) == 3


def test_zero_characters_trivial_filtration(p2):
    data = gl1_bundle(p2, [(0, 0)] * 3)
    alg = build_truncation(data, 0, 3)
    assert all(w == (0, 0) for w in weight_table(alg).values())
    for ray in alg.rays:
        assert chain_members(alg, ray, 0) == list(alg.basis)
        assert chain_members(alg, ray, 1) == []


def test_gl2_row_convention_weights(p2):
    data = gl2_bundle(p2, [[(1, 0), (0, 0)]] * 3)
    alg = build_truncation(data, 0, 2)
    table = weight_table(alg)
    for j in range(2):
        assert table[generator(alg, 0, j)] == (-1, 0)
        assert table[generator(alg, 1, j)] == (0, 0)


def test_multiplicative_gl1(p1):
    data = gl1_bundle(p1, [(1,), (1,)])
    alg = build_truncation(data, 0, 2)
    ok, witness = check_multiplicative(alg)
    assert ok and witness is None
    x = generator(alg, 0, 0)
    assert multiply(alg, x, x) == (2,)
    table = weight_table(alg)
    assert level(table, (2,), (1,)) == 2 * level(table, x, (1,))


def test_out_of_truncation_products_skipped(p1):
    data = gl1_bundle(p1, [(1,), (1,)])
    alg = build_truncation(data, 0, 2)
    assert multiply(alg, (2,), (1,)) is None


def test_coproduct_gl1(p1):
    data = gl1_bundle(p1, [(2,), (2,)])
    alg = build_truncation(data, 0, 2)
    x = generator(alg, 0, 0)
    assert coproduct(alg, x) == {(x, x): 1}
    ok, _ = check_coaction_commutes(alg)
    assert ok


def test_coproduct_gl2_rows(p2):
    data = gl2_bundle(p2, [[(1, 0), (0, 1)]] * 3)
    alg = build_truncation(data, 0, 2)
    x11, x12 = generator(alg, 0, 0), generator(alg, 0, 1)
    x21, x22 = generator(alg, 1, 0), generator(alg, 1, 1)
    assert coproduct(alg, x11) == {(x11, x11): 1, (x12, x21): 1}
    # both left legs carry the row-one weight
    table = weight_table(alg)
    assert table[x11] == table[x12] == (-1, 0)
    ok, _ = check_coaction_commutes(alg)
    assert ok


def test_all_checks_pass_on_random_gl2(p1, p2):
    rng = random.Random(44)
    for fan in (p1, p2):
        for _ in range(4):
            data = random_bundle(rng, fan, 2)
            for k in range(len(fan.maximal_cones)):
                alg = build_truncation(data, k, 3)
                assert check_multiplicative(alg)[0]
                ok, _, dims = check_compatible_algebra(alg)
                assert ok
                assert sum(dims.values()) == len(alg.basis)
                assert check_coaction_commutes(alg)[0]


def test_flipped_weight_negative_control(p2):
    """One monomial's weight flipped in the expanded table fails all three
    reference scans; the table is no longer one weight per row-degree
    vector, so only the per-monomial scans can hold it."""
    data = gl2_bundle(p2, [[(1, 0), (0, 0)]] * 3)
    alg = build_truncation(data, 0, 3)
    x11 = generator(alg, 0, 0)
    corrupted = weight_table(alg)
    corrupted[x11] = tuple(-w for w in corrupted[x11])
    assert not reference_multiplicative(alg, corrupted)[0]
    assert not reference_compatible_algebra(alg, corrupted)[0]
    assert not reference_coaction_commutes(alg, corrupted)[0]


def test_column_convention_negative_control(p2):
    # the column convention still grades multiplicatively but the coaction
    # no longer commutes once the two row characters differ; the row
    # convention that `build_truncation` stores passes every scan
    chars = [[(1, 0), (0, 0)]] * 3
    data = gl2_bundle(p2, chars)
    alg = build_truncation(data, 0, 3)
    column = column_weight_table(alg, chars[0])
    assert reference_multiplicative(alg, column)[0]
    assert reference_compatible_algebra(alg, column)[0]
    assert not reference_coaction_commutes(alg, column)[0]
    assert reference_multiplicative(alg) == check_multiplicative(alg) == (True, None)
    assert reference_compatible_algebra(alg) == check_compatible_algebra(alg)
    assert reference_coaction_commutes(alg) == check_coaction_commutes(alg) == (True, None)


def test_coaction_invariant_under_frame_change(p2):
    rng = random.Random(9)
    chars = [[(1, -1), (0, 2)]] * 3
    base = gl2_bundle(p2, chars)
    from toricfilt.sampling import random_invertible_matrix

    framed = CocharBundleData.make(
        GroupSpec("GL", 2), p2,
        [random_invertible_matrix(rng, 2) for _ in range(3)], chars,
    )
    for k in range(3):
        a = build_truncation(base, k, 3)
        b = build_truncation(framed, k, 3)
        assert a.weights == b.weights
        assert check_coaction_commutes(a) == check_coaction_commutes(b)


def test_gl1_calibration_against_line_data(p1):
    """The degree-one algebra jump is the negative of the associated line
    jump: left- versus right-translation duality pins the sign conventions."""
    from toricfilt.bundles import associated_klyachko

    data = gl1_bundle(p1, [(3,), (-2,)])
    kly = associated_klyachko(data)
    for k, ray_idx in enumerate([0, 1]):
        alg = build_truncation(data, k, 2)
        x = generator(alg, 0, 0)
        line_jump = kly.filtrations[ray_idx].jump_indices()[0]
        assert level(weight_table(alg), x, p1.rays[ray_idx]) == -line_jump


def test_chains_decreasing_and_full_within_truncation(p2):
    data = gl2_bundle(p2, [[(1, -1), (0, 2)]] * 3)
    alg = build_truncation(data, 0, 3)
    table = weight_table(alg)
    for ray in alg.rays:
        levels = sorted({level(table, m, ray) for m in alg.basis})
        previous = None
        for i in levels:
            members = chain_members(alg, ray, i)
            assert all(level(table, m, ray) >= i for m in members)
            if previous is not None:
                assert set(members) <= set(previous)
            previous = members
        assert chain_members(alg, ray, min(levels)) == list(alg.basis)


def test_unsupported_group_kind(p1):
    data = CocharBundleData.make(GroupSpec("DT", 2), p1,
                                 [I2, I2], [[(0,), (0,)]] * 2)
    with pytest.raises(PreconditionError):
        build_truncation(data, 0, 3)


def test_degree_budget_boundary(p1):
    # GL(2) admits C(8 + 11, 11) = 75582 monomial pairs, not C(8 + 12, 12)
    data = gl2_bundle(p1, [[(1,), (0,)], [(0,), (2,)]])
    assert len(build_truncation(data, 0, 11).basis) == 1365
    with pytest.raises(InputError, match="over budget"):
        build_truncation(data, 0, 12)


def test_bool_degree_and_cone_index_refused(p1):
    data = gl2_bundle(p1, [[(1,), (0,)], [(0,), (2,)]])
    for cone_index, degree in ((0, True), (True, 1), (True, True), (0, False)):
        with pytest.raises(InputError, match="truncation degree|cone index"):
            build_truncation(data, cone_index, degree)
    with pytest.raises(InputError, match="cone index must be an integer"):
        build_truncation(data, 1.0, 1)
    assert build_truncation(data, 1, 1).degree == 1


CASES = [(p1_fan(), 1, 4), (p1_fan(), 2, 3), (p1_fan(), 3, 2), (p2_fan(), 1, 4),
         (p2_fan(), 2, 3), (p2_fan(), 3, 2), (p1_fan(), 4, 2)]


def test_checks_match_reference_scans():
    """Built GL(1)-GL(4) truncations on P^1 and P^2, at every cone: the
    library's three results equal the reference scans' on the per-monomial
    table, and the left legs of every coproduct are exactly its row-degree
    group, which makes the coaction check hold by type.  Then the last
    row-degree group moves off its weight by the cone's first ray in that
    table, which no `TruncatedAlgebra` can hold: both reference product
    scans refute it, and each witness product lies in that group, the only
    one whose weight changed."""
    rng = random.Random(303)
    for fan, n, degree in CASES:
        for k in range(len(fan.maximal_cones)):
            alg = build_truncation(random_bundle(rng, fan, n), k, degree)
            assert check_multiplicative(alg) == reference_multiplicative(alg) == (True, None)
            compatible = check_compatible_algebra(alg)
            assert compatible == reference_compatible_algebra(alg)
            assert compatible[0]
            assert check_coaction_commutes(alg) == reference_coaction_commutes(alg) == (True, None)
            for f in alg.basis:
                group = {m for m in alg.basis if row_degrees(m, n) == row_degrees(f, n)}
                assert {left for left, _ in coproduct(alg, f)} == group

            last = alg.rows[-1]
            moved = {m: tuple(w - r for w, r in zip(w, alg.rays[0]))
                     if row_degrees(m, n) == last else w
                     for m, w in weight_table(alg).items()}
            for ok, witness, *_ in (reference_multiplicative(alg, moved),
                                    reference_compatible_algebra(alg, moved)):
                assert not ok
                prod = multiply(alg, tuple(witness["f"]), tuple(witness["g"]))
                assert row_degrees(prod, n) == last


def group_triple_verdicts(alg, by_rows):
    """The two product verdicts of a weight table constant on row-degree
    groups (`by_rows`: a weight per vector of `alg.rows`), read off the
    triples (a, b, a + b) of vectors with |a| + |b| <= degree alone."""
    def pairing(w, ray):
        return sum(x * y for x, y in zip(w, ray))

    multiplicative = compatible = True
    for a, b in itertools.product(alg.rows, repeat=2):
        if sum(a) + sum(b) > alg.degree:
            continue
        wa, wb, wc = by_rows[a], by_rows[b], by_rows[tuple(x + y for x, y in zip(a, b))]
        multiplicative &= all(pairing(wc, ray) >= pairing(wa, ray) + pairing(wb, ray)
                              for ray in alg.rays)
        ca, cb, cc = (reference_class_index(alg.quotient, w) for w in (wa, wb, wc))
        compatible &= cc == tuple(x + y for x, y in zip(ca, cb))
    return multiplicative, compatible


def test_group_triples_match_reference_scans():
    """Seeded GL(1)-GL(4) truncations on P^1 and P^2.  On the built table
    the library's constants and piece dimensions, key order included, equal
    the reference scans'.  In every other case one or two whole row-degree
    groups of the per-monomial table move to new weights, so weights are no
    longer additive: the reference scans' verdicts equal those of the
    row-degree triples, and each reference witness pair fails its check.
    Both refutation kinds occur."""
    rng = random.Random(2417)
    refuted = {"multiplicative": 0, "compatible": 0}
    for trial in range(280):
        fan, n, degree = CASES[trial % len(CASES)]
        alg = build_truncation(random_bundle(rng, fan, n), rng.randrange(len(fan.maximal_cones)),
                               degree)
        by_rows = dict(zip(alg.rows, alg.weights))
        if trial % 2 == 0:
            assert check_multiplicative(alg) == reference_multiplicative(alg) == (True, None)
            compatible, reference = check_compatible_algebra(alg), reference_compatible_algebra(alg)
            assert compatible == reference and list(compatible[2]) == list(reference[2])
            assert group_triple_verdicts(alg, by_rows) == (True, True)
            continue
        for r in rng.sample(alg.rows, min(len(alg.rows), rng.randint(1, 2))):
            by_rows[r] = tuple(rng.randint(-3, 3) for _ in range(fan.rank))
        table = {m: by_rows[row_degrees(m, n)] for m in alg.basis}
        verdicts = group_triple_verdicts(alg, by_rows)

        ok, witness = reference_multiplicative(alg, table)
        assert ok == verdicts[0]
        refuted["multiplicative"] += not ok
        if not ok:
            f, g, ray = tuple(witness["f"]), tuple(witness["g"]), tuple(witness["ray"])
            prod = multiply(alg, f, g)
            assert level(table, prod, ray) < level(table, f, ray) + level(table, g, ray)

        ok, witness, _ = reference_compatible_algebra(alg, table)
        assert ok == verdicts[1]
        refuted["compatible"] += not ok
        if not ok:
            f, g = tuple(witness["f"]), tuple(witness["g"])
            cls = {m: reference_class_index(alg.quotient, table[m]) for m in (f, g)}
            prod = multiply(alg, f, g)
            assert (reference_class_index(alg.quotient, table[prod])
                    != tuple(a + b for a, b in zip(cls[f], cls[g])))
        assert reference_coaction_commutes(alg, table) == (True, None)
    assert all(refuted.values()), refuted


def test_row_degree_pairs_match_product_walk(p1):
    """Row degrees add under products, and every pair of row-degree vectors
    with |a| + |b| <= degree is realised: the distinct row-degree triples
    of the pairwise product table are exactly the (a, b, a + b) over the
    shape's vectors, read in either order of the two factors.  This is
    what makes both product checks hold by type."""
    def symmetric(triples):
        return triples | {(b, a, c) for a, b, c in triples}

    for n, top in ((1, 8), (2, 4), (3, 2)):
        for degree in range(1, top + 1):
            alg = build_truncation(random_bundle(random.Random(n), p1, n), 0, degree)
            of = [row_degrees(m, n) for m in alg.basis]
            walked = {(of[i], of[j], of[k]) for i, j, k in products(alg)}
            added = {(a, b, tuple(x + y for x, y in zip(a, b)))
                     for a in alg.rows for b in alg.rows if sum(a) + sum(b) <= degree}
            assert symmetric(added) == symmetric(walked)


def test_shape_counts_row_degree_groups(p1):
    """The shape's closed form, vectors sorted by (total, vector) with
    group sizes prod_i C(d_i + n - 1, n - 1), equals the row-degree vectors
    in order of first appearance in the basis and their counts, for
    GL(1)-GL(4) at degrees 1-5 (above the degree budget too: `.basis` does
    not read it)."""
    for n in range(1, 5):
        alg = build_truncation(random_bundle(random.Random(n), p1, n), 0, 1)
        for degree in range(1, 6):
            at = replace(alg, degree=degree)
            of = [row_degrees(m, n) for m in at.basis]
            rows, sizes = _shape(n, degree)
            assert at.rows == rows and list(rows) == list(dict.fromkeys(of))
            assert list(sizes) == [of.count(r) for r in rows]


def test_one_pass_basis_matches_brute_force(p1, p2):
    """The basis is every exponent vector of degree at most D, sorted by
    (degree, vector), and each weight, the oracle's and the library's read
    through its row degrees, is the sum of its generators' -u_i."""
    rng = random.Random(12)
    for n in range(1, 4):
        for degree in range(1, 4):
            fan = (p1, p2)[(n + degree) % 2]
            data = random_bundle(rng, fan, n)
            alg = build_truncation(data, 0, degree)
            basis = sorted((m for m in itertools.product(range(degree + 1), repeat=n * n)
                            if sum(m) <= degree), key=lambda m: (sum(m), m))
            weights = {}
            for m in basis:
                w = [0] * fan.rank
                for g, e in enumerate(m):
                    for t in range(fan.rank):
                        w[t] -= e * data.chars[0][g // n][t]
                weights[m] = tuple(w)
            table = weight_table(alg)
            assert list(alg.basis) == basis == list(table)
            assert table == weights
            by_rows = dict(zip(alg.rows, alg.weights))
            assert {m: by_rows[row_degrees(m, n)] for m in basis} == weights


def test_truncations_of_one_shape_share_tables(p1, p2):
    """Two bundles on different fans, GL(2) at degree 3: one tuple of
    row-degree vectors, equal bases, and each algebra its own characters."""
    a = build_truncation(gl2_bundle(p1, [[(1,), (0,)], [(0,), (2,)]]), 1, 3)
    b = build_truncation(gl2_bundle(p2, [[(1, 0), (0, 1)]] * 3), 2, 3)
    rows, _ = _shape(2, 3)
    assert a.rows is b.rows is rows
    assert a.basis == b.basis and len(a.basis) == 35
    assert (a.chars, b.chars) == (((0,), (2,)), ((1, 0), (0, 1)))
    assert len(a.weights) == len(b.weights) == len(rows) and a.weights != b.weights


def test_over_budget_degree_builds_no_shape(p1):
    data = gl2_bundle(p1, [[(1,), (0,)], [(0,), (2,)]])
    info = _shape.cache_info()
    with pytest.raises(InputError, match="over budget"):
        build_truncation(data, 0, 12)
    after = _shape.cache_info()
    assert (after.misses, after.currsize) == (info.misses, info.currsize)


def test_shape_holds_only_tuples():
    def tuples_all_the_way(x):
        return isinstance(x, int) or isinstance(x, tuple) and all(map(tuples_all_the_way, x))

    for n, degree in ((1, 3), (2, 2), (3, 1)):
        shape = _shape(n, degree)
        assert isinstance(shape, tuple) and len(shape) == 2
        assert all(map(tuples_all_the_way, shape))


def test_witness_is_the_first_failing_pair(p1):
    """GL(1) on P^1 at degree 4, levels 0, -1, -2, -3, -4 on the ray (1,).
    A per-monomial table moving x^2 to level -5 and x^4 to level -9 makes
    the pairs (x, x) and (x, x^3) fail, with distinct weight and class
    triples; both reference scans name the earlier pair.  The built algebra
    passes, as every `TruncatedAlgebra` does."""
    alg = build_truncation(gl1_bundle(p1, [(1,), (1,)]), 0, 4)
    assert alg.weights == ((0,), (-1,), (-2,), (-3,), (-4,))
    broken = {(e,): (w,) for e, w in enumerate((0, -1, -5, -3, -9))}
    expected = (False, {"ray": [1], "f": [1], "g": [1]})
    assert reference_multiplicative(alg, broken) == expected
    assert reference_compatible_algebra(alg, broken)[:2] == (False, {"f": [1], "g": [1]})
    assert check_multiplicative(alg) == reference_multiplicative(alg) == (True, None)
    assert check_compatible_algebra(alg) == reference_compatible_algebra(alg)


def test_class_sum_outside_every_class(p1):
    """A per-monomial table moving x to weight -3 gives the classes 0, -3, -2
    on 1, x, x^2: the product x * x sums to class -6, which no monomial has,
    and the reference scan refutes the pair (x, x)."""
    alg = build_truncation(gl1_bundle(p1, [(1,), (1,)]), 0, 2)
    compatible = reference_compatible_algebra(alg, {(0,): (0,), (1,): (-3,), (2,): (-2,)})
    assert compatible == (False, {"f": [1], "g": [1]}, {(0,): 1, (-3,): 1, (-2,): 1})


def test_truncation_tables_take_the_group_triples(monkeypatch):
    """The three checks of one algebra call the public
    `CharQuotient.class_index` at most once per row-degree vector."""
    calls = {"classes": 0}
    class_index = CharQuotient.class_index

    def counted_class(self, u):
        calls["classes"] += 1
        return class_index(self, u)

    monkeypatch.setattr(CharQuotient, "class_index", counted_class)
    rng = random.Random(5)
    for fan, n, degree in CASES:
        for k in range(len(fan.maximal_cones)):
            alg = build_truncation(random_bundle(rng, fan, n), k, degree)
            calls["classes"] = 0
            assert check_multiplicative(alg)[0]
            assert check_compatible_algebra(alg)[0]
            assert check_coaction_commutes(alg)[0]
            assert calls["classes"] == len(alg.rows)


def test_wide_truncation_stays_small(p1):
    """An identity-frame GL(60) bundle on P^1 at degree 1 (3,601 monomials
    of 3,600 exponents each): building the algebra and its three checks
    from a cold shape cache peaks below 1 MB of Python allocations, as only
    the 61 row-degree vectors are built, each counting its monomials."""
    n = 60
    data = CocharBundleData.make(GroupSpec("GL", n), p1, [identity(n)] * 2,
                                 [[(i % 5 - 2,) for i in range(n)], [(i % 3,) for i in range(n)]])
    _shape.cache_clear()
    tracemalloc.start()
    try:
        alg = build_truncation(data, 0, 1)
        assert check_multiplicative(alg) == check_coaction_commutes(alg) == (True, None)
        ok, _, dims = check_compatible_algebra(alg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ok and dims == {(0,): 721, (-2,): 720, (-1,): 720, (1,): 720, (2,): 720}
    assert peak < 1_000_000, peak
