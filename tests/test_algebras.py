import itertools
import random

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


def first_of_group(alg, m):
    """The first basis monomial with m's row degrees."""
    return next(f for f in alg.basis if row_degrees(f, alg.n) == row_degrees(m, alg.n))


def test_checks_match_reference_scans():
    """Built GL(1)-GL(4) truncations on P^1 and P^2, at every cone: the
    library's three results equal the reference scans' on the expanded
    per-monomial table, and the left legs of every coproduct are exactly its
    row-degree group, which makes the coaction check hold by type.  Then the
    last row-degree group moves off its weight by the cone's first ray: both
    product checks fail, as the reference scans do, and each witness product
    lies in that group, the only one whose weight changed."""
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
            weights = list(alg.weights)
            weights[-1] = tuple(w - r for w, r in zip(weights[-1], alg.rays[0]))
            moved = replace(alg, weights=tuple(weights))
            ok, witness = check_multiplicative(moved)
            assert not ok and not reference_multiplicative(moved)[0]
            prod = multiply(moved, tuple(witness["f"]), tuple(witness["g"]))
            assert row_degrees(prod, n) == last
            ok, witness, dims = check_compatible_algebra(moved)
            ref_ok, _, ref_dims = reference_compatible_algebra(moved)
            assert not ok and not ref_ok
            assert list(dims.items()) == list(ref_dims.items())
            prod = multiply(moved, tuple(witness["f"]), tuple(witness["g"]))
            assert row_degrees(prod, n) == last
            assert check_coaction_commutes(moved) == reference_coaction_commutes(moved)


def test_group_triples_match_reference_scans():
    """Seeded GL(1)-GL(4) truncations on P^1 and P^2; in every other case
    one or two whole row-degree groups move to new weights, so weights are
    no longer additive.  On the expanded per-monomial table the verdicts and
    the piece dimensions, key order included, equal the reference scans',
    each witness pair fails the reference check, and each witness monomial
    is the first of its row-degree group in the basis.  Both refutation
    kinds occur."""
    rng = random.Random(2417)
    refuted = {"multiplicative": 0, "compatible": 0}
    for trial in range(280):
        fan, n, degree = CASES[trial % len(CASES)]
        alg = build_truncation(random_bundle(rng, fan, n), rng.randrange(len(fan.maximal_cones)),
                               degree)
        if trial % 2:
            weights = list(alg.weights)
            for x in rng.sample(range(len(weights)), min(len(weights), rng.randint(1, 2))):
                weights[x] = tuple(rng.randint(-3, 3) for _ in range(fan.rank))
            alg = replace(alg, weights=tuple(weights))
        table = weight_table(alg)

        ok, witness = check_multiplicative(alg)
        assert ok == reference_multiplicative(alg, table)[0]
        refuted["multiplicative"] += not ok
        if not ok:
            f, g, ray = tuple(witness["f"]), tuple(witness["g"]), tuple(witness["ray"])
            assert list(witness) == ["ray", "f", "g"] and ray in alg.rays
            assert f == first_of_group(alg, f) and g == first_of_group(alg, g)
            prod = multiply(alg, f, g)
            assert level(table, prod, ray) < level(table, f, ray) + level(table, g, ray)

        ok, witness, dims = check_compatible_algebra(alg)
        ref_ok, _, ref_dims = reference_compatible_algebra(alg, table)
        assert ok == ref_ok
        assert list(dims.items()) == list(ref_dims.items())
        refuted["compatible"] += not ok
        if not ok:
            f, g = tuple(witness["f"]), tuple(witness["g"])
            assert list(witness) == ["f", "g"]
            assert f == first_of_group(alg, f) and g == first_of_group(alg, g)
            cls = {m: reference_class_index(alg.quotient, table[m]) for m in (f, g)}
            prod = multiply(alg, f, g)
            assert (reference_class_index(alg.quotient, table[prod])
                    != tuple(a + b for a, b in zip(cls[f], cls[g])))

        assert check_coaction_commutes(alg) == reference_coaction_commutes(alg, table) == (True, None)
    assert all(refuted.values()), refuted


def test_row_degree_pairs_match_product_walk(p1):
    """The shape's row-degree vectors come in order of first appearance in
    the basis, with their group sizes, and its pairs (a, b, a + b) are the
    distinct row-degree triples of the pairwise product table, both read in
    either order of the two factors."""
    def symmetric(triples):
        return triples | {(b, a, c) for a, b, c in triples}

    for n, top in ((1, 8), (2, 4), (3, 2)):
        for degree in range(1, top + 1):
            alg = build_truncation(random_bundle(random.Random(n), p1, n), 0, degree)
            _, rows, sizes, pairs = _shape(n, degree)
            of = [row_degrees(m, n) for m in alg.basis]
            assert list(rows) == list(dict.fromkeys(of))
            assert list(sizes) == [of.count(r) for r in rows]
            walked = {(of[i], of[j], of[k]) for i, j, k in products(alg)}
            shaped = {(rows[a], rows[b], rows[c]) for a, b, c in pairs}
            assert len(shaped) == len(pairs)
            assert symmetric(shaped) == symmetric(walked)


def test_one_pass_basis_matches_brute_force(p1, p2):
    """The basis is every exponent vector of degree at most D, sorted by
    (degree, vector), and each weight is the sum of its generators' -u_i."""
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


def test_truncations_of_one_shape_share_tables(p1, p2):
    """Two bundles on different fans, GL(2) at degree 3: one basis object and
    one tuple of row-degree vectors."""
    a = build_truncation(gl2_bundle(p1, [[(1,), (0,)], [(0,), (2,)]]), 1, 3)
    b = build_truncation(gl2_bundle(p2, [[(1, 0), (0, 1)]] * 3), 2, 3)
    basis, rows, _, _ = _shape(2, 3)
    assert a.basis is b.basis is basis
    assert a.rows is b.rows is rows
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
        assert isinstance(shape, tuple) and len(shape) == 4
        assert all(map(tuples_all_the_way, shape))


def test_witness_is_the_first_failing_pair(p1):
    """GL(1) on P^1 at degree 4, levels 0, -1, -2, -3, -4 on the ray (1,).
    Moving x^2 to level -5 and x^4 to level -9 makes the pairs (x, x) and
    (x, x^3) fail, with distinct weight and class triples; both checks name
    the earlier pair, as the reference scans do."""
    alg = build_truncation(gl1_bundle(p1, [(1,), (1,)]), 0, 4)
    assert alg.weights == ((0,), (-1,), (-2,), (-3,), (-4,))
    broken = replace(alg, weights=((0,), (-1,), (-5,), (-3,), (-9,)))
    expected = (False, {"ray": [1], "f": [1], "g": [1]})
    assert check_multiplicative(broken) == reference_multiplicative(broken) == expected
    compatible = check_compatible_algebra(broken)
    assert compatible == reference_compatible_algebra(broken)
    assert compatible[1] == {"f": [1], "g": [1]}


def test_class_sum_outside_every_class(p1):
    """Moving x to weight -3 gives the classes 0, -3, -2 on 1, x, x^2: the
    product x * x sums to class -6, which no monomial has."""
    alg = build_truncation(gl1_bundle(p1, [(1,), (1,)]), 0, 2)
    broken = replace(alg, weights=((0,), (-3,), (-2,)))
    compatible = check_compatible_algebra(broken)
    assert (-6,) not in compatible[2]
    assert compatible == reference_compatible_algebra(broken)
    assert compatible[:2] == (False, {"f": [1], "g": [1]})


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
            assert 0 < calls["classes"] <= len(alg.rows)
