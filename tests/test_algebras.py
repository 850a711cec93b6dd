import itertools
import random

import pytest

from builders import identity, replace
from oracle import (
    chain_members,
    coproduct,
    generator,
    multiply,
    products,
    reference_coaction_commutes,
    reference_compatible_algebra,
    reference_multiplicative,
)
from toricfilt import algebras
from toricfilt.algebras import (
    _class_memo,
    _columns,
    _grouped,
    _shape,
    _walk,
    build_truncation,
    check_coaction_commutes,
    check_compatible_algebra,
    check_multiplicative,
)
from toricfilt.bundles import CocharBundleData, GroupSpec
from toricfilt.fans import CharQuotient
from toricfilt.errors import InputError, PreconditionError
from toricfilt.linalg import QMatrix
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
    levels = {m: alg.level(m, (1,)) for m in alg.basis}
    assert levels == {(0,): 0, (1,): -1, (2,): -2}
    assert [m for m in alg.basis if levels[m] >= 0] == [(0,)]
    assert [m for m in alg.basis if levels[m] >= -1] == [(0,), (1,)]
    assert len([m for m in alg.basis if levels[m] >= -2]) == 3


def test_zero_characters_trivial_filtration(p2):
    data = gl1_bundle(p2, [(0, 0)] * 3)
    alg = build_truncation(data, 0, 3)
    assert all(alg.weights[m] == (0, 0) for m in alg.basis)
    for ray in alg.rays:
        assert chain_members(alg, ray, 0) == list(alg.basis)
        assert chain_members(alg, ray, 1) == []


def test_gl2_row_convention_weights(p2):
    data = gl2_bundle(p2, [[(1, 0), (0, 0)]] * 3)
    alg = build_truncation(data, 0, 2)
    for j in range(2):
        assert alg.weights[generator(alg, 0, j)] == (-1, 0)
        assert alg.weights[generator(alg, 1, j)] == (0, 0)


def test_multiplicative_gl1(p1):
    data = gl1_bundle(p1, [(1,), (1,)])
    alg = build_truncation(data, 0, 2)
    ok, witness = check_multiplicative(alg)
    assert ok and witness is None
    x = generator(alg, 0, 0)
    assert multiply(alg, x, x) == (2,)
    assert alg.level((2,), (1,)) == alg.level(x, (1,)) + alg.level(x, (1,))


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
    assert alg.weights[x11] == alg.weights[x12] == (-1, 0)
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
    data = gl2_bundle(p2, [[(1, 0), (0, 0)]] * 3)
    alg = build_truncation(data, 0, 3)
    x11 = generator(alg, 0, 0)
    corrupted = dict(alg.weights)
    corrupted[x11] = tuple(-w for w in corrupted[x11])
    broken = replace(alg, weights=corrupted)
    assert not check_multiplicative(broken)[0]
    assert not check_compatible_algebra(broken)[0]
    assert not check_coaction_commutes(broken)[0]


def test_column_convention_negative_control(p2):
    # the column convention still grades multiplicatively but the coaction
    # no longer commutes once the two row characters differ
    chars = [[(1, 0), (0, 0)]] * 3
    data = gl2_bundle(p2, chars)
    alg = build_truncation(data, 0, 3)
    broken = replace(alg, weights=column_weight_table(alg, chars[0]))
    assert check_multiplicative(broken)[0]
    assert check_compatible_algebra(broken)[0]
    assert not check_coaction_commutes(broken)[0]


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
        assert alg.level(x, p1.rays[ray_idx]) == -line_jump


def test_chains_decreasing_and_full_within_truncation(p2):
    data = gl2_bundle(p2, [[(1, -1), (0, 2)]] * 3)
    alg = build_truncation(data, 0, 3)
    for ray in alg.rays:
        levels = sorted({alg.level(m, ray) for m in alg.basis})
        previous = None
        for i in levels:
            members = chain_members(alg, ray, i)
            assert all(alg.level(m, ray) >= i for m in members)
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


def row_degrees(m, n):
    return tuple(sum(m[i * n:(i + 1) * n]) for i in range(n))


def test_checks_match_reference_scans():
    rng = random.Random(303)
    refuted = {"compatible": 0, "coaction": 0}
    cases = [(p1_fan(), 1, 4), (p1_fan(), 2, 3), (p2_fan(), 2, 3), (p2_fan(), 3, 2),
             (p1_fan(), 4, 2)]
    for trial in range(40):
        fan, n, degree = cases[trial % len(cases)]
        data = random_bundle(rng, fan, n)
        alg = build_truncation(data, rng.randrange(len(fan.maximal_cones)), degree)
        if trial % 2:
            weights = dict(alg.weights)
            for m in rng.sample(alg.basis, rng.randint(1, 3)):
                weights[m] = tuple(rng.randint(-3, 3) for _ in range(fan.rank))
            alg = replace(alg, weights=weights)
        assert check_multiplicative(alg) == reference_multiplicative(alg)
        compatible = check_compatible_algebra(alg)
        assert compatible == reference_compatible_algebra(alg)
        refuted["compatible"] += not compatible[0]
        ok, witness = check_coaction_commutes(alg)
        ref_ok, ref_witness = reference_coaction_commutes(alg)
        assert ok == ref_ok
        refuted["coaction"] += not ok
        if not ok:
            # same monomial; the left leg is the first of its group, in basis
            # order, whose class differs
            f = tuple(witness["monomial"])
            assert f == tuple(ref_witness["monomial"])
            cls = {m: alg.quotient.class_index(alg.weights[m]) for m in alg.basis}
            group = [m for m in alg.basis if row_degrees(m, n) == row_degrees(f, n)]
            assert group[0] == f
            assert tuple(witness["left_leg"]) == next(m for m in group if cls[m] != cls[f])
        # the left legs of a coproduct are exactly the row-degree group
        for f in alg.basis:
            group = {m for m in alg.basis if row_degrees(m, n) == row_degrees(f, n)}
            assert {left for left, _ in coproduct(alg, f)} == group
    assert all(refuted.values()), refuted  # corrupted tables reach the witnesses

    # the last monomial moved off its weight: the checks pass on the clean
    # table, then see the table edited in place, and every witness comes
    # from the end of the walk
    for fan, n, degree in cases:
        alg = build_truncation(random_bundle(rng, fan, n), 0, degree)
        assert check_multiplicative(alg)[0]
        assert check_compatible_algebra(alg)[0]
        assert check_coaction_commutes(alg)[0]
        last = alg.basis[-1]
        alg.weights[last] = tuple(w - r for w, r in zip(alg.weights[last], alg.rays[0]))
        ok, witness = check_multiplicative(alg)
        assert (ok, witness) == reference_multiplicative(alg)
        assert multiply(alg, tuple(witness["f"]), tuple(witness["g"])) == last
        compatible = check_compatible_algebra(alg)
        assert compatible == reference_compatible_algebra(alg)
        assert multiply(alg, tuple(compatible[1]["f"]), tuple(compatible[1]["g"])) == last
        ok, witness = check_coaction_commutes(alg)
        assert ok == reference_coaction_commutes(alg)[0] == (n == 1)
        if n > 1:
            assert witness["left_leg"] == list(last)


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
            assert list(alg.basis) == basis == list(alg.weights)
            assert alg.weights == weights


def test_replaced_truncation_starts_without_cached_tables(p1):
    alg = build_truncation(random_bundle(random.Random(4), p1, 2), 0, 2)
    assert check_compatible_algebra(alg)[0]
    _columns(alg)  # the group triples decide this table, so no check read the columns
    memo = _class_memo(alg)
    assert memo and _class_memo(alg) is memo and {"__columns", "__class_memo"} <= set(vars(alg))
    other = replace(alg, weights=dict(alg.weights))
    assert not {"__columns", "__class_memo"} & set(vars(other))
    assert _columns(other) == _columns(alg) and _class_memo(other) == {}


def test_product_table_matches_pair_scan(p1):
    """The index table lists, in walk order, exactly the pairs f <= g of the
    basis whose product stays in the truncation."""
    for n in range(1, 5):
        for degree in range(1, 4):
            alg = build_truncation(random_bundle(random.Random(n), p1, n), 0, degree)
            index = {m: k for k, m in enumerate(alg.basis)}
            expected = [(index[f], index[g], index[multiply(alg, f, g)])
                        for f, g in itertools.combinations_with_replacement(alg.basis, 2)
                        if multiply(alg, f, g) is not None]
            assert products(alg) == expected


def test_truncations_of_one_shape_share_tables(p1, p2):
    """Two bundles on different fans, GL(2) at degree 3: one basis object and
    one set of product columns."""
    a = build_truncation(gl2_bundle(p1, [[(1,), (0,)], [(0,), (2,)]]), 1, 3)
    b = build_truncation(gl2_bundle(p2, [[(1, 0), (0, 1)]] * 3), 2, 3)
    basis, _, columns, _ = _shape(2, 3)
    assert a.basis is b.basis is basis
    assert list(a.weights) == list(basis) and a.weights != b.weights
    assert _columns(a) is _columns(b) is columns


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


def test_replaced_degree_walks_its_own_basis(p1, p2):
    """A truncation whose basis is not its shape's (here a degree-3 basis at
    degree 2) gets its own walk; every check still equals the reference scan,
    on the clean table and on corrupted ones."""
    rng = random.Random(15)
    refuted = 0
    for fan, n in ((p1, 1), (p1, 2), (p2, 2)):
        alg = build_truncation(random_bundle(rng, fan, n), 0, 3)
        lower = replace(alg, degree=2)
        assert lower.basis is not _shape(n, 2)[0]
        assert _columns(lower) == _walk(alg.basis, 2) != _columns(alg)
        assert _columns(lower) is not _shape(n, 2)[2]
        for trial in range(4):
            weights = dict(alg.weights)
            for m in rng.sample(alg.basis, trial):
                weights[m] = tuple(rng.randint(-3, 3) for _ in range(fan.rank))
            case = replace(lower, weights=weights)
            assert check_multiplicative(case) == reference_multiplicative(case)
            compatible = check_compatible_algebra(case)
            assert compatible == reference_compatible_algebra(case)
            refuted += not compatible[0]
            ok, witness = check_coaction_commutes(case)
            ref_ok, ref_witness = reference_coaction_commutes(case)
            assert ok == ref_ok
            if not ok:
                assert witness["monomial"] == ref_witness["monomial"]
    assert refuted


def test_witness_is_the_first_failing_pair(p1):
    """GL(1) on P^1 at degree 4, levels 0, -1, -2, -3, -4 on the ray (1,).
    Moving x^2 to level -5 and x^4 to level -9 makes the pairs (x, x) and
    (x, x^3) fail, with distinct weight and class triples; both checks name
    the earlier pair in the walk, as the reference scans do."""
    alg = build_truncation(gl1_bundle(p1, [(1,), (1,)]), 0, 4)
    weights = dict(alg.weights)
    weights[(2,)], weights[(4,)] = (-5,), (-9,)
    broken = replace(alg, weights=weights)
    expected = (False, {"ray": [1], "f": [1], "g": [1]})
    assert check_multiplicative(broken) == reference_multiplicative(broken) == expected
    compatible = check_compatible_algebra(broken)
    assert compatible == reference_compatible_algebra(broken)
    assert compatible[1] == {"f": [1], "g": [1]}


def test_class_sum_outside_every_class(p1):
    """Moving x to weight -3 gives the classes 0, -3, -2 on 1, x, x^2: the
    product x * x sums to class -6, which no monomial has."""
    alg = build_truncation(gl1_bundle(p1, [(1,), (1,)]), 0, 2)
    weights = dict(alg.weights)
    weights[(1,)] = (-3,)
    broken = replace(alg, weights=weights)
    compatible = check_compatible_algebra(broken)
    assert (-6,) not in compatible[2]
    assert compatible == reference_compatible_algebra(broken)
    assert compatible[:2] == (False, {"f": [1], "g": [1]})


GROUP_CASES = [(p1_fan(), 1, 4), (p1_fan(), 2, 3), (p1_fan(), 3, 2), (p2_fan(), 1, 4),
               (p2_fan(), 2, 3), (p2_fan(), 3, 2)]


def test_group_triples_match_reference_scans():
    """Seeded GL(1)-GL(3) truncations on P^1 and P^2; in every other case
    one or two whole row-degree groups move to a new weight, so the table
    stays constant on groups and the group triples decide it, but weights
    are no longer additive.  Every result equals the reference scan's, the
    witnesses and the key order of the piece dimensions included."""
    rng = random.Random(2417)
    refuted = {"multiplicative": 0, "compatible": 0}
    for trial in range(300):
        fan, n, degree = GROUP_CASES[trial % len(GROUP_CASES)]
        alg = build_truncation(random_bundle(rng, fan, n), rng.randrange(len(fan.maximal_cones)),
                               degree)
        groups = _shape(n, degree)[3][0]
        if trial % 2:
            for group in rng.sample(groups, min(len(groups), rng.randint(1, 2))):
                w = tuple(rng.randint(-3, 3) for _ in range(fan.rank))
                for k in group:
                    alg.weights[alg.basis[k]] = w
        assert _grouped(alg) is not None
        multiplicative = check_multiplicative(alg)
        assert multiplicative == reference_multiplicative(alg)
        compatible = check_compatible_algebra(alg)
        reference = reference_compatible_algebra(alg)
        assert compatible == reference
        assert list(compatible[2].items()) == list(reference[2].items())
        assert check_coaction_commutes(alg) == reference_coaction_commutes(alg) == (True, None)
        refuted["multiplicative"] += not multiplicative[0]
        refuted["compatible"] += not compatible[0]
    assert all(refuted.values()), refuted


def test_truncation_tables_take_the_group_triples(monkeypatch):
    """On tables that `build_truncation` makes, no check walks the product
    table, and `class_index` runs at most once per row-degree group; an
    edited table that is not constant on groups is walked."""
    calls = {"walks": 0, "classes": 0}
    columns, class_index = algebras._columns, CharQuotient.class_index

    def counted_columns(alg):
        calls["walks"] += 1
        return columns(alg)

    def counted_class(self, u):
        calls["classes"] += 1
        return class_index(self, u)

    monkeypatch.setattr(algebras, "_columns", counted_columns)
    monkeypatch.setattr(CharQuotient, "class_index", counted_class)
    rng = random.Random(5)
    for fan, n, degree in GROUP_CASES:
        for k in range(len(fan.maximal_cones)):
            alg = build_truncation(random_bundle(rng, fan, n), k, degree)
            calls["classes"] = 0
            assert check_multiplicative(alg)[0]
            assert check_compatible_algebra(alg)[0]
            assert check_coaction_commutes(alg)[0]
            assert calls["walks"] == 0
            assert 0 < calls["classes"] <= len(_shape(n, degree)[3][0])
    alg.weights[alg.basis[-1]] = tuple(w + 1 for w in alg.weights[alg.basis[-1]])
    assert _grouped(alg) is None
    assert check_multiplicative(alg) == reference_multiplicative(alg)
    assert calls["walks"] >= 1
    calls["walks"] = 0
    assert check_compatible_algebra(alg) == reference_compatible_algebra(alg)
    assert calls["walks"] == 1
