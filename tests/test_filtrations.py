import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from builders import P3, identity, random_split_bundle, square_cone_fan, tangent_bundle
from oracle import (
    bundle_dual,
    bundle_sum,
    bundle_tensor,
    change_basis,
    first_chain_difference,
    reference_inverse,
    reference_tensor,
)
from toricfilt import bundles, filtrations, linalg
from toricfilt.bundles import associated_klyachko, check_gluing
from toricfilt.compatibility import cone_compatibility
from toricfilt.errors import InputError
from toricfilt.filtrations import (
    FiltrationData,
    RayFiltration,
    check_morphism,
    direct_sum,
    dual,
    morphism_failure,
    tensor,
    validate,
)
from toricfilt.linalg import QMatrix, Subspace, span_canonical, sum_all
from toricfilt.sampling import (
    p1_fan,
    p2_fan,
    random_bundle,
    random_filtration_data,
    random_invertible_matrix,
    random_ray_filtration,
    random_subspace,
)
from toricfilt.serialize import filtration_from_obj, filtration_to_obj

def line_data(fan, jumps_per_ray):
    """Rank-one data with the given jump index on each ray."""
    return FiltrationData.make(
        fan, 1,
        [RayFiltration.make(1, [(j, Subspace.full(1))]) for j in jumps_per_ray],
    )


def test_trivial_data_valid(p1):
    data = FiltrationData.trivial(p1, 3)
    assert validate(data).valid


def test_non_nested_jumps_invalid(p1):
    f = RayFiltration.make(2, [
        (0, span_canonical([[0, 1]])),
        (1, span_canonical([[1, 0]])),
    ])
    data = FiltrationData.make(p1, 2, [f, RayFiltration.trivial(2)])
    report = validate(data)
    assert not report.valid
    assert any(i["kind"] == "not_nested" for i in report.issues)


def test_tangent_p2_data_valid(tangent_p2):
    # nesting by inspection: Q^2 contains each ray line, lines contain 0
    assert validate(tangent_p2).valid


def test_missing_fullness_invalid(p1):
    f = RayFiltration.make(1, [])
    data = FiltrationData.make(p1, 1, [f, RayFiltration.trivial(1)])
    report = validate(data)
    assert not report.valid
    assert any(i["kind"] == "not_full" for i in report.issues)


def test_value_semantics():
    full = Subspace.full(2)
    line = span_canonical([[1, 0]])
    f = RayFiltration.make(2, [(0, full), (2, line)])
    assert f.value(-5) == full
    assert f.value(0) == full
    assert f.value(1) == line
    assert f.value(2) == line
    assert f.value(3) == Subspace.zero(2)


def test_normalization_drops_zero_and_merges():
    full = Subspace.full(1)
    f = RayFiltration.make(1, [(0, full), (1, full), (2, Subspace.zero(1))])
    assert f.jumps == ((1, full),)


def test_make_normalizes_to_strictly_decreasing_or_unnested():
    """Whatever jumps `make` is given (equal, unnested and zero subspaces
    among them), consecutive stored values differ, and each consecutive pair
    either strictly decreases and is nested or is named by a "not_nested"
    issue; the issues name exactly the pairs whose sum is larger than the
    first value."""
    rng = random.Random(2024)
    for _ in range(300):
        dim = rng.randint(1, 4)
        pool = [Subspace.zero(dim), Subspace.full(dim)]
        pool += [random_subspace(rng, dim, rng.randint(1, dim)) for _ in range(3)]
        indices = rng.sample(range(-4, 5), rng.randint(0, 7))
        f = RayFiltration.make(dim, [(i, rng.choice(pool)) for i in indices])
        unnested = [tuple(i["indices"]) for i in f.issues() if i["kind"] == "not_nested"]
        assert all(s.dim > 0 for _, s in f.jumps)
        for (i1, s1), (i2, s2) in zip(f.jumps, f.jumps[1:]):
            assert i1 < i2 and s1 != s2
            assert (i1, i2) in unnested or s2.dim < s1.dim
        assert unnested == [(i1, i2) for (i1, s1), (i2, s2) in zip(f.jumps, f.jumps[1:])
                            if sum_all([s1, s2], dim) != s1]


def test_tensor_of_line_data(p1):
    # expanding the convolution formula for two rank-one chains: the result
    # is full at j exactly when j <= a + b, so the jump indices add
    a = line_data(p1, [3, -1])
    b = line_data(p1, [2, 5])
    t = tensor(a, b)
    assert t == line_data(p1, [5, 4])


def test_tensor_identity_object(p2, tangent_p2):
    one = line_data(p2, [0, 0, 0])
    assert tensor(tangent_p2, one) == tangent_p2


def test_tensor_trivial_ranks(p1):
    t = tensor(FiltrationData.trivial(p1, 2), FiltrationData.trivial(p1, 2))
    assert t == FiltrationData.trivial(p1, 4)


def _drop_leading(rng, data):
    """The data with a random number of leading jumps dropped on each ray:
    the chains stay nested, and most are no longer full (some are zero)."""
    return FiltrationData.make(data.fan, data.dim, [
        RayFiltration.make(data.dim, f.jumps[rng.randint(0, len(f.jumps)):])
        for f in data.filtrations])


def _tensor_pairs():
    """Seeded operand pairs of dimension 1-6 on P^1, P^2, the 4-ray P^3 fan
    and the square cone, full and with leading jumps dropped, then two
    random P^1 pairs of dimension 8 and 10."""
    rng = random.Random(23)
    for fan in (p1_fan(), p2_fan(), P3, square_cone_fan()):
        for k in range(16):
            a = random_filtration_data(rng, fan, 1 + k % 6)
            b = random_filtration_data(rng, fan, rng.randint(1, 6 - k % 6 // 2))
            yield (a, b) if k % 4 else (_drop_leading(rng, a), _drop_leading(rng, b))
            if k % 4 == 1:
                yield a, _drop_leading(rng, b)
    for d in (8, 10):
        rng = random.Random(9)
        yield random_filtration_data(rng, p1_fan(), d), random_filtration_data(rng, p1_fan(), d)


def _valid_tensor_pairs():
    return [(a, b) for a, b in _tensor_pairs() if validate(a).valid and validate(b).valid]


def test_tensor_matches_reference_sum():
    """The adapted-basis tensor product equals the sum over p + q = j of the
    Kronecker products of the operand chains on valid operands, and refuses
    a pair with a chain that is not full."""
    valid = {True: 0, False: 0}
    for a, b in _tensor_pairs():
        ok = validate(a).valid and validate(b).valid
        valid[ok] += 1
        if ok:
            assert tensor(a, b) == reference_tensor(a, b)
        else:
            with pytest.raises(InputError, match="is not full"):
                tensor(a, b)
    assert min(valid.values()) > 10, valid


def test_tensor_eliminates_nothing(monkeypatch):
    """`tensor` runs no elimination, no sum and no annihilator: with each of
    them made to raise, it returns the same data."""
    pairs = _valid_tensor_pairs()[::4]
    expected = [tensor(a, b) for a, b in pairs]

    def forbidden(*args):
        raise AssertionError("tensor eliminated")

    for module, name in ((linalg, "_eliminate"), (linalg, "sum_all"),
                         (linalg, "annihilator"), (filtrations, "annihilator")):
        monkeypatch.setattr(module, name, forbidden)
    with pytest.raises(AssertionError):
        Subspace.full(2).contains_subspace(span_canonical([[1, 2]]))
    assert [tensor(a, b) for a, b in pairs] == expected


def test_tensor_of_unnested_chain_raises(p1):
    """A chain that is not nested is refused, naming the ray and the first
    pair of jump indices that fails, whichever operand it is in."""
    bad = RayFiltration.make(2, [(0, Subspace.full(2)), (1, span_canonical([[1, 0]])),
                                 (2, span_canonical([[0, 1]])), (3, span_canonical([[1, 1]]))])
    good = FiltrationData.trivial(p1, 2)
    data = FiltrationData.make(p1, 2, [RayFiltration.trivial(2), bad])
    for a, b in ((data, good), (good, data)):
        with pytest.raises(InputError, match="ray 1 is not nested: its subspace at "
                                             "index 2 does not lie in the one at 1"):
            tensor(a, b)


def test_dual_of_unnested_chain_raises(p1):
    """`dual` refuses a chain that is not nested with the message of
    `tensor`, naming the ray and the first pair of jump indices that fails."""
    bad = RayFiltration.make(2, [(0, Subspace.full(2)), (1, span_canonical([[1, 0]])),
                                 (2, span_canonical([[0, 1]])), (3, span_canonical([[1, 1]]))])
    data = FiltrationData.make(p1, 2, [RayFiltration.trivial(2), bad])
    with pytest.raises(InputError, match="^the chain on ray 1 is not nested: its subspace at "
                                         "index 2 does not lie in the one at 1$"):
        dual(data)


def test_dual_of_line_data(p1):
    assert dual(line_data(p1, [4, -2])) == line_data(p1, [-4, 2])


def test_dual_trivial_self_dual(p2):
    data = FiltrationData.trivial(p2, 3)
    assert dual(data) == data


def test_dual_involution_random(p2):
    rng = random.Random(11)
    for _ in range(15):
        data = random_filtration_data(rng, p2, rng.randint(1, 3))
        assert dual(dual(data)) == data


def test_random_chain_fits_short_index_range():
    # eight-dimensional flags can have more steps than [-2, 3] has indices
    for seed in range(50):
        f = random_ray_filtration(random.Random(seed), 8, -2, 3)
        assert f.issues() == ()
        assert f.jumps[0][1].dim == 8
        assert all(-2 <= i <= 3 for i in f.jump_indices())


def _span_failure(chain, pieces, levels, dim):
    """The first probe at which the span of the pieces of level at least j
    differs from the chain."""
    return first_chain_difference(
        chain, lambda j: sum_all([s for s, lv in zip(pieces, levels) if lv >= j], dim), levels)


def test_reconstruction_failure_matches_span_reference():
    """On seeded direct sums of the fiber, the count-and-containment test
    finds the same first failing probe as the span of the pieces: with the
    levels the chain was built from, with one piece's level shifted, and
    with one piece swapped for another subspace of the same dimension that
    keeps the sum direct.  The cases that the counted pass hands to the
    probe scan agree too: a chain with two consecutive values swapped, so
    that it is not nested, and one piece's level moved below the first
    jump, or off the jumps between two of them or past the last one."""
    rng, other = random.Random(61), random.Random(67)
    found = {"matching": set(), "shifted": set(), "swapped": set(), "unnested": set(),
             "below": set(), "off": set()}
    for _ in range(300):
        n = rng.randint(1, 5)
        frame = random_invertible_matrix(rng, n).entries
        cuts = sorted(rng.sample(range(1, n), rng.randint(0, n - 1)))
        pieces = [span_canonical(frame[i:j], n) for i, j in zip([0] + cuts, cuts + [n])]
        levels = [rng.randint(-2, 2) for _ in pieces]
        chain = RayFiltration.make(n, [
            (j, sum_all([s for s, lv in zip(pieces, levels) if lv >= j], n))
            for j in set(levels)])
        k = rng.randrange(len(pieces))
        shifted = levels[:k] + [levels[k] + rng.choice([-1, 1])] + levels[k + 1:]
        swapped = pieces[:k] + [random_subspace(rng, n, pieces[k].dim)] + pieces[k + 1:]
        jumps = chain.jump_indices()
        off = [j for j in range(jumps[0] + 1, jumps[-1] + 3) if j not in jumps]
        cases = {"matching": (chain, pieces, levels), "shifted": (chain, pieces, shifted),
                 "below": (chain, pieces, levels[:k] + [jumps[0] - other.randint(1, 2)]
                           + levels[k + 1:]),
                 "off": (chain, pieces, levels[:k] + [other.choice(off)] + levels[k + 1:])}
        if sum_all(swapped, n).dim == n:
            cases["swapped"] = (chain, swapped, levels)
        if len(chain.jumps) > 1:
            p = other.randrange(len(chain.jumps) - 1)
            values = [s for _, s in chain.jumps]
            values[p], values[p + 1] = values[p + 1], values[p]
            unnested = RayFiltration.make(n, list(zip(jumps, values)))
            assert any(i["kind"] == "not_nested" for i in unnested.issues())
            cases["unnested"] = (unnested, pieces, levels)
        for kind, (c, ps, lvs) in cases.items():
            got = c.reconstruction_failure(ps, lvs)
            assert got == _span_failure(c, ps, lvs, n)
            found[kind].add(got is None)
    assert found == {"matching": {True}, "shifted": {False}, "swapped": {True, False},
                     "unnested": {False}, "below": {False}, "off": {False}}


def _moved_pieces(rng, chain):
    """The adapted lines of a valid chain at their levels, with the levels
    of two lines a < b swapped where the value at b does not hold the line
    from a, or None when no such pair exists.  The dimensions still add up
    at every probe; only a containment test, in the value at b, which is
    not the whole fiber, sees the failure."""
    lines = [(level, span_canonical([row], chain.dim)) for level, row in chain.adapted_rows()]
    pairs = [(x, y) for x, (a, u) in enumerate(lines) for y, (b, _) in enumerate(lines)
             if a < b and not chain.value(b).contains_subspace(u)]
    if not pairs:
        return None
    x, y = rng.choice(pairs)
    levels = [level for level, _ in lines]
    levels[x], levels[y] = levels[y], levels[x]
    return [s for _, s in lines], levels


def test_reconstruction_failure_matches_the_oracle_on_four_kinds_of_chain():
    """Seeded property: `reconstruction_failure` names the same first
    failing probe as the oracle (`first_chain_difference` of the chain
    against the span of the pieces of level at least j) on four kinds of
    chain.  Valid chains loaded through `FiltrationData.make`, with their
    adapted lines at their levels or with one level shifted.  Loaded
    chains that are not nested, which only the probe scan decides.  Chains
    built from bundle frames (`bundles._chain_from_cone`), which record
    that they are valid, against the frame lines of every cone on the ray.
    And adapted lines with two levels swapped so that a value that is not
    the whole fiber fails to hold a line while every dimension adds up
    (`_moved_pieces`), which a containment test that skipped such a value
    would pass."""
    rng = random.Random(71)
    found = {"loaded": set(), "unnested": set(), "bundle": set(), "moved": set()}
    for _ in range(120):
        n = rng.randint(1, 6)
        fan = rng.choice([p1_fan(), p2_fan()])
        loaded = FiltrationData.make(fan, n, [random_ray_filtration(rng, n) for _ in fan.rays])
        chain = loaded.ray(0)
        rows = chain.adapted_rows()
        levels = [level for level, _ in rows]
        if rng.random() < 0.5:
            k = rng.randrange(len(levels))
            levels[k] += rng.choice([-1, 1])
        cases = [("loaded", chain, [span_canonical([r], n) for _, r in rows], levels)]
        if len(chain.jumps) > 1:
            p = rng.randrange(len(chain.jumps) - 1)
            values = [v for _, v in chain.jumps]
            values[p], values[p + 1] = values[p + 1], values[p]
            unnested = FiltrationData.make(fan, n, [
                RayFiltration.make(n, list(zip(chain.jump_indices(), values)))] * len(fan.rays))
            assert "not_nested" in {i["kind"] for i in validate(unnested).issues}
            cases.append(("unnested", unnested.ray(0), cases[0][2], [lv for lv, _ in rows]))
        moved = _moved_pieces(rng, chain)
        if moved is not None:
            cases.append(("moved", chain, *moved))
        bundle = random_bundle(rng, fan, n)
        ray = rng.randrange(len(fan.rays))
        cones = [k for k, idx in enumerate(fan.maximal_cones) if ray in idx]
        built = bundles._chain_from_cone(bundle, cones[0], ray)
        for k in cones:
            cases.append(("bundle", built, linalg.column_lines(bundle.frames[k]),
                          bundles._level_table(bundle)[k][ray]))
        for kind, c, pieces, lvs in cases:
            got = c.reconstruction_failure(pieces, lvs)
            assert got == _span_failure(c, pieces, lvs, n), kind
            found[kind].add(got is None)
    assert found == {"loaded": {True, False}, "unnested": {False}, "bundle": {True, False},
                     "moved": {False}}


def test_validate_decides_the_issues_of_built_chains(monkeypatch):
    """The validity that the chains of bundle frames record when they are
    built short-cuts only the reconstruction test: building the associated
    data decides no chain's issues, and `validate` of those data then
    decides every chain's issues, once each (a spy on `issues`)."""
    walk = RayFiltration.__dict__["issues"].__wrapped__
    walks = []

    def issues(f):
        walks.append(id(f))
        return walk(f)

    monkeypatch.setattr(RayFiltration, "issues", linalg.cached_on_instance(issues))
    rng = random.Random(73)
    for fan in (p1_fan(), p2_fan(), P3):
        for n in range(1, 5):
            data = associated_klyachko(random_split_bundle(rng, fan, n))
            assert walks == []
            assert validate(data).valid
            assert sorted(walks) == sorted(id(f) for f in data.filtrations)
            assert validate(data).valid
            assert len(walks) == len(fan.rays)
            walks.clear()


def test_direct_sum_with_zero(p1, tangent_p2):
    zero = FiltrationData.make(p1, 0, [RayFiltration.make(0, [])] * 2)
    a = line_data(p1, [1, 2])
    assert direct_sum(a, zero) == a


def test_direct_sum_of_lines(p1):
    s = direct_sum(line_data(p1, [1, 0]), line_data(p1, [0, 0]))
    f = s.filtrations[0]
    assert f.value(0) == Subspace.full(2)
    assert f.value(1) == span_canonical([[1, 0]], 2)
    assert f.value(2) == Subspace.zero(2)


def _guard_operand(rng, fan, dim, kind):
    """Data of one kind on `fan`: 0 random full chains, 1 the same with
    leading jumps dropped (most not full), 2 one jump per ray, full or not,
    3 chains whose values have decreasing dimensions but are random, so
    that at dimension 2 or more most are not nested, and 4 chains that
    start at the whole fiber, then take two or three random proper values
    of non-increasing dimensions, so that at dimension 2 or more they are
    full and most are not nested."""
    if kind < 2:
        data = random_filtration_data(rng, fan, dim)
        return _drop_leading(rng, data) if kind else data
    rays = []
    for _ in fan.rays:
        if kind == 4:
            dims = [dim] + sorted((rng.randint(1, max(dim - 1, 1))
                                   for _ in range(rng.randint(2, 3))), reverse=True)
        else:
            dims = sorted(rng.sample(range(1, dim + 1), 1 if kind == 2 else rng.randint(1, dim)),
                          reverse=True)
        indices = sorted(rng.sample(range(-3, 4), len(dims)))
        rays.append(RayFiltration.make(dim, [(i, random_subspace(rng, dim, d))
                                             for i, d in zip(indices, dims)]))
    return FiltrationData.make(fan, dim, rays)


def _guard_cases():
    """Seeded operand pairs and GL(n) bundle data at dimensions 1-4 on P^1,
    P^2, the 4-ray P^3 fan and the square cone.  The bundles on the smooth
    fans are split and glue; the square cone has one maximal cone, so any
    data on it glue."""
    rng = random.Random(2029)
    pairs, bundles = [], []
    for fan in (p1_fan(), p2_fan(), P3, square_cone_fan()):
        for k in range(16):
            pairs.append((_guard_operand(rng, fan, 1 + k % 4, k % 4),
                          _guard_operand(rng, fan, rng.randint(1, 4), rng.randrange(4))))
        for n in range(1, 5):
            bundles.append(random_bundle(rng, fan, n) if len(fan.maximal_cones) == 1
                           else random_split_bundle(rng, fan, n))
    return pairs, bundles


def test_calculus_builds_canonical_chains(monkeypatch):
    """`tensor`, `dual`, `direct_sum` and `associated_klyachko` return
    exactly what `RayFiltration.make` and `FiltrationData.make` would make
    of their own jumps, on the valid operands of `_guard_cases` (each one
    dualized, each next to the following one on its fan) and on one-jump
    chains, and none of them calls either `make`."""
    pairs, bundles = _guard_cases()
    valid = [x for pair in pairs for x in pair if validate(x).valid]
    calls = []

    def spy(name, make):
        def spied(*args):
            calls.append(name)
            return make(*args)
        return staticmethod(spied)

    with monkeypatch.context() as patch:
        patch.setattr(RayFiltration, "make", spy("RayFiltration", RayFiltration.make))
        patch.setattr(FiltrationData, "make", spy("FiltrationData", FiltrationData.make))
        built = [associated_klyachko(b) for b in bundles] + [dual(a) for a in valid]
        for a, b in zip(valid, valid[1:]):
            if a.fan == b.fan:
                built += [direct_sum(a, b), tensor(a, b)]
    assert calls == []
    kinds = {"one jump": 0, "several jumps": 0}
    for data in built:
        assert data == FiltrationData.make(data.fan, data.dim, [
            RayFiltration.make(f.dim, f.jumps) for f in data.filtrations])
        for f in data.filtrations:
            kinds["one jump" if len(f.jumps) == 1 else "several jumps"] += 1
    assert min(kinds.values()) > 10, kinds


def _issue_text(issue):
    """The refusal of `RayFiltration.require_valid` for a chain whose first
    issue, as `validate` reports it, is `issue`."""
    if issue["kind"] == "not_nested":
        i1, i2 = issue["indices"]
        return (f"the chain on ray {issue['ray']} is not nested: its subspace at index {i2} "
                f"does not lie in the one at {i1}")
    return f"the chain on ray {issue['ray']} is not full: it is not the whole fiber at low indices"


def test_invalid_chains_are_refused_with_their_first_issue(monkeypatch):
    """Seeded data of the kinds of `_guard_operand` that are not full or not
    nested are refused, with the text of the first issue that `validate`
    reports, by `cone_compatibility` on every maximal cone that lists its
    ray, by `tensor` and `direct_sum` with the data on either side of a
    valid operand, and by `dual`.  The chains of kind 4 are full, so their
    refusals cover the nesting text on its own.  A spy shows that each
    loaded chain's issues are decided once, inside `FiltrationData.make`,
    and never by the calculus or the cone set-up."""
    walk = RayFiltration.__dict__["issues"].__wrapped__
    make = FiltrationData.make
    loading, walks = [], []

    def spied_make(*args):
        loading.append(True)
        try:
            return make(*args)
        finally:
            loading.pop()

    def issues(f):
        walks.append((f, bool(loading)))
        return walk(f)

    monkeypatch.setattr(FiltrationData, "make", staticmethod(spied_make))
    monkeypatch.setattr(RayFiltration, "issues", linalg.cached_on_instance(issues))
    rng = random.Random(3031)
    cases = []
    for fan in (p1_fan(), p2_fan(), P3, square_cone_fan()):
        for kind in (1, 2, 3, 4):
            for dim in range(1, 5):
                data = _guard_operand(rng, fan, dim, kind)
                report = validate(data)
                if not report.valid:
                    cases.append((data, _guard_operand(rng, fan, rng.randint(1, 4), 0),
                                  report.issues[0], kind))
    loaded = [f for data, other, _, _ in cases for f in data.filtrations + other.filtrations]
    assert all(inside for _, inside in walks)
    assert len({id(f) for f, _ in walks}) == len(walks)
    assert {id(f) for f in loaded} <= {id(f) for f, _ in walks}
    walked = len(walks)

    firsts = {"not_full": 0, "not_nested": 0}
    full_firsts = []
    for data, other, issue, kind in cases:
        firsts[issue["kind"]] += 1
        if kind == 4:
            full_firsts.append(issue["kind"])
        message = "^" + re.escape(_issue_text(issue)) + "$"
        cones = [idx for idx in data.fan.maximal_cones if issue["ray"] in idx]
        assert cones
        for idx in cones:
            with pytest.raises(InputError, match=message):
                cone_compatibility(data, idx)
        for operation in (tensor, direct_sum):
            for a, b in ((data, other), (other, data)):
                with pytest.raises(InputError, match=message):
                    operation(a, b)
        with pytest.raises(InputError, match=message):
            dual(data)
    assert len(walks) == walked
    assert firsts["not_full"] > 20 and firsts["not_nested"] > 5, firsts
    assert len(full_firsts) > 8 and set(full_firsts) == {"not_nested"}, full_firsts


def test_morphism_identity_and_zero(p1):
    a = line_data(p1, [0, 0])
    ident = identity(1)
    zero = QMatrix.from_rows([[0]])
    assert check_morphism(ident, a, a)
    assert check_morphism(zero, a, a)


def test_morphism_direction_matters(p1):
    low = line_data(p1, [0, 0])
    high = line_data(p1, [1, 1])
    ident = identity(1)
    # id: low -> high raises the jump, allowed; the reverse is not
    assert check_morphism(ident, low, high)
    assert not check_morphism(ident, high, low)
    assert morphism_failure(ident, high, low) == {"ray": 0, "index": 1}


def test_morphism_shape_mismatch(p1):
    with pytest.raises(InputError):
        check_morphism(identity(2), line_data(p1, [0, 0]), line_data(p1, [0, 0]))


def test_make_refuses_a_dimension_that_is_not_an_integer(p1):
    """A fiber dimension equal to an integer but of another type is refused,
    even when every chain lives in a space of that dimension."""
    chains = [RayFiltration.trivial(2)] * 2
    assert FiltrationData.make(p1, 2, chains).dim == 2
    for dim in (2.0, Fraction(2)):
        with pytest.raises(InputError, match="fiber dimension must be a nonnegative integer"):
            FiltrationData.make(p1, dim, chains)


def test_fan_mismatch_rejected(p1, p2):
    with pytest.raises(InputError):
        tensor(FiltrationData.trivial(p1, 1), FiltrationData.trivial(p2, 1))


def test_round_trip_serialization(p2):
    rng = random.Random(5)
    for _ in range(10):
        data = random_filtration_data(rng, p2, rng.randint(1, 3))
        assert filtration_from_obj(filtration_to_obj(data)) == data


def test_change_basis_round_trip(tangent_p2):
    m = QMatrix.from_rows([[1, 1], [0, 1]])
    moved = change_basis(tangent_p2, m)
    assert moved != tangent_p2
    assert change_basis(moved, reference_inverse(m)) == tangent_p2


@settings(max_examples=40, deadline=None)
@given(jumps=st.lists(st.integers(-4, 4), min_size=2, max_size=2),
       other=st.lists(st.integers(-4, 4), min_size=2, max_size=2))
def test_tensor_commutes_for_lines(jumps, other):
    fan = p1_fan()
    a, b = line_data(fan, jumps), line_data(fan, other)
    assert tensor(a, b) == tensor(b, a)


def test_klyachko_functor_commutes_with_the_calculus(p1, p2):
    """Klyachko's functor respects ⊗, duals and ⊕: on seeded glued bundles
    (random GL(1) and GL(2) data on P^1, split GL(1) and GL(2) data and the
    tangent bundle on P^2 and the 4-cone P^3 fan), the associated data of
    E ⊗ F, E* and E ⊕ F, built frame by frame in the oracle, equal `tensor`,
    `dual` and `direct_sum` of the associated data, and the three bundles
    glue."""
    rng = random.Random(5)
    for fan in (p1, p2, P3):
        glued = [tangent_bundle(fan)] if fan is not p1 else []
        for i in range(12):
            sample = random_bundle if fan is p1 else random_split_bundle
            glued.append(sample(rng, fan, 1 + i % 2))
        for _ in range(30):
            e, f = rng.choice(glued), rng.choice(glued)
            ke, kf = associated_klyachko(e), associated_klyachko(f)
            for bundle, expected in ((bundle_tensor(e, f), tensor(ke, kf)),
                                     (bundle_dual(e), dual(ke)),
                                     (bundle_sum(e, f), direct_sum(ke, kf))):
                assert check_gluing(bundle).glues
                assert associated_klyachko(bundle) == expected

