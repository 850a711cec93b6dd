import random
from fractions import Fraction

import pytest

from builders import P3, identity, random_split_bundle, transpose
from oracle import (
    canonical_cone_decomposition,
    evaluate_laurent,
    laurent_exponents,
    laurent_identity,
    random_torus_point,
    reference_frame_change_scan,
    reference_gluing,
    reference_inverse,
    reference_product,
    reference_ray_witness,
    transition,
    transition_at,
    transition_breaks_on_ray,
)
from toricfilt import bundles
from toricfilt.bundles import (
    CocharBundleData,
    GroupSpec,
    RayConsistencyError,
    associated_klyachko,
    check_gluing,
    determinant_data,
    validate_bundle,
)
from toricfilt.compatibility import verify_cone_decomposition
from toricfilt.errors import InputError, PreconditionError
from toricfilt.fans import Fan, cone_intersection
from toricfilt.filtrations import FiltrationData, dual, tensor
from toricfilt.linalg import QMatrix
from toricfilt.sampling import random_bundle
from toricfilt.serialize import bundle_from_obj, bundle_to_obj

I1 = identity(1)
I2 = identity(2)


def gl1_p2(chars, fan):
    return CocharBundleData.make(GroupSpec("GL", 1), fan, [I1, I1, I1],
                                 [[c] for c in chars])


def test_validate_gl1_any_characters(p1):
    data = CocharBundleData.make(GroupSpec("GL", 1), p1, [I1, I1], [[(3,)], [(-5,)]])
    assert validate_bundle(data).valid


def test_validate_sl_character_sum(p1):
    data = CocharBundleData.make(
        GroupSpec("SL", 2), p1, [I2, I2],
        [[(1,), (0,)], [(0,), (0,)]],
    )
    report = validate_bundle(data)
    assert not report.valid
    assert any(i["kind"] == "character_sum_nonzero" and i["sum"] == [1]
               for i in report.issues)


def test_validate_dt_requires_diagonal_frame(p1):
    frame = QMatrix.from_rows([[1, 1], [0, 1]])
    data = CocharBundleData.make(
        GroupSpec("DT", 2), p1, [frame, I2],
        [[(0,), (0,)], [(0,), (0,)]],
    )
    report = validate_bundle(data)
    assert not report.valid
    assert any(i["kind"] == "frame_not_in_group" for i in report.issues)


def test_validate_singular_frame(p1):
    frame = QMatrix.from_rows([[1, 1], [1, 1]])
    data = CocharBundleData.make(
        GroupSpec("GL", 2), p1, [frame, I2],
        [[(0,), (0,)], [(0,), (0,)]],
    )
    report = validate_bundle(data)
    assert not report.valid
    assert any(i["kind"] == "singular_frame" for i in report.issues)


def test_validate_issue_table(p1):
    """The exact issues of a frame on cone 0 (identity on cone 1) for each
    group kind: SL asks for det 1, DT for a diagonal frame."""
    identity, diag = I2, QMatrix.from_rows([[2, 0], [0, 1]])
    singular = QMatrix.from_rows([[1, 1], [1, 1]])
    unimodular = QMatrix.from_rows([[1, 1], [0, 1]])
    not_in_group = [{"kind": "frame_not_in_group", "cone": 0}]
    singular_issue = [{"kind": "singular_frame", "cone": 0}]
    table = {
        "GL": ([], [], singular_issue, []),
        "SL": ([], not_in_group, singular_issue, []),
        "DT": ([], [], singular_issue, not_in_group),
    }
    for kind, expected in table.items():
        for frame, issues in zip((identity, diag, singular, unimodular), expected):
            data = CocharBundleData.make(GroupSpec(kind, 2), p1, [frame, I2],
                                         [[(0,), (0,)], [(0,), (0,)]])
            report = validate_bundle(data)
            assert list(report.issues) == issues, (kind, frame)
            assert report.valid == (not issues)
    # both SL issues of one cone, in order
    data = CocharBundleData.make(GroupSpec("SL", 2), p1, [diag, I2],
                                 [[(1,), (0,)], [(0,), (0,)]])
    assert list(validate_bundle(data).issues) == not_in_group + [
        {"kind": "character_sum_nonzero", "cone": 0, "sum": [1]}]


def test_gluing_rejects_singular_frame(p1):
    """A singular frame on either side of the overlap raises instead of
    reading a frame change off a reduced form whose left block is not the
    identity; with zero characters every frame change would glue."""
    singular = QMatrix.from_rows([[1, 1], [1, 1]])
    for frames in ([singular, I2], [I2, singular]):
        data = CocharBundleData.make(GroupSpec("GL", 2), p1, frames,
                                     [[(0,), (0,)], [(0,), (0,)]])
        with pytest.raises(ValueError, match="matrix is singular"):
            check_gluing(data)


def test_transition_identity_when_charts_agree(p1):
    data = CocharBundleData.make(
        GroupSpec("GL", 2), p1, [I2, I2],
        [[(1,), (0,)], [(1,), (0,)]],
    )
    assert transition(data, 0, 1) == laurent_identity(2, 1)


def test_transition_gl1_scalar(p1):
    data = CocharBundleData.make(GroupSpec("GL", 1), p1, [I1, I1], [[(3,)], [(1,)]])
    lm = transition(data, 0, 1)
    assert lm[0][0] == {(2,): Fraction(1)}


def test_transition_conjugation_cancels_for_zero_characters(p1):
    # the transition is the composite homomorphism in global coordinates, so
    # zero characters give the identity regardless of the frames
    g = QMatrix.from_rows([[1, 1], [0, 1]])
    data = CocharBundleData.make(
        GroupSpec("GL", 2), p1, [I2, g],
        [[(0,), (0,)], [(0,), (0,)]],
    )
    assert transition(data, 0, 1) == laurent_identity(2, 1)


def test_transition_exponent_support(p2):
    rng = random.Random(8)
    data = random_bundle(rng, p2, 3)
    for s in range(3):
        for t in range(3):
            allowed = {
                tuple(a - b for a, b in zip(u, v))
                for u in data.chars[s] for v in data.chars[t]
            }
            for _, e in laurent_exponents(transition(data, s, t)):
                assert e in allowed


def test_gluing_p1_always(p1):
    rng = random.Random(4)
    for _ in range(10):
        data = random_bundle(rng, p1, 2)
        assert check_gluing(data).glues


def test_gluing_p2_failure_witness(p2):
    """The witness is the reference ray witness: cones 0 and 1 disagree on
    the ray through e2 at index 1, and the expanded transition between them
    carries an exponent that pairs negatively with that ray."""
    data = gl1_p2([(0, 1), (0, 0), (0, 0)], p2)
    report = check_gluing(data)
    assert not report.glues
    assert report.witness == reference_ray_witness(data) == {"cones": [0, 1], "ray": 1,
                                                             "index": 1}
    assert transition_breaks_on_ray(data, report.witness)


def test_gluing_perp_difference_glues(p2):
    # character difference (1,0) lies in the perp of the shared ray e2
    pair = gl1_p2([(1, 0), (0, 0), (1, -1)], p2)
    assert check_gluing(pair).glues
    lm01 = transition(pair, 0, 1)
    assert set(e for _, e in laurent_exponents(lm01)) == {(1, 0)}


def test_gluing_matches_reference(p1, p2):
    # ray consistency against the expanded transitions: the same verdict, and
    # a failure carries the reference ray witness, across whose ray the
    # expanded transition between its two cones is not regular
    p3 = Fan.make(3, [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1]],
                  [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]])
    rng = random.Random(41)
    cases = []
    for i in range(300):
        fan, n = (p1, p2, p3)[i % 3], 1 + (i // 3) % 3
        if i % 4:
            cases.append(random_bundle(rng, fan, n))
            continue
        # split bundles glue; every second one gets one broken character
        data = random_split_bundle(rng, fan, n)
        chars = [list(cone_chars) for cone_chars in data.chars]
        if i % 8 == 0:
            k, c = rng.randrange(len(chars)), rng.randrange(n)
            chars[k][c] = tuple(x + rng.choice([-1, 1]) for x in chars[k][c])
        cases.append(CocharBundleData.make(data.group, fan, data.frames, chars))
    verdicts = {True: 0, False: 0}
    for data in cases:
        got, want = check_gluing(data), reference_gluing(data)
        verdicts[got.glues] += 1
        assert got.glues == want.glues
        if got.glues:
            continue
        assert got.witness == reference_ray_witness(data)
        assert transition_breaks_on_ray(data, got.witness)
    assert min(verdicts.values()) >= 50


# cones {(1,0), (0,1)} and {(1,1), (-1,1)} overlap in their interiors, and
# neither extreme ray of the overlap, (0,1) or (1,1), is listed by both
OVERLAPPING = Fan.make(2, [[1, 0], [0, 1], [1, 1], [-1, 1]], [[0, 1], [2, 3]])
# the P^2 fan with the ray (1, 1) listed by no maximal cone
UNUSED_RAY = Fan.make(2, [[1, 0], [0, 1], [-1, -1], [1, 1]], [[0, 1], [1, 2], [0, 2]])


def _seeded_gluing_cases(p1, p2):
    """Glued and broken bundles on P^1, P^2, the 4-cone P^3 fan, the
    overlapping fan and the fan with an unused ray, keyed by fan name."""
    rng = random.Random(53)
    cases = {name: [] for name in ("p1", "p2", "p3", "overlapping", "unused_ray")}
    for i in range(60):
        n = 1 + i % 3
        for name, fan in (("p1", p1), ("p2", p2), ("p3", P3), ("unused_ray", UNUSED_RAY)):
            data = random_split_bundle(rng, fan, n)
            chars = [list(cone_chars) for cone_chars in data.chars]
            if i % 2:
                k, c = rng.randrange(len(chars)), rng.randrange(n)
                chars[k][c] = tuple(x + rng.choice([-1, 1]) for x in chars[k][c])
            cases[name].append(CocharBundleData.make(data.group, fan, data.frames, chars))
            cases[name].append(random_bundle(rng, fan, n))
        # equal charts glue on any fan; random ones rarely do
        same = random_bundle(rng, OVERLAPPING, n)
        cases["overlapping"] += [
            CocharBundleData.make(same.group, OVERLAPPING, same.frames[:1] * 2,
                                  same.chars[:1] * 2),
            random_bundle(rng, OVERLAPPING, n)]
    return cases


def test_gluing_equals_frame_change_scan(p1, p2):
    """Deciding by ray consistency gives the verdict of the frame-change
    scan and of the expanded transitions on P^1, P^2, the P^3 fan and the
    fan with a ray in no maximal cone, which gluing skips; data that does
    not glue carries the reference ray witness, across whose ray the
    expanded transition between its two cones is not regular.  On the
    overlapping fan the chains on listed rays always agree, and
    `check_gluing` refuses the fan."""
    cases = _seeded_gluing_cases(p1, p2)
    for name, group in cases.items():
        if name == "overlapping":
            continue
        verdicts = {True: 0, False: 0}
        for data in group:
            report = check_gluing(data)
            assert (report.glues == reference_frame_change_scan(data).glues
                    == reference_gluing(data).glues), (name, data)
            if not report.glues:
                assert report.witness == reference_ray_witness(data), (name, data)
                assert transition_breaks_on_ray(data, report.witness), (name, data)
            verdicts[report.glues] += 1
        # on P^1 the overlap is the origin, so everything glues
        assert verdicts[True] >= 30 and (name == "p1" or verdicts[False] >= 30), name
    for data in cases["overlapping"]:
        associated_klyachko(data)
        with pytest.raises(PreconditionError, match="not the rays both list"):
            check_gluing(data)
    with pytest.raises(InputError, match="lies in no maximal cone"):
        associated_klyachko(cases["unused_ray"][0])


def test_glued_data_on_a_valid_fan_solves_nothing(p1, p2):
    """The fan's gluing preconditions are decided once per fan value: after
    the cache is cleared, the first check on a fan asks each pair of maximal
    cones for its overlap once, and bundle data on an equal fan ask none."""
    rng = random.Random(59)

    def overlaps_asked(data):
        before = cone_intersection.cache_info()
        assert check_gluing(data).glues
        after = cone_intersection.cache_info()
        return (after.hits + after.misses) - (before.hits + before.misses)

    for fan in (p1, p2, P3):
        pairs = len(fan.maximal_cones) * (len(fan.maximal_cones) - 1) // 2
        bundles._gluing_refusals.cache_clear()
        assert overlaps_asked(random_split_bundle(rng, fan, 1)) == pairs
        for n in (1, 2, 3):
            equal = Fan.make(fan.rank, fan.rays, fan.maximal_cones)
            assert overlaps_asked(random_split_bundle(rng, equal, n)) == 0


def test_gluing_refuses_overlapping_fan():
    """On a fan where an overlap has extreme rays that not both cones list,
    ray consistency cannot see the overlap, so `check_gluing` raises
    PreconditionError, for data whose charts agree as for any other."""
    rng = random.Random(43)
    for n in (1, 2, 3):
        data = random_bundle(rng, OVERLAPPING, n)
        same = CocharBundleData.make(data.group, OVERLAPPING, data.frames[:1] * 2,
                                     data.chars[:1] * 2)
        for case in (data, same):
            with pytest.raises(PreconditionError, match="cones 0 and 1"):
                check_gluing(case)


def test_gluing_refusals_keep_their_order():
    """The fan's refusals are decided once per fan value but raised in the
    order of the checks: a cone that is not top-dimensional before a
    singular frame, and a singular frame before an overlap whose extreme
    rays not both cones list; a repeated check and an equal fan raise the
    same."""
    singular = QMatrix.from_rows([[1, 1], [1, 1]])
    lines = Fan.make(2, [[1, 0], [-1, 0]], [[0], [1]])
    for _ in range(2):
        for fan in (lines, Fan.make(2, lines.rays, lines.maximal_cones)):
            data = CocharBundleData.make(GroupSpec("GL", 2), fan, [singular, I2],
                                         [[(0, 0), (0, 0)]] * 2)
            with pytest.raises(PreconditionError, match="maximal cone 0 is not top-dimensional"):
                check_gluing(data)
        for frames, error, text in (([singular, I2], ValueError, "^matrix is singular$"),
                                    ([I2, I2], PreconditionError, "cones 0 and 1")):
            data = CocharBundleData.make(GroupSpec("GL", 2), OVERLAPPING, frames,
                                         [[(0, 0), (0, 0)]] * 2)
            with pytest.raises(error, match=text):
                check_gluing(data)


def test_transition_matches_frames_at_points(p2):
    # the expanded Laurent transition equals g_s D_s g_s^-1 g_t D_t^-1 g_t^-1
    # exactly at rational torus points, for every ordered pair of charts
    rng = random.Random(17)
    bundles = [gl1_p2([(1, 0), (0, 0), (1, -1)], p2)]
    bundles += [random_bundle(rng, p2, 3) for _ in range(10)]
    for data in bundles:
        for s in range(3):
            for t in range(3):
                lm = transition(data, s, t)
                for _ in range(2):
                    z = random_torus_point(rng, 2)
                    assert evaluate_laurent(lm, z) == transition_at(data, s, t, z)


def test_transition_self_is_identity(p2):
    rng = random.Random(2)
    data = random_bundle(rng, p2, 2)
    for k in range(3):
        assert transition(data, k, k) == laurent_identity(2, 2)


def test_assoc_trivial(p2):
    data = gl1_p2([(0, 0), (0, 0), (0, 0)], p2)
    assert associated_klyachko(data) == FiltrationData.trivial(p2, 1)


def test_assoc_gl1_line_jumps(p1):
    # chains jump at the pairing of the character with the primitive ray
    # generator: a on ray (1), -b on ray (-1)
    data = CocharBundleData.make(GroupSpec("GL", 1), p1, [I1, I1], [[(3,)], [(-2,)]])
    kly = associated_klyachko(data)
    assert kly.filtrations[0].jump_indices() == (3,)
    assert kly.filtrations[1].jump_indices() == (2,)


def test_assoc_failure_names_shared_ray(p2):
    data = gl1_p2([(0, 1), (0, 0), (0, 0)], p2)
    with pytest.raises(RayConsistencyError) as err:
        associated_klyachko(data)
    assert err.value.witness["ray"] == 1  # the ray through e2


def test_assoc_failure_raises_on_every_call(p2):
    """The obstruction is kept on the data: each call raises it again,
    with the same witness."""
    data = gl1_p2([(0, 1), (0, 0), (0, 0)], p2)
    for _ in range(3):
        with pytest.raises(RayConsistencyError) as err:
            associated_klyachko(data)
        assert err.value.witness == {"cones": [0, 1], "ray": 1, "index": 1}


def test_assoc_failure_is_not_rebuilt(p2, monkeypatch):
    """Once `check_gluing` has met the obstruction, later calls of
    `associated_klyachko` on the same data build no chain; equal data that
    is a new instance builds its own."""
    data = gl1_p2([(0, 1), (0, 0), (0, 0)], p2)
    built = []
    chain_from_cone = bundles._chain_from_cone

    def spy(*args):
        built.append(args[1:])
        return chain_from_cone(*args)

    monkeypatch.setattr(bundles, "_chain_from_cone", spy)
    assert not check_gluing(data).glues
    first = len(built)
    assert first > 0
    for _ in range(2):
        with pytest.raises(RayConsistencyError) as err:
            associated_klyachko(data)
        assert err.value.witness == {"cones": [0, 1], "ray": 1, "index": 1}
    assert len(built) == first
    with pytest.raises(RayConsistencyError):
        associated_klyachko(gl1_p2([(0, 1), (0, 0), (0, 0)], p2))
    assert len(built) == 2 * first


def test_assoc_witness_matches_reference(p1, p2):
    """On the seeded glued and broken bundles of P^1, P^2 and the P^3 fan,
    `RayConsistencyError` carries the witness of the reference, which spans
    both chains of every incidence level by level and diffs them; data that
    the reference finds consistent raises nothing."""
    cases = _seeded_gluing_cases(p1, p2)
    broken = {}
    for name in ("p1", "p2", "p3"):
        for data in cases[name]:
            try:
                associated_klyachko(data)
                got = None
            except RayConsistencyError as err:
                got = err.witness
            assert got == reference_ray_witness(data), (name, data)
            broken[name] = broken.get(name, 0) + (got is not None)
    assert broken["p1"] == 0 and broken["p2"] >= 30 and broken["p3"] >= 30


def test_assoc_builds_one_chain_per_ray(p1, p2, monkeypatch):
    """Each ray's chain is built once, from the first cone that lists it;
    the other cones on the ray are tested against it with no chain of their
    own, and on glued data each of them induces that chain."""
    built = []
    chain_from_cone = bundles._chain_from_cone

    def spy(data, k, ray_idx):
        built.append(ray_idx)
        return chain_from_cone(data, k, ray_idx)

    monkeypatch.setattr(bundles, "_chain_from_cone", spy)
    rng = random.Random(67)
    for fan in (p1, p2, P3):
        for n in (1, 2, 3):
            data = random_split_bundle(rng, fan, n)
            built.clear()
            kly = associated_klyachko(data)
            assert sorted(built) == list(range(len(fan.rays)))
            for k, idx in enumerate(fan.maximal_cones):
                for i in idx:
                    assert chain_from_cone(data, k, i) == kly.ray(i)


def test_assoc_rejects_singular_frame(p2):
    """The frame lines are a direct sum of the fiber only for an invertible
    frame, so a singular frame on any cone raises the error of
    `check_gluing`, not a ray-consistency witness."""
    singular = QMatrix.from_rows([[1, 1], [1, 1]])
    for k in range(3):
        frames = [I2, I2, I2]
        frames[k] = singular
        data = CocharBundleData.make(GroupSpec("GL", 2), p2, frames, [[(0, 0), (0, 0)]] * 3)
        with pytest.raises(ValueError, match="^matrix is singular$") as err:
            associated_klyachko(data)
        assert type(err.value) is ValueError


def test_assoc_matches_tangent_data(tangent_p2_bundle, tangent_p2):
    assert associated_klyachko(tangent_p2_bundle) == tangent_p2


def test_canonical_cone_decomposition_verifies(tangent_p2_bundle, tangent_p2):
    for k in range(3):
        dec = canonical_cone_decomposition(tangent_p2_bundle, k)
        idx = tangent_p2_bundle.fan.maximal_cones[k]
        assert verify_cone_decomposition(tangent_p2, idx, dec) is None


def test_canonical_decomposition_merges_classes_on_a_lower_cone():
    """On a maximal cone that is not top-dimensional, characters that differ
    by the cone's perpendicular lattice share a class: their frame columns
    form one piece, keyed by the class's canonical representative."""
    fan = Fan.make(2, [[1, 0]], [[0]])
    frame = QMatrix.from_rows([[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    data = CocharBundleData.make(GroupSpec("GL", 3), fan, [frame],
                                 [[(1, 0), (0, 2), (1, 3)]])
    quotient = fan.maximal_cone(0).quotient()
    rep = quotient.canonical_representative((1, 3))
    assert rep == quotient.canonical_representative((1, 0))
    dec = canonical_cone_decomposition(data, 0)
    assert [(char, piece.dim) for char, piece in dec.pieces] == sorted(
        [(rep, 2), (quotient.canonical_representative((0, 2)), 1)])
    assert verify_cone_decomposition(associated_klyachko(data), (0,), dec) is None


def test_determinant_data_sums(p1):
    data = CocharBundleData.make(
        GroupSpec("GL", 2), p1, [I2, I2],
        [[(1,), (0,)], [(0,), (1,)]],
    )
    det = determinant_data(data)
    assert det.chars[0][0] == (1,)
    assert det.chars[1][0] == (1,)
    assert det.group == GroupSpec("GL", 1)


def test_determinant_of_sl_valid_data_is_trivial(p1):
    data = CocharBundleData.make(
        GroupSpec("GL", 2), p1, [I2, I2],
        [[(1,), (-1,)], [(2,), (-2,)]],
    )
    det = determinant_data(data)
    assert all(all(x == 0 for x in u[0]) for u in det.chars)


def test_determinant_matches_tensor_of_lines(p1):
    """Determinant of diagonal rank-two data equals the tensor product of its
    two line summands (compared through the associated filtration data)."""
    data = CocharBundleData.make(
        GroupSpec("GL", 2), p1, [I2, I2],
        [[(2,), (-1,)], [(0,), (3,)]],
    )
    line1 = CocharBundleData.make(GroupSpec("GL", 1), p1, [I1, I1], [[(2,)], [(0,)]])
    line2 = CocharBundleData.make(GroupSpec("GL", 1), p1, [I1, I1], [[(-1,)], [(3,)]])
    det_kly = associated_klyachko(determinant_data(data))
    prod_kly = tensor(associated_klyachko(line1), associated_klyachko(line2))
    assert det_kly == prod_kly


def test_gauge_invariance_permutation(p2):
    rng = random.Random(12)
    data = random_bundle(rng, p2, 3)
    # permute columns of one frame together with its characters
    perm = [2, 0, 1]
    g = data.frames[0]
    frames = list(data.frames)
    frames[0] = QMatrix.from_rows(
        [[g.entries[i][perm[j]] for j in range(3)] for i in range(3)]
    )
    chars = list(data.chars)
    chars[0] = tuple(data.chars[0][perm[j]] for j in range(3))
    gauged = CocharBundleData.make(data.group, p2, frames, chars)
    for t in range(3):
        assert transition(data, 0, t) == transition(gauged, 0, t)
        assert transition(data, t, 0) == transition(gauged, t, 0)
    assert check_gluing(data).glues == check_gluing(gauged).glues


def test_gauge_invariance_commuting_factor(p2):
    rng = random.Random(13)
    data = random_bundle(rng, p2, 2)
    # an invertible diagonal matrix commutes with every character diagonal
    d = QMatrix.from_rows([[2, 0], [0, -3]])
    frames = list(data.frames)
    frames[1] = reference_product(frames[1], d)
    gauged = CocharBundleData.make(data.group, p2, frames, data.chars)
    for s in range(3):
        for t in range(3):
            assert transition(data, s, t) == transition(gauged, s, t)


def test_gauge_invariance_of_associated_chains(p2):
    rng = random.Random(19)
    data = random_split_bundle(rng, p2, 3)
    kly = associated_klyachko(data)
    # permutation gauge on every cone
    perm = [1, 2, 0]
    frames = [
        QMatrix.from_rows([[g.entries[i][perm[j]] for j in range(3)] for i in range(3)])
        for g in data.frames
    ]
    chars = [tuple(cone_chars[perm[j]] for j in range(3)) for cone_chars in data.chars]
    assert associated_klyachko(
        CocharBundleData.make(data.group, p2, frames, chars)
    ) == kly
    # diagonal commuting gauge
    d = QMatrix.from_rows([[5, 0, 0], [0, 1, 0], [0, 0, -2]])
    assert associated_klyachko(
        CocharBundleData.make(data.group, p2, [reference_product(f, d) for f in data.frames], data.chars)
    ) == kly


def test_dual_convention_calibration(p2):
    """Associated data of inverse cocharacters in transpose-inverse frames is
    the dual of the associated data."""
    rng = random.Random(21)

    for _ in range(6):
        data = random_split_bundle(rng, p2, 2)
        inv_frames = [transpose(reference_inverse(f)) for f in data.frames]
        inv_chars = [
            tuple(tuple(-x for x in u) for u in cone_chars)
            for cone_chars in data.chars
        ]
        flipped = CocharBundleData.make(data.group, p2, inv_frames, inv_chars)
        assert associated_klyachko(flipped) == dual(associated_klyachko(data))


def test_bundle_round_trip(p2):
    rng = random.Random(6)
    data = random_bundle(rng, p2, 2)
    assert bundle_from_obj(bundle_to_obj(data)) == data


def test_gluing_requires_top_dimensional_cones():
    from toricfilt.errors import PreconditionError
    from toricfilt.fans import Fan

    fan = Fan.make(2, [[1, 0], [-1, 0]], [[0], [1]])  # valid, but dim-1 cones
    data = CocharBundleData.make(GroupSpec("GL", 1), fan, [I1, I1],
                                 [[(0, 0)], [(0, 0)]])
    with pytest.raises(PreconditionError):
        check_gluing(data)


def test_malformed_bundle_inputs(p1):
    with pytest.raises(InputError):
        CocharBundleData.make(GroupSpec("GL", 1), p1, [I1], [[(0,)]])
    # one frame too many, with one character tuple per maximal cone
    with pytest.raises(InputError, match="one frame and one character tuple"):
        CocharBundleData.make(GroupSpec("GL", 1), p1, [I1, I1, I1], [[(0,)], [(0,)]])
    with pytest.raises(InputError):
        CocharBundleData.make(GroupSpec("GL", 1), p1, [I1, I1], [[(0, 0)], [(0,)]])
    with pytest.raises(InputError):
        GroupSpec("SO", 3)
