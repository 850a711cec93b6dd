"""Acceptance suite.  Each criterion prints one PASS/FAIL line; run with
`pytest tests/test_acceptance.py -v -s` to see them as they complete."""

import itertools
import random
import time

from builders import identity, random_split_bundle, square_cone_fan
from oracle import (
    evaluate_laurent,
    exhaustive_adapted_search,
    generator,
    random_torus_point,
    reference_coaction_commutes,
    reference_frame_change_scan,
    reference_multiplicative,
    tensor_certificate,
    transition,
    transition_at,
    weight_table,
)
from toricfilt.algebras import (
    build_truncation,
    check_coaction_commutes,
    check_compatible_algebra,
    check_multiplicative,
)
from toricfilt.bundles import (
    CocharBundleData,
    GroupSpec,
    RayConsistencyError,
    associated_klyachko,
    check_gluing,
)
from toricfilt.compatibility import (
    VERDICT_CERTIFICATE,
    VERDICT_REFUTATION,
    cone_compatibility,
    global_compatibility,
    verify_cone_decomposition,
)
from toricfilt.fans import Fan, cone_intersection
from toricfilt.filtrations import dual, tensor
from toricfilt.linalg import QMatrix, intersect, span_canonical, subspace_sum
from toricfilt.reduction import (
    SL_REDUCES,
    TORUS_NONE,
    TORUS_REDUCES,
    check_sl_reduction,
    check_torus_reduction,
)
from toricfilt.sampling import (
    p1_fan,
    p2_fan,
    random_bundle,
    random_filtration_data,
    random_invertible_matrix,
    random_subspace,
)
from toricfilt.serialize import (
    bundle_from_obj,
    bundle_to_obj,
    filtration_from_obj,
    filtration_to_obj,
)


def _announce(number, name, body):
    try:
        body()
    except BaseException:
        print(f"ACCEPTANCE {number} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {number} {name}: PASS")


def test_criterion_1_equivalence_of_verdicts():
    def body():
        start = time.time()
        rng = random.Random(20101)
        fans = [p1_fan(), p2_fan()]
        glued = 0
        for i in range(220):
            fan = fans[i % 2]
            n = 2 if i % 3 else 3
            data = random_bundle(rng, fan, n)  # chars in [-3,3], frames in [-2,2]
            glues = check_gluing(data).glues
            try:
                kly = associated_klyachko(data)
                consistent = True
            except RayConsistencyError:
                consistent = False
            # check_gluing is decided by ray consistency; the scan is the
            # independent side of the equivalence
            assert glues == consistent == reference_frame_change_scan(data).glues
            if glues:
                glued += 1
                assert global_compatibility(kly).verdict == "compatible"
        # extra coverage: instances that glue on the P2 fan as well
        for _ in range(30):
            n = rng.choice([2, 3])
            data = random_split_bundle(rng, p2_fan(), n)
            assert check_gluing(data).glues
            kly = associated_klyachko(data)
            assert global_compatibility(kly).verdict == "compatible"
        elapsed = time.time() - start
        assert glued >= 50  # the agreeing-positive branch was exercised
        assert elapsed < 60.0, f"runtime budget exceeded: {elapsed:.1f}s"

    _announce(1, "equivalence of gluing / ray-consistency / compatibility", body)


def test_criterion_2_tensor_formula():
    def body():
        rng = random.Random(20102)
        fans = [p1_fan(), p2_fan()]
        for i in range(100):
            fan = fans[i % 2]
            na, nb = (2, 3) if i % 5 == 0 else (2, 2)
            a = associated_klyachko(random_split_bundle(rng, fan, na))
            b = associated_klyachko(random_split_bundle(rng, fan, nb))
            t = tensor(a, b)
            rep_a = global_compatibility(a)
            rep_b = global_compatibility(b)
            assert rep_a.verdict == rep_b.verdict == "compatible"
            for k, idx in enumerate(fan.maximal_cones):
                merged = tensor_certificate(
                    rep_a.cones[k].certificate,
                    rep_b.cones[k].certificate,
                    fan.cone(idx).quotient(),
                )
                # exact equality of every chain against the merged certificate
                assert verify_cone_decomposition(t, idx, merged) is None

    _announce(2, "tensor filtration equals merged-certificate reconstruction", body)


def test_criterion_3_checker_vs_oracle(four_lines, tangent_p2):
    def body():
        # named fixtures first
        res = cone_compatibility(four_lines, (0, 1, 2, 3))
        assert res.verdict == VERDICT_REFUTATION
        assert exhaustive_adapted_search(four_lines, (0, 1, 2, 3)) is None
        for idx in tangent_p2.fan.maximal_cones:
            assert cone_compatibility(tangent_p2, idx).verdict == VERDICT_CERTIFICATE

        cones = [
            (Fan.make(2, [[1, 0]], [[0]]), (0,)),
            (Fan.make(2, [[1, 0], [0, 1]], [[0, 1]]), (0, 1)),
            (Fan.make(2, [[1, 1], [1, -1]], [[0, 1]]), (0, 1)),
            (Fan.make(3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[0, 1, 2]]), (0, 1, 2)),
            (square_cone_fan(), (0, 1, 2, 3)),
        ]
        rng = random.Random(20103)
        verdicts = {VERDICT_CERTIFICATE: 0, VERDICT_REFUTATION: 0}
        for _ in range(15):
            for fan, idx in cones:
                dim = rng.randint(1, 3)
                data = random_filtration_data(rng, fan, dim, index_lo=-1, index_hi=1)
                res = cone_compatibility(data, idx)
                oracle = exhaustive_adapted_search(data, idx)
                verdicts[res.verdict] += 1
                assert (res.verdict == VERDICT_CERTIFICATE) == (oracle is not None)
        assert min(verdicts.values()) > 0  # both outcomes exercised

    _announce(3, "two-valued checker matches exhaustive search", body)


def test_criterion_4_gluing_micro_criterion():
    def body():
        fan = p2_fan()
        ident = identity(1)
        grp = GroupSpec("GL", 1)
        pairs = [(0, 1), (0, 2), (1, 2)]
        overlaps = {
            p: cone_intersection(fan.maximal_cone(p[0]), fan.maximal_cone(p[1]))
            for p in pairs
        }
        box = list(itertools.product(range(-2, 3), repeat=2))
        for u0 in box:
            for u1 in box:
                for u2 in box:
                    us = [u0, u1, u2]
                    data = CocharBundleData.make(
                        grp, fan, [ident] * 3, [[u] for u in us]
                    )
                    glues = check_gluing(data).glues
                    # independent micro-criterion: character differences must
                    # pair to zero on every overlap generator
                    micro = all(
                        all(
                            sum((us[s][j] - us[t][j]) * g[j] for j in range(2)) == 0
                            for g in overlaps[(s, t)].generators
                        )
                        for s, t in pairs
                    )
                    assert glues == micro, (us, glues, micro)

    _announce(4, "diagonal GL(1) gluing iff differences in overlap perp", body)


def test_criterion_5_filtered_algebra_axioms():
    def body():
        start = time.time()
        rng = random.Random(20105)
        fans = [p1_fan(), p2_fan()]
        for i in range(50):
            fan = fans[i % 2]
            data = random_bundle(rng, fan, 2)
            for k in range(len(fan.maximal_cones)):
                alg = build_truncation(data, k, 3)
                assert check_multiplicative(alg)[0]
                ok, _, dims = check_compatible_algebra(alg)
                assert ok and sum(dims.values()) == len(alg.basis)
                assert check_coaction_commutes(alg)[0]

        # negative controls
        fan = p2_fan()
        chars = [[(1, 0), (0, 0)]] * 3
        data = CocharBundleData.make(GroupSpec("GL", 2), fan,
                                     [identity(2)] * 3, chars)
        alg = build_truncation(data, 0, 3)
        flipped = weight_table(alg)
        gen = generator(alg, 0, 0)
        flipped[gen] = tuple(-w for w in flipped[gen])
        assert not reference_multiplicative(alg, flipped)[0]

        column = {}
        for m in alg.basis:
            w = [0, 0]
            for g, e in enumerate(m):
                j = g % 2
                for t in range(2):
                    w[t] -= e * chars[0][j][t]
            column[m] = tuple(w)
        assert not reference_coaction_commutes(alg, column)[0]

        elapsed = time.time() - start
        assert elapsed < 120.0, f"runtime budget exceeded: {elapsed:.1f}s"

    _announce(5, "filtered-algebra axioms with negative controls", body)


def test_criterion_6_reduction(tangent_p2_bundle):
    def body():
        rng = random.Random(20106)
        fans = [p1_fan(), p2_fan()]
        accepted = rejected = 0
        for i in range(500):
            fan = fans[i % 2]
            n = 2 if i % 3 else 3
            if i % 2 == 0:
                # force zero character sums
                chars = []
                for _ in fan.maximal_cones:
                    cone_chars = [
                        tuple(rng.randint(-3, 3) for _ in range(fan.rank))
                        for _ in range(n - 1)
                    ]
                    last = tuple(-sum(u[j] for u in cone_chars) for j in range(fan.rank))
                    chars.append(cone_chars + [last])
            else:
                chars = [
                    [tuple(rng.randint(-3, 3) for _ in range(fan.rank))
                     for _ in range(n)]
                    for _ in fan.maximal_cones
                ]
            frames = [random_invertible_matrix(rng, n) for _ in fan.maximal_cones]
            data = CocharBundleData.make(GroupSpec("GL", n), fan, frames, chars)
            should_reduce = all(
                all(sum(u[j] for u in cone_chars) == 0 for j in range(fan.rank))
                for cone_chars in chars
            )
            res = check_sl_reduction(data)
            assert (res.verdict == SL_REDUCES) == should_reduce
            if should_reduce:
                accepted += 1
                assert all(f.det() == 1 for f in res.sl_presentation.frames)
            else:
                rejected += 1
        assert accepted >= 200 and rejected >= 200

        # torus reduction: common-frame instances produce verified splittings
        for _ in range(12):
            fan = p2_fan()
            data = random_split_bundle(rng, fan, 2,
                                       frame=random_invertible_matrix(rng, 2))
            res = check_torus_reduction(data)
            assert res.verdict == TORUS_REDUCES
            kly = associated_klyachko(data)
            for ray_idx, chain in enumerate(kly.filtrations):
                for i, expected in chain.jumps:
                    got = span_canonical(
                        [list(l) for l, lv in zip(res.lines, res.line_levels)
                         if lv[ray_idx] >= i],
                        2,
                    )
                    assert got == expected

        assert check_torus_reduction(tangent_p2_bundle).verdict == TORUS_NONE

    _announce(6, "SL criterion exact on 500 instances; torus splittings verified", body)


def test_criterion_7_exact_arithmetic_hygiene():
    def body():
        rng = random.Random(20107)
        # dimension formula, zero tolerance
        for _ in range(100):
            dim = rng.randint(1, 5)
            a = random_subspace(rng, dim, rng.randint(0, dim))
            b = random_subspace(rng, dim, rng.randint(0, dim))
            assert a.dim + b.dim == subspace_sum(a, b).dim + intersect(a, b).dim
        # dual involution
        for _ in range(30):
            fan = p2_fan() if rng.random() < 0.5 else p1_fan()
            data = random_filtration_data(rng, fan, rng.randint(1, 3))
            assert dual(dual(data)) == data
        # expanded transitions equal the factored frame form at torus
        # points, drawn from their own stream so `rng` is left as it was
        points = random.Random(7)
        for _ in range(20):
            fan = p2_fan() if rng.random() < 0.5 else p1_fan()
            data = random_bundle(rng, fan, rng.choice([1, 2, 3]))
            ncones = len(fan.maximal_cones)
            for s, t in itertools.product(range(ncones), repeat=2):
                z = random_torus_point(points, fan.rank)
                assert evaluate_laurent(transition(data, s, t), z) == transition_at(data, s, t, z)
        # canonical serialization round-trips
        for _ in range(25):
            fan = p2_fan()
            fdata = random_filtration_data(rng, fan, rng.randint(1, 3))
            assert filtration_from_obj(filtration_to_obj(fdata)) == fdata
            bdata = random_bundle(rng, fan, 2)
            assert bundle_from_obj(bundle_to_obj(bdata)) == bdata

    _announce(7, "dimension formula / dual involution / transitions / round-trips", body)
