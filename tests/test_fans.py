import itertools
import random

import pytest

from builders import square_cone_fan
from oracle import (
    reference_canonical_representative,
    reference_class_index,
    reference_cone,
    reference_dual_description,
    reference_inverse,
    reference_is_face_of,
    reference_rref,
)
from toricfilt.errors import InputError
from toricfilt.fans import (
    CONE_CACHE_SIZE,
    CharQuotient,
    Fan,
    NotPointedError,
    cone_from_generators,
    cone_intersection,
    dual_description,
    is_face_of,
    validate_fan,
)
from toricfilt.lattice import smith_normal_form
from toricfilt.linalg import QMatrix
from toricfilt.sampling import p1_fan, p2_fan


def test_p1_fan_valid(p1):
    report = validate_fan(p1)
    assert report.valid and report.top_dimensional
    assert report.issues == ()


def test_p2_fan_valid(p2):
    report = validate_fan(p2)
    assert report.valid and report.top_dimensional


def test_non_primitive_ray_rejected():
    fan = Fan.make(2, [[2, 0]], [[0]])
    report = validate_fan(fan)
    assert not report.valid
    assert any(i["kind"] == "non_primitive_ray" for i in report.issues)


def test_duplicate_ray_flagged():
    fan = Fan.make(1, [[1], [1]], [[0], [1]])
    assert any(i["kind"] == "duplicate_ray" for i in validate_fan(fan).issues)


def test_interior_ray_breaks_face_condition():
    # the ray through (1,1) meets the interior of cone<e1,e2>: not a face
    fan = Fan.make(2, [[1, 0], [0, 1], [1, 1]], [[0, 1], [2]])
    report = validate_fan(fan)
    assert not report.valid
    assert any(i["kind"] == "intersection_not_a_face" for i in report.issues)


def test_non_pointed_cone_flagged():
    fan = Fan.make(1, [[1], [-1]], [[0, 1]])
    report = validate_fan(fan)
    assert not report.valid
    assert any(i["kind"] == "not_pointed" for i in report.issues)


def test_not_top_dimensional_reported():
    fan = Fan.make(2, [[1, 0]], [[0]])
    report = validate_fan(fan)
    assert report.valid
    assert not report.top_dimensional


def test_top_dimension_decided_on_unclean_rays():
    # a bad ray stops the geometric checks, and a cone that is not pointed
    # has no extreme rays, but top dimensionality is still read off the span
    # of each maximal cone's listed rays
    report = validate_fan(Fan.make(2, [[2, 0], [0, 1]], [[0, 1]]))
    assert not report.valid and report.top_dimensional
    assert report.issues == ({"kind": "non_primitive_ray", "ray": 0, "vector": [2, 0]},)
    report = validate_fan(Fan.make(2, [[0, 0], [1, 0]], [[0, 1]]))
    assert not report.valid and not report.top_dimensional
    assert report.issues == ({"kind": "zero_ray", "ray": 0},
                             {"kind": "not_top_dimensional", "cone": 0, "dim": 1})
    report = validate_fan(Fan.make(2, [[1, 0], [-1, 0]], [[0, 1]]))
    assert not report.valid and not report.top_dimensional
    assert report.issues == ({"kind": "not_pointed", "cone": 0},
                             {"kind": "not_top_dimensional", "cone": 0, "dim": 1})
    report = validate_fan(Fan.make(2, [[1, 0], [-1, 0], [0, 1]], [[0, 1, 2]]))
    assert not report.valid and report.top_dimensional
    assert report.issues == ({"kind": "not_pointed", "cone": 0},)


def test_square_cone_is_a_valid_nonsimplicial_cone(square_fan):
    report = validate_fan(square_fan)
    assert report.valid and report.top_dimensional
    cone = square_fan.maximal_cone(0)
    assert set(cone.generators) == set(square_fan.rays)
    assert cone.dim == 3
    assert len(cone.generators) == 4  # more rays than the dimension


def test_cone_intersection_adjacent_p2(p2):
    a = p2.cone([0, 1])
    b = p2.cone([1, 2])
    inter = cone_intersection(a, b)
    assert inter.generators == ((0, 1),)
    # verify via both inequality systems: e2 satisfies every inequality
    assert a.contains((0, 1)) and b.contains((0, 1))


def test_cone_intersection_self(p2):
    c = p2.cone([0, 2])
    assert cone_intersection(c, c) == c


def test_cone_intersection_opposite_rays():
    a = cone_from_generators(1, ((1,),))
    b = cone_from_generators(1, ((-1,),))
    inter = cone_intersection(a, b)
    assert inter.dim == 0 and inter.generators == ()


def test_dual_membership_basics(p2):
    c = p2.cone([0, 1])
    assert c.dual_contains((1, 0))
    assert not c.dual_contains((-1, 0))
    assert c.dual_contains((0, 0))
    zero_cone = cone_from_generators(2, ())
    assert zero_cone.dual_contains((0, 0))
    assert zero_cone.dual_contains((5, -7))


def test_perp_and_quotient_single_ray():
    c = cone_from_generators(2, ((1, 0),))
    perp, quot = c.perp_basis, c.quotient()
    assert perp == ((0, 1),)
    assert quot.class_index((3, 5)) == quot.class_index((3, 9))
    assert quot.class_index((3, 5)) != quot.class_index((4, 5))
    rep = quot.canonical_representative((3, 5))
    assert quot.class_index(rep) == quot.class_index((3, 5))
    assert rep == quot.canonical_representative((3, 9))


def test_perp_top_dimensional_cone(p2):
    c = p2.cone([0, 1])
    perp, quot = c.perp_basis, c.quotient()
    assert perp == ()
    assert quot.canonical_representative((2, -3)) == (2, -3)


def random_unimodular(rng, rank):
    """A product of seeded elementary integer row operations, and its
    inverse."""
    rows = [[int(i == j) for j in range(rank)] for i in range(rank)]
    for _ in range(3 * rank):
        a, b = rng.sample(range(rank), 2) if rank > 1 else (0, 0)
        if a != b:
            k = rng.randint(-3, 3)
            rows[b] = [x + k * y for x, y in zip(rows[b], rows[a])]
        if rng.random() < 0.3:
            rows[a] = [-x for x in rows[a]]
    inverse = reference_inverse(QMatrix.from_rows(rows))
    return (tuple(map(tuple, rows)),
            tuple(tuple(int(x) for x in row) for row in inverse.entries))


def test_quotient_coordinates_match_reference_formula():
    """`class_index` and `canonical_representative` equal the entry-by-entry
    formula of the oracle on hand-built quotients (random unimodular v,
    every perp_dim from 0 to the rank) and on the quotient of every maximal
    cone and every ray of the sampling fans."""
    rng = random.Random(61)
    quotients = []
    for rank in range(1, 5):
        for perp_dim in range(rank + 1):
            for _ in range(3):
                v, v_inv = random_unimodular(rng, rank)
                quotients.append(CharQuotient(rank, perp_dim, v, v_inv))
    for fan in (p1_fan(), p2_fan(), square_cone_fan()):
        quotients += [fan.maximal_cone(k).quotient() for k in range(len(fan.maximal_cones))]
        quotients += [cone_from_generators(fan.rank, (ray,)).quotient() for ray in fan.rays]
    assert {q.perp_dim for q in quotients} == {0, 1, 2, 3, 4}
    for q in quotients:
        for _ in range(8):
            u = tuple(rng.randint(-9, 9) for _ in range(q.rank))
            assert q.class_index(u) == reference_class_index(q, u)
            rep = q.canonical_representative(u)
            assert rep == reference_canonical_representative(q, u)
            assert q.class_index(rep) == q.class_index(u)


P3 = Fan.make(3, [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1]],
              [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]])


def test_quotient_fields_match_oracle_on_every_face():
    """On every face of P^1, P^2, the 4-ray P^3 fan and the square cone, the
    quotient's v is the unimodular V of the Smith form of the face's
    perpendicular lattice, v_inv is its inverse from the oracle's own
    elimination (the package takes it from the integer solver), in ints,
    and `class_index` and `canonical_representative` equal the oracle's
    formula."""
    rng = random.Random(71)
    seen = set()
    for fan in (p1_fan(), p2_fan(), P3, square_cone_fan()):
        for idx in fan.maximal_cones:
            cone = fan.cone(idx)
            for size in range(len(idx) + 1):
                for sub in itertools.combinations(idx, size):
                    face = cone_from_generators(fan.rank, tuple(fan.rays[i] for i in sub))
                    if set(face.generators) != {fan.rays[i] for i in sub} \
                            or not is_face_of(face, cone):
                        continue
                    q = face.quotient()
                    seen.add(q.perp_dim)
                    if q.perp_dim:
                        assert q.v == smith_normal_form(face.perp_basis)[2]
                    inverse = reference_inverse(QMatrix.from_rows(q.v))
                    assert q.v_inv == tuple(tuple(int(x) for x in row) for row in inverse.entries)
                    assert all(type(x) is int for row in q.v_inv for x in row)
                    for _ in range(4):
                        u = tuple(rng.randint(-9, 9) for _ in range(fan.rank))
                        assert q.class_index(u) == reference_class_index(q, u)
                        assert (q.canonical_representative(u)
                                == reference_canonical_representative(q, u))
    assert seen == {0, 1, 2, 3}


def test_identity_quotient_matches_reference_formula():
    """Every maximal cone of a complete fan is full-dimensional, so its
    quotient is the identity and `class_index` and `canonical_representative`
    return a character as it is.  Both equal the oracle's entry-by-entry
    formula, values and types, on every maximal cone and every proper face
    of P^1, P^2, the 4-ray P^3 fan and the square cone, and on a hand-built
    quotient with perp_dim 0 whose unimodular v is not the identity.  A
    character one entry short raises IndexError and one entry long is cut
    to the rank, as the formula does."""
    rng = random.Random(67)
    cases = []
    for fan in (p1_fan(), p2_fan(), P3, square_cone_fan()):
        unit = tuple(tuple(int(i == j) for j in range(fan.rank)) for i in range(fan.rank))
        for idx in fan.maximal_cones:
            cone = fan.cone(idx)
            assert cone.quotient() == CharQuotient(fan.rank, 0, unit, unit)
            cases.append(cone.quotient())
            for size in range(len(idx)):
                for sub in itertools.combinations(idx, size):
                    face = cone_from_generators(fan.rank, tuple(fan.rays[i] for i in sub))
                    if set(face.generators) == {fan.rays[i] for i in sub} \
                            and is_face_of(face, cone):
                        assert face.quotient().perp_dim == fan.rank - len(sub)
                        cases.append(face.quotient())
    v, v_inv = random_unimodular(rng, 3)
    assert v != tuple(tuple(int(i == j) for j in range(3)) for i in range(3))
    cases.append(CharQuotient(3, 0, v, v_inv))
    assert len(cases) > 30
    for q in cases:
        for _ in range(6):
            u = tuple(rng.randint(-9, 9) for _ in range(q.rank))
            for w in (u, list(u), u + (rng.randint(-9, 9),)):
                for got, want in ((q.class_index(w), reference_class_index(q, w)),
                                  (q.canonical_representative(w),
                                   reference_canonical_representative(q, w))):
                    assert got == want
                    assert type(got) is tuple and all(type(x) is int for x in got)
            with pytest.raises(IndexError):
                reference_class_index(q, u[:-1])
            with pytest.raises(IndexError):
                q.class_index(u[:-1])
            with pytest.raises(IndexError):
                q.canonical_representative(u[:-1])


def test_perp_zero_cone():
    c = cone_from_generators(2, ())
    perp, quot = c.perp_basis, c.quotient()
    assert len(perp) == 2
    assert quot.class_index((1, 2)) == quot.class_index((-5, 7))
    assert quot.canonical_representative((1, 2)) == (0, 0)


def test_intersection_symmetric_and_consistent(p2, square_fan):
    cones = [p2.cone(idx) for idx in p2.maximal_cones]
    cones.append(square_fan.maximal_cone(0))
    for a, b in itertools.combinations(cones[:3], 2):
        ab = cone_intersection(a, b)
        ba = cone_intersection(b, a)
        assert ab == ba
        for g in ab.generators:
            assert a.contains(g) and b.contains(g)


def test_dim_plus_perp_dim(p2, square_fan):
    for fan in (p2, square_fan):
        for idx in fan.maximal_cones:
            for size in range(len(idx) + 1):
                for sub in itertools.combinations(idx, size):
                    c = fan.cone(sub)
                    assert c.dim + len(c.perp_basis) == fan.rank


def test_invertible_monomials_iff_perp(p2):
    c = p2.cone([0, 1])
    for u in itertools.product(range(-2, 3), repeat=2):
        both = c.dual_contains(u) and c.dual_contains(tuple(-x for x in u))
        in_perp = all(
            sum(a * b for a, b in zip(u, g)) == 0 for g in c.generators
        )
        assert both == in_perp


def test_face_relation(p2):
    big = p2.cone([0, 1])
    edge = p2.cone([0])
    assert is_face_of(edge, big)
    assert not is_face_of(cone_from_generators(2, ((1, 1),)), big)


def test_face_relation_matches_double_description():
    """`is_face_of` compares extreme rays; the reference computes the face cut
    out by the tight covectors with a double description pass."""
    from toricfilt.lattice import primitive_vector

    rng = random.Random(5)
    checked = faces = 0
    for _ in range(6):
        gens = {primitive_vector((rng.randint(-3, 3), rng.randint(-3, 3), rng.randint(1, 3)))
                for _ in range(5)}
        cone = cone_from_generators(3, tuple(sorted(gens)))
        for size in range(len(cone.generators) + 1):
            for sub in itertools.combinations(cone.generators, size):
                face = cone_from_generators(3, sub)
                expected = reference_is_face_of(face, cone)
                assert is_face_of(face, cone) == expected
                checked += 1
                faces += expected
    assert 0 < faces < checked


def _random_gens(rng, rank, pointed):
    """Nonzero integer vectors; with `pointed` every one has a positive last
    entry, otherwise a vector and its negative are sometimes both present."""
    gens = []
    for _ in range(rng.randint(1, 6)):
        g = [rng.randint(-2, 2) for _ in range(rank)]
        if pointed:
            g[-1] = rng.randint(1, 2)
        elif not any(g):
            g[rng.randrange(rank)] = 1
        gens.append(tuple(g))
    if not pointed and rng.random() < 0.3:
        gens.append(tuple(-x for x in rng.choice(gens)))
    return tuple(gens)


def _cone_or_line(build, rank, gens):
    try:
        return build(rank, gens)
    except NotPointedError:
        return "not pointed"


def test_extreme_rays_match_second_double_description():
    """Pointedness and extreme rays read off ranks of covector sets equal a
    second double description over the supporting covectors, in ranks 1-4,
    duplicate, non-primitive and non-pointed generator sets included."""
    rng = random.Random(61)
    outcomes = set()
    for rank in range(1, 5):
        for trial in range(80):
            gens = _random_gens(rng, rank, pointed=trial % 2 == 0)
            got = _cone_or_line(cone_from_generators, rank, gens)
            assert got == _cone_or_line(reference_cone, rank, gens), gens
            outcomes.add(got == "not pointed")
    assert outcomes == {True, False}


def test_intersection_and_faces_match_second_double_description():
    """`cone_intersection` and `is_face_of` on random pairs of pointed cones
    in ranks 2-4 equal the reference cone of the combined inequalities and
    the double-description face check."""
    rng = random.Random(62)
    verdicts = set()
    for rank in range(2, 5):
        for _ in range(40):
            a, b = (cone_from_generators(rank, _random_gens(rng, rank, pointed=True))
                    for _ in range(2))
            inter = cone_intersection(a, b)
            _, rays = reference_dual_description(rank, a.dual_rays + b.dual_rays,
                                                 equations=a.perp_basis + b.perp_basis)
            assert inter == reference_cone(rank, rays)
            for face, cone in ((inter, a), (inter, b), (a, b)):
                verdict = is_face_of(face, cone)
                assert verdict == reference_is_face_of(face, cone)
                verdicts.add(verdict)
    assert verdicts == {True, False}


def test_dual_description_matches_fraction_reference():
    """The integer double description equals the one over Fractions on
    seeded systems of rank 1-5 with 0-8 inequalities and 0-2 equations,
    entries in [-4, 4]: the same lineality basis and the same rays."""
    rng = random.Random(81)
    shapes = set()
    for _ in range(3000):
        rank = rng.randint(1, 5)
        ineqs = [[rng.randint(-4, 4) for _ in range(rank)] for _ in range(rng.randint(0, 8))]
        eqs = [[rng.randint(-4, 4) for _ in range(rank)] for _ in range(rng.randint(0, 2))]
        got = dual_description(rank, ineqs, eqs)
        assert got == reference_dual_description(rank, ineqs, eqs), (rank, ineqs, eqs)
        shapes.add((bool(got[0]), bool(got[1])))
    assert shapes == {(False, False), (False, True), (True, False), (True, True)}


def _cross2(a, b):
    return a[0] * b[1] - a[1] * b[0]


def test_double_description_against_2d_angular_oracle():
    """In the plane the extreme rays of a pointed cone are the angular
    extremes; compare against an exact cross-product sweep."""
    import random

    from toricfilt.lattice import primitive_vector

    rng = random.Random(71)
    for _ in range(60):
        gens = [(rng.randint(1, 5), rng.randint(-5, 5)) for _ in range(rng.randint(1, 6))]
        cone = cone_from_generators(2, tuple(gens))
        prims = {primitive_vector(g) for g in gens}
        low = next(g for g in prims if all(_cross2(g, h) >= 0 for h in prims))
        high = next(g for g in prims if all(_cross2(g, h) <= 0 for h in prims))
        assert set(cone.generators) == {low, high}


def _cross3(a, b):
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def test_double_description_against_3d_facet_oracle():
    """Facets of a full-dimensional pointed cone in Z^3 come from cross
    products of generator pairs with all generators on one side; extreme rays
    are the generators tight on two independent facets."""
    import random

    from toricfilt.lattice import primitive_vector
    from fractions import Fraction

    rng = random.Random(72)
    tested = 0
    while tested < 40:
        gens = {primitive_vector((rng.randint(-4, 4), rng.randint(-4, 4), rng.randint(1, 4)))
                for _ in range(rng.randint(3, 6))}
        gens = sorted(gens)
        facets = set()
        for a, b in itertools.combinations(gens, 2):
            n = _cross3(a, b)
            if n == (0, 0, 0):
                continue
            vals = [sum(x * y for x, y in zip(n, g)) for g in gens]
            if all(v >= 0 for v in vals):
                facets.add(primitive_vector(n))
            elif all(v <= 0 for v in vals):
                facets.add(primitive_vector(tuple(-x for x in n)))
        if not facets:
            continue  # degenerate sample (all generators collinear)
        cone = cone_from_generators(3, tuple(gens))
        if cone.dim != 3:
            continue
        tested += 1
        assert set(cone.dual_rays) == facets
        expected_extreme = set()
        for g in gens:
            tight = [[Fraction(x) for x in n] for n in facets
                     if sum(x * y for x, y in zip(n, g)) == 0]
            if len(reference_rref(tight, 3)[1]) == 2:
                expected_extreme.add(g)
        assert set(cone.generators) == expected_extreme


def test_cube_cone_in_rank_four():
    """Cone over the 3-cube at height one: 8 rays, dimension 4, far from
    simplicial; the double description must recover exactly the 8 vertices."""
    verts = [(x, y, z, 1) for x in (0, 1) for y in (0, 1) for z in (0, 1)]
    cone = cone_from_generators(4, tuple(verts))
    assert cone.dim == 4
    assert set(cone.generators) == set(verts)
    assert len(cone.dual_rays) == 6  # one facet per cube face
    # the centroid direction is interior, its negative is not in the cone
    assert cone.contains((1, 1, 1, 2))
    assert not cone.contains((-1, -1, -1, -2))


def test_sixteen_gon_cone_desk_scale():
    """A 16-ray pointed cone in Z^3 stays well within the desk-scale budget."""
    import time

    from toricfilt.lattice import primitive_vector

    ring = [
        (12, 0), (11, 5), (9, 8), (5, 11), (0, 12), (-5, 11), (-9, 8), (-11, 5),
        (-12, 0), (-11, -5), (-9, -8), (-5, -11), (0, -12), (5, -11), (9, -8), (11, -5),
    ]
    # independent convexity check: consecutive edge cross products positive,
    # so every listed point is a vertex of the polygon
    for i in range(16):
        ax, ay = ring[i]
        bx, by = ring[(i + 1) % 16]
        cx, cy = ring[(i + 2) % 16]
        assert (bx - ax) * (cy - by) - (by - ay) * (cx - bx) > 0
    rays = [primitive_vector((x, y, 12)) for x, y in ring]
    start = time.time()
    cone = cone_from_generators(3, tuple(rays))
    assert time.time() - start < 5.0
    assert cone.dim == 3
    assert set(cone.generators) == set(rays)
    fan = Fan.make(3, [list(r) for r in rays], [list(range(16))])
    assert validate_fan(fan).valid


def test_malformed_fan_inputs():
    with pytest.raises(InputError):
        Fan.make(0, [], [])
    with pytest.raises(InputError):
        Fan.make(2, [[1, 0]], [[1]])  # bad index
    with pytest.raises(InputError):
        Fan.make(2, [[1]], [[0]])  # wrong ray length


def test_cone_caches_are_bounded():
    """Building more distinct cones and intersections than the cache bound
    keeps both caches at or below it."""
    bound = CONE_CACHE_SIZE
    base = 10**6  # rays no other test builds
    rays = [cone_from_generators(2, ((1, base + k),)) for k in range(bound + 8)]
    for a, b in zip(rays, rays[1:]):
        assert cone_intersection(a, b).dim == 0
    for cached in (cone_from_generators, cone_intersection):
        info = cached.cache_info()
        assert info.maxsize == bound
        assert info.currsize <= bound
        assert info.misses > bound
