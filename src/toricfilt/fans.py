"""Fans, rational polyhedral cones, and exact double description.

A cone carries both of its descriptions: primitive extreme ray generators
and supporting covectors (the extreme rays of the dual cone), together with
an integral basis of the perpendicular lattice.  One double description pass
on the generators gives the covectors and the perpendicular lattice (the
lineality of the dual cone); pointedness and extremality are then ranks of
covector sets (`linalg.rank`).  The pass and the ranks run on primitive
integer vectors only: each step adds an integer multiple of one vector to
a positive multiple of another and divides out the content, so every
direction is kept and no Fraction is made.  It runs from scratch at desk
scale (rank <= 6, a few dozen rays); the exponential worst case is
accepted.

Cones are never assumed simplicial.  Non-pointed generator sets are detected
and reported (the fan validator flags them; the cone factory refuses them
with NotPointedError, an InputError).
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Dict, List, Sequence, Tuple

from .errors import InputError
from .lattice import (
    hermite_normal_form,
    integer_kernel_basis,
    integer_solver,
    is_primitive,
    primitive_vector,
    smith_normal_form,
)
from .linalg import cached_on_instance, rank as row_rank, record

IntVec = Tuple[int, ...]

# bound on each of the two cone caches below, so a long-lived process that
# meets many distinct fans keeps a fixed footprint
CONE_CACHE_SIZE = 1024


def _unit_rows(rank: int) -> Tuple[IntVec, ...]:
    return tuple(tuple(int(i == j) for j in range(rank)) for i in range(rank))


# ---------------------------------------------------------------------------
# double description


def dual_description(rank: int,
                     inequalities: Sequence[Sequence[int]],
                     equations: Sequence[Sequence[int]] = ()) -> Tuple[Tuple[IntVec, ...], Tuple[IntVec, ...]]:
    """Solve {x : <a,x> >= 0 for all inequalities, <e,x> = 0 for all equations}.

    Returns (lineality basis, extreme rays).  Rays are primitive integer
    vectors in a deterministic (lexicographic) order; the lineality basis is
    the Hermite form of the integral kernel of the active constraints, and
    empty without any lattice work when the tracked lineality is zero.
    """
    constraints: List[IntVec] = []
    for e in equations:
        constraints.append(tuple(int(x) for x in e))
        constraints.append(tuple(-int(x) for x in e))
    for a in inequalities:
        constraints.append(tuple(int(x) for x in a))

    def pair(a: IntVec, v: IntVec) -> int:
        return sum(x * y for x, y in zip(a, v))

    lin: Sequence[IntVec] = _unit_rows(rank)
    rays: List[IntVec] = []
    processed: List[IntVec] = []

    def prune(candidates: List[IntVec]) -> List[IntVec]:
        lam = len(lin)
        kept: List[IntVec] = []
        seen = set()
        for r in candidates:
            if not any(r):
                continue
            canon = primitive_vector(r)
            if canon in seen:
                continue
            tight = [a for a in processed if pair(a, canon) == 0]
            if len(tight) == len(processed) and lam > 0:
                continue  # fell into the lineality space
            if row_rank(tight, rank) == rank - lam - 1:
                seen.add(canon)
                kept.append(canon)
        return kept

    for a in constraints:
        processed.append(a)
        vals = [pair(a, l) for l in lin]
        j0 = next((j for j, v in enumerate(vals) if v != 0), None)
        if j0 is not None:
            # with v0 = <a,l0> > 0, v0 x - <a,x> l0 is a positive multiple of
            # the projection of x along l0 onto <a,.> = 0, so every direction
            # is kept
            l0 = lin[j0]
            v0 = vals[j0]
            if v0 < 0:
                l0 = tuple(-x for x in l0)
                v0 = -v0

            def project(x: IntVec) -> IntVec:
                c = pair(a, x)
                return tuple(v0 * p - c * q for p, q in zip(x, l0))

            lin = [primitive_vector(project(l)) for j, l in enumerate(lin) if j != j0]
            rays = prune([project(r) for r in rays] + [l0])
        else:
            pos = [r for r in rays if pair(a, r) > 0]
            zer = [r for r in rays if pair(a, r) == 0]
            neg = [r for r in rays if pair(a, r) < 0]
            combos = []
            for p in pos:
                ap = pair(a, p)
                for m in neg:
                    am = pair(a, m)
                    combos.append(tuple(ap * x - am * y for x, y in zip(m, p)))
            rays = prune(pos + zer + combos)

    if lin and constraints:
        lin = hermite_normal_form(integer_kernel_basis(constraints), rank)
    # otherwise lin is empty, or with no constraints still the identity,
    # which is its own Hermite form
    return tuple(lin), tuple(sorted(rays))


# ---------------------------------------------------------------------------
# cones


class NotPointedError(InputError):
    """Generator set spans a cone containing a line; not a valid fan cone."""


@record
class CharQuotient:
    """Deterministic presentation of M -> M/perp for a cone, built from the
    Smith form of the perpendicular lattice.  Two characters have equal class
    exactly when their difference pairs to zero against the cone.

    A full-dimensional cone (every maximal cone of a complete fan) has
    perp = 0: its quotient is the identity, built with no Smith form, and
    `class_index` and `canonical_representative` return a character of
    length `rank` as it is, with no product by v.  Any other v, and a
    character of another length (one too short raises IndexError, a longer
    one is cut to `rank`), go through the coordinates in the basis v."""

    rank: int
    perp_dim: int
    v: Tuple[IntVec, ...]       # unimodular column transform
    v_inv: Tuple[IntVec, ...]

    @cached_on_instance
    def _identity(self) -> bool:
        """Whether M -> M/perp is the identity: perp = 0, v = v_inv = 1."""
        unit = _unit_rows(self.rank)
        return self.perp_dim == 0 and self.v == unit and self.v_inv == unit

    def _coords(self, u: Sequence[int]) -> IntVec:
        return tuple(sum(u[i] * self.v[i][j] for i in range(self.rank))
                     for j in range(self.rank))

    def class_index(self, u: Sequence[int]) -> IntVec:
        """Coordinates of [u] in M/perp ≅ Z^(rank - perp_dim)."""
        if len(u) == self.rank and self._identity():
            return tuple(u)
        return self._coords(u)[self.perp_dim:]

    def canonical_representative(self, u: Sequence[int]) -> IntVec:
        if len(u) == self.rank and self._identity():
            return tuple(u)
        coords = list(self._coords(u))
        for i in range(self.perp_dim):
            coords[i] = 0
        return tuple(sum(coords[i] * self.v_inv[i][j] for i in range(self.rank))
                     for j in range(self.rank))


def _build_quotient(rank: int, perp: Tuple[IntVec, ...]) -> CharQuotient:
    k = len(perp)
    if k == 0:
        ident = _unit_rows(rank)
        return CharQuotient(rank, 0, ident, ident)
    _, d, v = smith_normal_form(perp)
    for i in range(k):
        if d[i][i] != 1:
            raise AssertionError("perpendicular lattice is not saturated")
    # v is unimodular, so column j of its inverse is the one integral
    # solution of v x = e_j
    solver = integer_solver(v)
    v_inv = tuple(zip(*(solver(e) for e in _unit_rows(rank))))
    return CharQuotient(rank, k, tuple(tuple(r) for r in v), v_inv)


@record
class Cone:
    """A pointed rational polyhedral cone with both descriptions cached."""

    rank: int
    generators: Tuple[IntVec, ...]   # primitive extreme rays, sorted
    dual_rays: Tuple[IntVec, ...]    # supporting covectors (extreme rays of dual)
    perp_basis: Tuple[IntVec, ...]   # HNF basis of {u : <u, cone> = 0}
    dim: int

    def contains(self, v: Sequence[int]) -> bool:
        return (all(sum(a * x for a, x in zip(c, v)) >= 0 for c in self.dual_rays)
                and all(sum(p * x for p, x in zip(row, v)) == 0 for row in self.perp_basis))

    def dual_contains(self, u: Sequence[int]) -> bool:
        return all(sum(a * g for a, g in zip(u, gen)) >= 0 for gen in self.generators)

    @cached_on_instance
    def quotient(self) -> CharQuotient:
        """The character quotient M/perp, built once per cone."""
        return _build_quotient(self.rank, self.perp_basis)

    @cached_on_instance
    def integer_solver(self):
        """b -> an integral character u with <u, g_j> = b_j for the j-th
        generator, or None (`lattice.integer_solver`): one Smith form per
        cone, composed into one integer matrix over the lcm of its
        invariant factors, serves every right-hand side with one product
        and one divisibility test."""
        return integer_solver(self.generators)


@lru_cache(maxsize=CONE_CACHE_SIZE)
def cone_from_generators(rank: int, gens: Tuple[IntVec, ...]) -> Cone:
    """Canonical cone spanned by the given integer vectors.  Raises
    NotPointedError when the span contains a line."""
    gens = tuple(tuple(int(x) for x in g) for g in gens)
    for g in gens:
        if len(g) != rank:
            raise InputError("generator length does not match lattice rank")
        if all(x == 0 for x in g):
            raise InputError("zero vector cannot generate a ray")
    if not gens:
        return Cone(rank, (), (), _unit_rows(rank), 0)
    # the dual cone is perp + cone(dual_rays); the cone is pointed iff that is
    # full-dimensional, and g spans an extreme ray iff the face of the dual
    # cone tight on g has codimension one
    perp, dual_rays = dual_description(rank, gens)

    def span_dim(covectors: Tuple[IntVec, ...]) -> int:
        return row_rank(perp + covectors, rank)

    if span_dim(dual_rays) < rank:
        raise NotPointedError("generators span a cone containing a line")
    extreme = {primitive_vector(g) for g in gens
               if span_dim(tuple(a for a in dual_rays
                                 if sum(x * y for x, y in zip(a, g)) == 0)) == rank - 1}
    return Cone(rank, tuple(sorted(extreme)), dual_rays, perp, rank - len(perp))


@lru_cache(maxsize=CONE_CACHE_SIZE)
def cone_intersection(a: Cone, b: Cone) -> Cone:
    """Intersection via combined inequality systems, extreme rays recovered."""
    if a.rank != b.rank:
        raise InputError("cones live in different lattices")
    _, rays = dual_description(
        a.rank,
        list(a.dual_rays) + list(b.dual_rays),
        equations=list(a.perp_basis) + list(b.perp_basis),
    )
    return cone_from_generators(a.rank, tuple(rays))


def is_face_of(face: Cone, cone: Cone) -> bool:
    """Check that `face` equals the face of `cone` cut out by the supporting
    covectors of `cone` tight on all of `face`.  Every face of a pointed
    cone is spanned by the extreme rays of the cone that it contains, so
    comparing those rays with the generators of `face` decides it."""
    if not all(cone.contains(g) for g in face.generators):
        return False
    tight = [a for a in cone.dual_rays
             if all(sum(x * g for x, g in zip(a, gen)) == 0 for gen in face.generators)]
    cut = {gen for gen in cone.generators
           if all(sum(x * g for x, g in zip(a, gen)) == 0 for a in tight)}
    return cut == set(face.generators)


# ---------------------------------------------------------------------------
# fans


@record
class Fan:
    """Lattice rank, primitive ray generators, and maximal cones given as
    sorted tuples of ray indices.  Ray order is significant: filtrations and
    reports refer to rays by index."""

    rank: int
    rays: Tuple[IntVec, ...]
    maximal_cones: Tuple[Tuple[int, ...], ...]

    @staticmethod
    def make(rank: int, rays: Sequence[Sequence[int]],
             maximal_cones: Sequence[Sequence[int]]) -> "Fan":
        if not isinstance(rank, int) or rank < 1:
            raise InputError("lattice rank must be a positive integer")
        ray_t = []
        for r in rays:
            row = tuple(r)
            if len(row) != rank or not all(isinstance(x, int) and not isinstance(x, bool) for x in row):
                raise InputError("rays must be integer vectors of length rank")
            ray_t.append(row)
        cones_t = []
        for c in maximal_cones:
            idx = tuple(sorted(c))
            if not all(isinstance(i, int) and 0 <= i < len(ray_t) for i in idx):
                raise InputError("maximal cone refers to an unknown ray index")
            if len(set(idx)) != len(idx):
                raise InputError("maximal cone repeats a ray index")
            cones_t.append(idx)
        return Fan(rank, tuple(ray_t), tuple(cones_t))

    def cone(self, ray_indices: Sequence[int]) -> Cone:
        idx = tuple(sorted(ray_indices))
        if not all(0 <= i < len(self.rays) for i in idx):
            raise InputError("ray index out of range")
        return cone_from_generators(self.rank, tuple(self.rays[i] for i in idx))

    def maximal_cone(self, k: int) -> Cone:
        if not 0 <= k < len(self.maximal_cones):
            raise InputError("maximal cone index out of range")
        return self.cone(self.maximal_cones[k])


@record
class FanValidationReport:
    valid: bool
    top_dimensional: bool
    issues: Tuple[dict, ...]


def validate_fan(fan: Fan) -> FanValidationReport:
    """Primitivity, pointedness, extreme-ray, and face-intersection checks;
    the geometric ones assume clean rays and are skipped when a ray is zero,
    non-primitive or duplicated.  Top dimensionality of the maximal cones is
    reported separately (it is an assumption of the classification theorems,
    not of fan validity) and is decided for every maximal cone, pointed or
    not, from the rank of its listed rays, to which zero rays add nothing."""
    issues: List[dict] = []
    for i, r in enumerate(fan.rays):
        if all(x == 0 for x in r):
            issues.append({"kind": "zero_ray", "ray": i})
        elif not is_primitive(r):
            issues.append({"kind": "non_primitive_ray", "ray": i, "vector": list(r)})
    for i, j in itertools.combinations(range(len(fan.rays)), 2):
        if fan.rays[i] == fan.rays[j]:
            issues.append({"kind": "duplicate_ray", "rays": [i, j]})
    clean = not issues
    cones: Dict[int, Cone] = {}
    top = True
    for k, idx in enumerate(fan.maximal_cones):
        listed = [fan.rays[i] for i in idx]
        if clean:
            try:
                c = cone_from_generators(fan.rank, tuple(listed))
            except NotPointedError:
                issues.append({"kind": "not_pointed", "cone": k})
            else:
                cones[k] = c
                if set(listed) != set(c.generators):
                    issues.append({
                        "kind": "extreme_ray_mismatch",
                        "cone": k,
                        "computed": [list(g) for g in c.generators],
                    })
        dim = row_rank(listed, fan.rank)
        if dim != fan.rank:
            top = False
            issues.append({"kind": "not_top_dimensional", "cone": k, "dim": dim})
    for a, b in itertools.combinations(sorted(cones), 2):
        inter = cone_intersection(cones[a], cones[b])
        if not is_face_of(inter, cones[a]) or not is_face_of(inter, cones[b]):
            issues.append({"kind": "intersection_not_a_face", "cones": [a, b]})
    validity_issues = [i for i in issues if i["kind"] != "not_top_dimensional"]
    return FanValidationReport(not validity_issues, top, tuple(issues))
