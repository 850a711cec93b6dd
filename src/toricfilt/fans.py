"""Fans, rational polyhedral cones, and exact double description.

A cone carries both of its descriptions: primitive extreme ray generators
and supporting covectors (the extreme rays of the dual cone), together with
an integral basis of the perpendicular lattice.  Conversion between the two
descriptions is a from-scratch double description pass at desk scale
(rank <= 6, a few dozen rays); the exponential worst case is accepted.

Cones are never assumed simplicial.  Non-pointed generator sets are detected
and reported (the fan validator flags them; the cone factory refuses them
with NotPointedError, an InputError).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import InputError
from .lattice import (
    hermite_normal_form,
    integer_kernel_basis,
    is_primitive,
    primitive_vector,
    smith_normal_form,
)
from .linalg import QMatrix, dot, rank_of

IntVec = Tuple[int, ...]

# bound on each of the two cone caches below, so a long-lived process that
# meets many distinct fans keeps a fixed footprint
CONE_CACHE_SIZE = 1024


# ---------------------------------------------------------------------------
# double description


def _fraction_rows(rows: Sequence[Sequence[int]]) -> List[Tuple[Fraction, ...]]:
    return [tuple(Fraction(x) for x in r) for r in rows]


def _ray_canonical(v: Sequence[Fraction]) -> Optional[IntVec]:
    """Primitive integer representative of the ray through v (direction kept)."""
    if all(x == 0 for x in v):
        return None
    denom = 1
    for x in v:
        denom = denom * x.denominator // gcd(denom, x.denominator)
    ints = [int(x * denom) for x in v]
    return primitive_vector(ints)


def dual_description(rank: int,
                     inequalities: Sequence[Sequence[int]],
                     equations: Sequence[Sequence[int]] = ()) -> Tuple[Tuple[IntVec, ...], Tuple[IntVec, ...]]:
    """Solve {x : <a,x> >= 0 for all inequalities, <e,x> = 0 for all equations}.

    Returns (lineality basis, extreme rays).  Rays are primitive integer
    vectors in a deterministic (lexicographic) order; the lineality basis is
    the Hermite form of the integral kernel of the active constraints.
    """
    constraints: List[IntVec] = []
    for e in equations:
        constraints.append(tuple(int(x) for x in e))
        constraints.append(tuple(-int(x) for x in e))
    for a in inequalities:
        constraints.append(tuple(int(x) for x in a))

    lin: List[Tuple[Fraction, ...]] = [
        tuple(Fraction(1 if i == j else 0) for j in range(rank)) for i in range(rank)
    ]
    rays: List[Tuple[Fraction, ...]] = []
    processed: List[IntVec] = []

    def prune(candidates: List[Tuple[Fraction, ...]]) -> List[Tuple[Fraction, ...]]:
        lam = len(lin)
        kept: List[Tuple[Fraction, ...]] = []
        seen = set()
        for r in candidates:
            canon = _ray_canonical(r)
            if canon is None or canon in seen:
                continue
            tight = [a for a in processed if dot(_fraction_rows([a])[0], r) == 0]
            if len(tight) == len(processed) and lam > 0:
                continue  # fell into the lineality space
            if rank_of(_fraction_rows(tight), rank) == rank - lam - 1:
                seen.add(canon)
                kept.append(tuple(Fraction(x) for x in canon))
        return kept

    for a in constraints:
        af = tuple(Fraction(x) for x in a)
        processed.append(a)
        vals = [dot(af, l) for l in lin]
        j0 = next((j for j, v in enumerate(vals) if v != 0), None)
        if j0 is not None:
            l0 = lin[j0]
            v0 = vals[j0]
            if v0 < 0:
                l0 = tuple(-x for x in l0)
                v0 = -v0
            new_lin = []
            for j, l in enumerate(lin):
                if j == j0:
                    continue
                c = dot(af, l) / v0
                new_lin.append(tuple(x - c * y for x, y in zip(l, l0)))
            new_rays = []
            for r in rays:
                c = dot(af, r) / v0
                new_rays.append(tuple(x - c * y for x, y in zip(r, l0)))
            new_rays.append(l0)
            lin = new_lin
            rays = prune(new_rays)
        else:
            pos = [r for r in rays if dot(af, r) > 0]
            zer = [r for r in rays if dot(af, r) == 0]
            neg = [r for r in rays if dot(af, r) < 0]
            combos = []
            for p in pos:
                ap = dot(af, p)
                for m in neg:
                    am = dot(af, m)
                    combos.append(tuple(ap * x - am * y for x, y in zip(m, p)))
            rays = prune(pos + zer + combos)

    ray_out = sorted(_ray_canonical(r) for r in rays)
    if constraints:
        lin_out = hermite_normal_form(integer_kernel_basis(constraints), rank)
    else:
        lin_out = hermite_normal_form(
            [[1 if i == j else 0 for j in range(rank)] for i in range(rank)], rank
        )
    return tuple(lin_out), tuple(ray_out)


# ---------------------------------------------------------------------------
# cones


class NotPointedError(InputError):
    """Generator set spans a cone containing a line; not a valid fan cone."""


@dataclass(frozen=True)
class CharQuotient:
    """Deterministic presentation of M -> M/perp for a cone, built from the
    Smith form of the perpendicular lattice.  Two characters have equal class
    exactly when their difference pairs to zero against the cone."""

    rank: int
    perp_dim: int
    v: Tuple[IntVec, ...]       # unimodular column transform
    v_inv: Tuple[IntVec, ...]

    def _coords(self, u: Sequence[int]) -> IntVec:
        return tuple(sum(u[i] * self.v[i][j] for i in range(self.rank))
                     for j in range(self.rank))

    def class_index(self, u: Sequence[int]) -> IntVec:
        """Coordinates of [u] in M/perp ≅ Z^(rank - perp_dim)."""
        return self._coords(u)[self.perp_dim:]

    def canonical_representative(self, u: Sequence[int]) -> IntVec:
        coords = list(self._coords(u))
        for i in range(self.perp_dim):
            coords[i] = 0
        return tuple(sum(coords[i] * self.v_inv[i][j] for i in range(self.rank))
                     for j in range(self.rank))

    def same_class(self, u1: Sequence[int], u2: Sequence[int]) -> bool:
        return self.class_index(u1) == self.class_index(u2)


def _build_quotient(rank: int, perp: Tuple[IntVec, ...]) -> CharQuotient:
    k = len(perp)
    if k == 0:
        ident = tuple(tuple(1 if i == j else 0 for j in range(rank)) for i in range(rank))
        return CharQuotient(rank, 0, ident, ident)
    _, d, v = smith_normal_form(perp)
    for i in range(k):
        if d[i][i] != 1:
            raise AssertionError("perpendicular lattice is not saturated")
    v_mat = QMatrix.from_rows(v)
    v_inv = v_mat.inverse()
    v_inv_int = tuple(tuple(int(x) for x in row) for row in v_inv.entries)
    return CharQuotient(rank, k, tuple(tuple(r) for r in v), v_inv_int)


@dataclass(frozen=True)
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

    def quotient(self) -> CharQuotient:
        return _build_quotient(self.rank, self.perp_basis)


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
        perp = hermite_normal_form(
            [[1 if i == j else 0 for j in range(rank)] for i in range(rank)], rank
        )
        return Cone(rank, (), (), tuple(perp), 0)
    perp = hermite_normal_form(integer_kernel_basis(gens), rank)
    _, dual_rays = dual_description(rank, gens)
    lin2, extreme = dual_description(rank, dual_rays, equations=perp)
    if lin2:
        raise NotPointedError("generators span a cone containing a line")
    return Cone(rank, tuple(extreme), tuple(dual_rays), tuple(perp), rank - len(perp))


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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class FanValidationReport:
    valid: bool
    top_dimensional: bool
    issues: Tuple[dict, ...]


def validate_fan(fan: Fan) -> FanValidationReport:
    """Primitivity, pointedness, extreme-ray, and face-intersection checks.
    Top dimensionality of the maximal cones is reported separately (it is an
    assumption of the classification theorems, not of fan validity)."""
    issues: List[dict] = []
    for i, r in enumerate(fan.rays):
        if all(x == 0 for x in r):
            issues.append({"kind": "zero_ray", "ray": i})
        elif not is_primitive(r):
            issues.append({"kind": "non_primitive_ray", "ray": i, "vector": list(r)})
    for i, j in itertools.combinations(range(len(fan.rays)), 2):
        if fan.rays[i] == fan.rays[j]:
            issues.append({"kind": "duplicate_ray", "rays": [i, j]})
    if issues:
        # geometry below assumes clean rays
        return FanValidationReport(False, False, tuple(issues))

    cones: Dict[int, Cone] = {}
    top = True
    for k, idx in enumerate(fan.maximal_cones):
        try:
            c = cone_from_generators(fan.rank, tuple(fan.rays[i] for i in idx))
        except NotPointedError:
            issues.append({"kind": "not_pointed", "cone": k})
            continue
        cones[k] = c
        listed = set(fan.rays[i] for i in idx)
        if listed != set(c.generators):
            issues.append({
                "kind": "extreme_ray_mismatch",
                "cone": k,
                "computed": [list(g) for g in c.generators],
            })
        if c.dim != fan.rank:
            top = False
            issues.append({"kind": "not_top_dimensional", "cone": k, "dim": c.dim})
    for a, b in itertools.combinations(sorted(cones), 2):
        inter = cone_intersection(cones[a], cones[b])
        if not is_face_of(inter, cones[a]) or not is_face_of(inter, cones[b]):
            issues.append({"kind": "intersection_not_a_face", "cones": [a, b]})
    validity_issues = [i for i in issues if i["kind"] != "not_top_dimensional"]
    return FanValidationReport(not validity_issues, top, tuple(issues))
