"""Equivariant principal-bundle data: one torus homomorphism into the group
per maximal cone, presented in diagonalized form as an invertible frame g_k
plus a tuple of characters (D_k is their diagonal).  The transition between
two charts is T_st = g_s D_s g_s^-1 g_t D_t^-1 g_t^-1; transitions are never
expanded.  They compose by construction: the product T_st T_tu telescopes to
T_su for any frames and characters, so that identity is never checked.

Gluing asks for entrywise regularity of both transition directions on each
overlap cone.  By Klyachko's gluing condition this holds exactly when the
chains that neighbouring cones induce on each ray of their overlap agree,
so `check_gluing` is decided by ray consistency alone, on any fan where
the extreme rays of each overlap are exactly the rays both cones list
(every valid fan does; any other raises PreconditionError), and a failure
is named by the ray-consistency witness; `check_gluing` gives the proof.
That precondition and the top dimension of the maximal cones are facts
about the fan alone, so they are decided once per fan value, in a bounded
cache (`_gluing_refusals`), and bundle data on an equal fan ask no overlap.
Ray consistency is the reconstruction test: each ray's chain is built
once, from the first cone that lists it, and every other cone on the ray
passes when its frame columns, at their levels, rebuild that chain
(`RayFiltration.reconstruction_failure`), so no second chain is built.
A ray that no maximal cone lists lies on no overlap: gluing skips it, and
`associated_klyachko`, which needs a chain on it, refuses it first.

Validation, gluing and SL reduction share one determinant per frame.  A
frame is integer rows over one denominator (`linalg.QMatrix`), and its
integer columns feed both the chain that `linalg.column_chain` spans by
level and the column lines of `linalg.column_lines`, which need no
elimination; the lines are the pieces of the consistency test, and they
and the determinant are cached on the frame.
The level ⟨u_c, ρ⟩ of each frame column c on each ray ρ its cone lists is
paired once per bundle, in the level table (`_level_table`) that the
chains, the consistency test and the torus universe of `reduction` read.
The level table, `check_gluing` and the ray chains (the associated data, or
the `RayConsistencyError` witness) are cached on the data by
`linalg.cached_on_instance`, so `reduce` after `glue` builds nothing again.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from operator import mul
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .errors import InputError, PreconditionError
from .fans import CONE_CACHE_SIZE, Fan, cone_intersection
from .filtrations import FiltrationData, RayFiltration
from .linalg import QMatrix, cached_on_instance, column_chain, column_lines, record

IntVec = Tuple[int, ...]

GROUP_KINDS = ("GL", "SL", "DT")


@record
class GroupSpec:
    kind: str  # "GL" | "SL" | "DT" (diagonal torus)
    n: int

    def __post_init__(self):
        if self.kind not in GROUP_KINDS:
            raise InputError(f"unknown group kind {self.kind!r}")
        if not isinstance(self.n, int) or self.n < 1:
            raise InputError("matrix size must be a positive integer")


@record
class CocharBundleData:
    """Frame + character presentation of the per-maximal-cone homomorphisms.
    `frames[k]` and `chars[k]` belong to fan.maximal_cones[k]; chars[k] is an
    n-tuple of integer character vectors of length fan.rank."""

    group: GroupSpec
    fan: Fan
    frames: Tuple[QMatrix, ...]
    chars: Tuple[Tuple[IntVec, ...], ...]

    @staticmethod
    def make(group: GroupSpec, fan: Fan,
             frames: Sequence[QMatrix],
             chars: Sequence[Sequence[Sequence[int]]]) -> "CocharBundleData":
        if len(frames) != len(fan.maximal_cones) or len(chars) != len(fan.maximal_cones):
            raise InputError("need exactly one frame and one character tuple per maximal cone")
        frames_t = tuple(frames)
        chars_t = []
        for cone_chars in chars:
            if len(cone_chars) != group.n:
                raise InputError("character tuple length must equal the matrix size")
            rows = []
            for u in cone_chars:
                row = tuple(u)
                if len(row) != fan.rank or not all(
                    isinstance(x, int) and not isinstance(x, bool) for x in row
                ):
                    raise InputError("characters must be integer vectors of length rank")
                rows.append(row)
            chars_t.append(tuple(rows))
        for f in frames_t:
            if f.nrows != group.n or f.ncols != group.n:
                raise InputError("frame has wrong shape")
        return CocharBundleData(group, fan, frames_t, tuple(chars_t))


@record
class BundleValidationReport:
    valid: bool
    issues: Tuple[dict, ...]


def validate_bundle(data: CocharBundleData) -> BundleValidationReport:
    """Frames invertible and inside the group; for SL the characters of each
    cone must sum to zero (forced by det of the homomorphism); for the
    diagonal torus the frame must itself be diagonal."""
    issues: List[dict] = []
    kind = data.group.kind
    for k, (frame, cone_chars) in enumerate(zip(data.frames, data.chars)):
        det = frame.det()
        if det == 0:
            issues.append({"kind": "singular_frame", "cone": k})
            continue
        # an invertible diagonal frame has a nonzero diagonal
        if (kind == "SL" and det != 1) or (kind == "DT" and any(
                x for i, row in enumerate(frame.rows) for j, x in enumerate(row) if i != j)):
            issues.append({"kind": "frame_not_in_group", "cone": k})
        if kind == "SL":
            total = tuple(sum(u[j] for u in cone_chars) for j in range(data.fan.rank))
            if any(x != 0 for x in total):
                issues.append({"kind": "character_sum_nonzero", "cone": k,
                               "sum": list(total)})
    return BundleValidationReport(not issues, tuple(issues))


@record
class GluingReport:
    glues: bool
    witness: Optional[dict] = None  # cones, ray and index of the first disagreeing chain


@cached_on_instance
def check_gluing(data: CocharBundleData) -> GluingReport:
    """Both transition directions must be regular on the overlap cone of each
    pair of maximal cones.  Requires all maximal cones top-dimensional, the
    standing assumption of the per-cone trivialization picture, raises
    ValueError("matrix is singular") for a frame of determinant 0, and
    raises PreconditionError when the extreme rays of an overlap are not
    exactly the rays both cones list (every valid fan meets it).  Both fan
    refusals are decided once per fan value (`_gluing_refusals`) and raised
    in that order around the determinant check.

    Ray consistency decides.  T_ab = g_a (D_a M D_b^-1) g_b^-1 with the
    frame change M = g_a^-1 g_b, and the constant outer frames do not affect
    regularity, so T_ab is regular on the overlap iff every nonzero M[k, l]
    carries an exponent u_a[k] - u_b[l] that pairs nonnegatively with each
    extreme ray ρ of the overlap.  Column l of g_b is Σ_k M[k, l] (column k
    of g_a), with unique coordinates since g_a is invertible, so it lies in
    the chain that cone a induces on ρ at ⟨u_b[l], ρ⟩ iff M[k, l] = 0
    whenever ⟨u_a[k] - u_b[l], ρ⟩ < 0.  Over the columns of g_b this says
    that b's chain on ρ lies in a's; the direction (b, a) gives the reverse
    inclusion.  So both directions are regular iff the two cones induce the
    same chain on every extreme ray of the overlap.

    `_ray_chains` tests this equality from one side: it builds a's chain on
    ρ once and checks at every level j that the columns of g_b of level at
    least j lie in it and are as many as its dimension.  They are
    independent, so they span b's chain at j, which then lies in a's chain
    and has its dimension: the two are equal.  It tests every cone on every
    ray the cone lists, and by the precondition these are exactly the
    extreme rays of the overlaps; a ray that no maximal cone lists lies on
    no overlap and is skipped.  So the data glue iff `_ray_chains` finds no
    disagreement, and the witness of a failure is that of
    `RayConsistencyError`: the two cones, the ray and the first index at
    which their chains differ."""
    not_top, overlap = _gluing_refusals(data.fan)
    if not_top:
        raise PreconditionError(not_top)
    chains = _ray_chains(data)  # raises for a singular frame
    if overlap:
        raise PreconditionError(overlap)
    if isinstance(chains, tuple):
        return GluingReport(False, RayConsistencyError(*chains).witness)
    return GluingReport(True)


@lru_cache(maxsize=CONE_CACHE_SIZE)
def _gluing_refusals(fan: Fan) -> Tuple[Optional[str], Optional[str]]:
    """The two refusals of `check_gluing` that depend on the fan alone, as
    (top-dimensional refusal, overlap refusal), each None when its check
    passes: every maximal cone is top-dimensional, and the extreme rays of
    the `cone_intersection` of each pair of maximal cones are exactly the
    rays both list.  A fan with a cone of lower dimension is refused
    before its overlaps matter, so they are not asked for.  The checks are
    decided once per fan value, in a cache bounded like the cone caches;
    bundle data on an equal fan ask no cone again."""
    cones = [fan.maximal_cone(k) for k in range(len(fan.maximal_cones))]
    for k, cone in enumerate(cones):
        if cone.dim != fan.rank:
            return f"maximal cone {k} is not top-dimensional; gluing undefined", None
    for s, t in itertools.combinations(range(len(cones)), 2):
        shared = set(fan.maximal_cones[s]) & set(fan.maximal_cones[t])
        if set(cone_intersection(cones[s], cones[t]).generators) != {fan.rays[i] for i in shared}:
            return None, (f"the extreme rays of the overlap of maximal cones {s} "
                          f"and {t} are not the rays both list; gluing undefined")
    return None, None


class RayConsistencyError(ValueError):
    """Two maximal cones sharing a ray induce different chains on it."""

    def __init__(self, cone_a: int, cone_b: int, ray: int, index: int):
        super().__init__(
            f"cones {cone_a} and {cone_b} induce different chains on ray {ray} "
            f"at index {index}"
        )
        self.witness = {"cones": [cone_a, cone_b], "ray": ray, "index": index}


@cached_on_instance
def _level_table(data: CocharBundleData) -> Tuple[Dict[int, Tuple[int, ...]], ...]:
    """The column levels, per maximal cone k a dict from each ray ρ that
    the cone lists, in listed order, to the level ⟨u_c, ρ⟩ of each frame
    column c of cone k: every pairing of a character with a ray that
    gluing, the chains and the torus universe read, computed once."""
    rays = data.fan.rays
    return tuple({i: tuple(sum(map(mul, u, rays[i])) for u in cone_chars) for i in idx}
                 for idx, cone_chars in zip(data.fan.maximal_cones, data.chars))


def _chain_from_cone(data: CocharBundleData, k: int, ray_idx: int) -> RayFiltration:
    """The chain that cone k induces on the ray: frame column c at its level
    (`_level_table`), spanned in one incremental reduction
    (`linalg.column_chain`).  The frame is invertible (`_ray_chains` checks
    first), so its columns are independent and each level, which has at
    least one column, adds rank: reversed into increasing index order, the
    values are nonzero and strictly decrease, and the chain is stored as
    built (`RayFiltration._canonical`)."""
    return RayFiltration._canonical(
        data.group.n, column_chain(data.frames[k], _level_table(data)[k][ray_idx])[::-1])


def associated_klyachko(data: CocharBundleData) -> FiltrationData:
    """Filtration data of the associated standard-representation bundle: on a
    ray of a maximal cone the chain at i is the span of the frame columns
    whose character pairs at least i against the ray.  Raises InputError
    when a ray lies in no maximal cone, so that it has no chain, before any
    chain is built; RayConsistencyError when two cones sharing a ray
    disagree, which on a fan satisfying `check_gluing`'s precondition is
    exactly a failure to glue; and ValueError("matrix is singular") for a
    frame of determinant 0.  The consistency verdict is kept on the data
    (`_ray_chains`), so every later call returns the same data, or raises a
    new error with the same witness, without building a chain."""
    unlisted = set(range(len(data.fan.rays))).difference(*data.fan.maximal_cones)
    if unlisted:
        raise InputError(f"ray {min(unlisted)} lies in no maximal cone")
    chains = _ray_chains(data)
    if isinstance(chains, tuple):
        raise RayConsistencyError(*chains)
    return chains


@cached_on_instance
def _ray_chains(data: CocharBundleData) -> Union[FiltrationData, bool, Tuple[int, int, int, int]]:
    """The witness (first cone, other cone, ray, index) of the first cone
    whose chain on a ray disagrees with the chain of the first cone that
    lists the ray; or, when every cone agrees, the associated data, or True
    if a ray lies in no maximal cone and so has no chain.  The witness is
    returned, not raised, so that it is cached like a value: a kept
    exception would keep its traceback's frames alive.  Raises
    ValueError("matrix is singular") for a frame of determinant 0, as
    `check_gluing` does.

    Each ray's chain is built once, from the first cone that lists it.  A
    later cone k is tested against that chain by the reconstruction test
    (`RayFiltration.reconstruction_failure`), with the lines of its frame
    columns (`linalg.column_lines`) at their levels as the pieces, so its
    own chain is never built.  The frame is invertible, so its lines are a
    direct sum of the fiber, as the test requires, and the lines of level
    at least j span the chain that cone k induces at j.  The test's probes
    are the jump indices of the first chain, the levels and one past their
    maximum; each distinct level adds independent columns and so rank, so
    the jumps of cone k's chain are exactly its distinct levels, and the
    witness index is the first probe, in the union of both chains' jumps
    and one past it, at which the two chains differ.  The associated data
    hold one chain in Q^n per ray, each canonical as built
    (`_chain_from_cone`), so they are stored as they are, with no `make`."""
    if any(frame.det() == 0 for frame in data.frames):
        raise ValueError("matrix is singular")
    fan = data.fan
    chains: Dict[int, Tuple[int, RayFiltration]] = {}
    for k, cone_levels in enumerate(_level_table(data)):
        for ray_idx, levels in cone_levels.items():
            if ray_idx not in chains:
                chains[ray_idx] = (k, _chain_from_cone(data, k, ray_idx))
                continue
            first_cone, existing = chains[ray_idx]
            bad = existing.reconstruction_failure(column_lines(data.frames[k]), levels)
            if bad is not None:
                return first_cone, k, ray_idx, bad
    if len(chains) < len(fan.rays):
        return True
    return FiltrationData(fan, data.group.n,
                          tuple(chains[i][1] for i in range(len(fan.rays))))


def determinant_data(data: CocharBundleData) -> CocharBundleData:
    """GL(1) data of the determinant: characters add up, frames map to det."""
    if data.group.kind != "GL":
        raise PreconditionError("determinant data requires a GL bundle")
    frames = []
    chars = []
    for k in range(len(data.fan.maximal_cones)):
        frames.append(QMatrix.from_rows([[data.frames[k].det()]]))
        chars.append([tuple(
            sum(u[j] for u in data.chars[k]) for j in range(data.fan.rank)
        )])
    return CocharBundleData.make(GroupSpec("GL", 1), data.fan, frames, chars)
