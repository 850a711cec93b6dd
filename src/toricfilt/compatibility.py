"""Per-cone compatibility of filtration data, with certificates.

Compatibility of the ray chains of a cone means: the fiber decomposes into
pieces graded by character classes of the cone's quotient lattice such that
every ray chain is the sum of the pieces whose character pairs at least the
chain index against that ray (the reconstruction equation).

Graded pieces decide it.  For a jump tuple t, W(t) is the intersection of the
chains at t, covered(t) is the sum of W over the immediate successors of t
(one coordinate raised to its next jump index), and the piece at t is a
deterministic complement of covered(t) in W(t).  Over the cone's product grid
the pieces always span the fiber, and dim piece(t) is the multiplicity of t
in any adapted splitting; so the chains split exactly when the piece
dimensions add up to the fiber dimension, and then the pieces rebuild every
chain (Klyachko 1990; Payne 2008).

The decision procedure is two-valued, and the first step that fails names
the refutation:

1. Reconstruction.  The piece dimensions exceed the fiber dimension, so no
   grading of the fiber is adapted to all chains, not even a rational one.
   This is decided before any integral character is solved.

2. Integrality.  The pieces are direct, so the chains split over Q, but the
   first nonzero piece (in grid order) whose tuple admits no integral
   character is reported: the rational splitting is not integral.

3. Certificate.  Otherwise the pieces, graded by character class, are
   returned.  Certificates are always re-verified, and a failed
   re-verification raises instead of becoming a verdict.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import InputError
from .fans import Cone, CharQuotient
from .filtrations import FiltrationData, RayFiltration
# `intersect` is unused here, but perfbench's tests read this module's copy
# of it to check that the tracer also wraps re-imported bindings
from .linalg import (  # noqa: F401
    Subspace,
    complement_in,
    intersect,
    intersect_all,
    span_canonical,
    sum_all,
    tensor_product,
)
from .lattice import solve_integer

VERDICT_CERTIFICATE = "certificate"
VERDICT_REFUTATION = "refutation"


@dataclass(frozen=True)
class ConeDecomposition:
    """Certificate: graded pieces (character representative, subspace),
    sorted by character.  Characters are canonical representatives of their
    classes modulo the cone's perpendicular lattice."""

    ray_indices: Tuple[int, ...]
    pieces: Tuple[Tuple[Tuple[int, ...], Subspace], ...]


@dataclass(frozen=True)
class Refutation:
    kind: str      # "reconstruction" | "integrality"
    detail: dict


@dataclass(frozen=True)
class ConeCompatibility:
    ray_indices: Tuple[int, ...]
    verdict: str
    certificate: Optional[ConeDecomposition] = None
    refutation: Optional[Refutation] = None


def _sorted_cone_rays(data: FiltrationData, ray_indices: Sequence[int]) -> Tuple[int, ...]:
    idx = tuple(sorted(ray_indices))
    if len(set(idx)) != len(idx):
        raise InputError("repeated ray index in cone")
    if not all(0 <= i < len(data.fan.rays) for i in idx):
        raise InputError("cone not in fan: unknown ray index")
    return idx


def _cone_of(data: FiltrationData, idx: Tuple[int, ...]) -> Cone:
    cone = data.fan.cone(idx)
    if idx and set(cone.generators) != {data.fan.rays[i] for i in idx}:
        raise InputError("cone not in fan: listed rays are not its extreme rays")
    return cone


def _grid(data: FiltrationData, idx: Tuple[int, ...]):
    filts = [data.ray(i) for i in idx]
    for i, f in zip(idx, filts):
        if data.dim > 0 and not f.jumps:
            raise InputError(f"ray {i} carries no jumps; data is not a full filtration")
    tuples = list(itertools.product(*[f.jump_indices() for f in filts]))
    tuples.sort(key=lambda t: (-sum(t), t))  # fixes which integrality witness is reported
    return filts, tuples


def verify_cone_decomposition(data: FiltrationData,
                              ray_indices: Sequence[int],
                              dec: ConeDecomposition) -> Optional[str]:
    """Exact re-verification of a certificate; returns a reason on failure."""
    idx = _sorted_cone_rays(data, ray_indices)
    cone = _cone_of(data, idx)
    quotient = cone.quotient()
    r = data.dim

    total = 0
    for char, piece in dec.pieces:
        if piece.ambient != r or piece.dim == 0:
            return "certificate contains an empty or mismatched piece"
        if len(char) != data.fan.rank:
            return "character has wrong length"
        total += piece.dim
    if total != r:
        return "piece dimensions do not add up to the fiber dimension"
    if sum_all([p for _, p in dec.pieces], r).dim != r:
        return "pieces do not span the fiber"
    classes = [quotient.class_index(char) for char, _ in dec.pieces]
    if len(set(classes)) != len(classes):
        return "character classes are not pairwise distinct"

    for ray_idx in idx:
        ray = data.fan.rays[ray_idx]
        pairings = [sum(c * g for c, g in zip(char, ray)) for char, _ in dec.pieces]
        i = data.ray(ray_idx).first_difference(
            lambda j: sum_all(
                [piece for (_, piece), p in zip(dec.pieces, pairings) if p >= j], r
            ),
            pairings,
        )
        if i is not None:
            return f"reconstruction fails on ray {ray_idx} at index {i}"
    return None


def graded_pieces(filts: Sequence[RayFiltration],
                  tuples: Sequence[Tuple[int, ...]],
                  ambient: int) -> Dict[Tuple[int, ...], Subspace]:
    """The graded piece at each jump tuple t (one jump index per chain of
    `filts`): a deterministic complement, inside the intersection W(t) of
    the chains at t, of the sum of W over the immediate successors of t.
    W is monotone, so that sum is everything W(t) gets from strictly
    dominating tuples."""
    next_index = [dict(zip(f.jump_indices(), f.jump_indices()[1:])) for f in filts]
    w: Dict[Tuple[int, ...], Subspace] = {}

    def meet(t: Tuple[int, ...]) -> Subspace:
        if t not in w:
            w[t] = intersect_all(
                [f.value(i) for f, i in zip(filts, t)], ambient
            ) if t else Subspace.full(ambient)
        return w[t]

    pieces: Dict[Tuple[int, ...], Subspace] = {}
    for t in tuples:
        rows = []
        for k, i in enumerate(t):
            up = next_index[k].get(i)
            if up is not None:
                rows.extend(meet(t[:k] + (up,) + t[k + 1:]).basis)
        pieces[t] = complement_in(span_canonical(rows, ambient), meet(t))
    return pieces


def _integral_character(data: FiltrationData, idx: Tuple[int, ...],
                        t: Tuple[int, ...]) -> Optional[Tuple[int, ...]]:
    if not idx:
        return tuple([0] * data.fan.rank)
    rows = [data.fan.rays[i] for i in idx]
    return solve_integer(rows, list(t))


def cone_compatibility(data: FiltrationData,
                       ray_indices: Sequence[int]) -> ConeCompatibility:
    """Two-valued compatibility check for one cone; see module docstring."""
    idx = _sorted_cone_rays(data, ray_indices)
    quotient = _cone_of(data, idx).quotient()
    r = data.dim

    filts, tuples = _grid(data, idx)
    pieces = graded_pieces(filts, tuples, r)
    nonzero = [t for t in tuples if pieces[t].dim > 0]
    graded_dim = sum(pieces[t].dim for t in nonzero)
    if graded_dim > r:
        return ConeCompatibility(
            idx, VERDICT_REFUTATION,
            refutation=Refutation(
                "reconstruction",
                {"rays": list(idx), "graded_dim": graded_dim, "fiber_dim": r},
            ),
        )

    chars: Dict[Tuple[int, ...], Tuple[int, ...]] = {}
    for t in nonzero:
        chars[t] = _integral_character(data, idx, t)
        if chars[t] is None:
            return ConeCompatibility(
                idx, VERDICT_REFUTATION,
                refutation=Refutation(
                    "integrality",
                    {"tuple": list(t), "rays": list(idx), "piece_dim": pieces[t].dim},
                ),
            )

    cert_pieces = sorted(
        (quotient.canonical_representative(chars[t]), pieces[t]) for t in nonzero
    )
    dec = ConeDecomposition(idx, tuple(cert_pieces))
    reason = verify_cone_decomposition(data, idx, dec)
    if reason is not None:
        raise RuntimeError(f"graded pieces of cone {list(idx)} fail re-verification: "
                           f"{reason}")
    return ConeCompatibility(idx, VERDICT_CERTIFICATE, certificate=dec)


@dataclass(frozen=True)
class GlobalCompatibilityReport:
    verdict: str  # "compatible" | "incompatible"
    cones: Tuple[ConeCompatibility, ...]


def global_compatibility(data: FiltrationData) -> GlobalCompatibilityReport:
    """Run the per-cone check on every maximal cone (sub-cone decompositions
    are induced by maximal ones, so maximal cones suffice)."""
    results = tuple(cone_compatibility(data, idx) for idx in data.fan.maximal_cones)
    refuted = any(c.verdict == VERDICT_REFUTATION for c in results)
    return GlobalCompatibilityReport("incompatible" if refuted else "compatible", results)


def tensor_certificate(cert_a: ConeDecomposition,
                       cert_b: ConeDecomposition,
                       quotient: CharQuotient) -> ConeDecomposition:
    """Merge two certificates on the same cone into one for the tensor product:
    pieces are tensor products of pieces, graded by the sum of the characters."""
    if cert_a.ray_indices != cert_b.ray_indices:
        raise InputError("certificates belong to different cones")
    merged: Dict[Tuple[int, ...], List[Subspace]] = {}
    reps: Dict[Tuple[int, ...], Tuple[int, ...]] = {}
    for char_a, piece_a in cert_a.pieces:
        for char_b, piece_b in cert_b.pieces:
            s = tuple(x + y for x, y in zip(char_a, char_b))
            rep = quotient.canonical_representative(s)
            key = quotient.class_index(rep)
            merged.setdefault(key, []).append(tensor_product(piece_a, piece_b))
            reps[key] = rep
    ambient = (
        (cert_a.pieces[0][1].ambient if cert_a.pieces else 0)
        * (cert_b.pieces[0][1].ambient if cert_b.pieces else 0)
    )
    pieces = tuple(
        sorted((reps[key], sum_all(parts, ambient)) for key, parts in merged.items())
    )
    return ConeDecomposition(cert_a.ray_indices, pieces)
