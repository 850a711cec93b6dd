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

The chains must be full and nested: `cone_compatibility` refuses a chain
that is not (`RayFiltration.require_valid`, which raises the first of the
chain's issues, decided when the data entered), naming its fan ray,
before the pieces are built, and the torus check passes chains that are
valid by construction.  Nesting makes W monotone, so the stored
dimensions settle most tuples: W(t) = 0 gives the piece W(t), no nonzero
successor gives W(t), and the piece is 0 when a successor is as large as
W(t) or when two successors span W(t), which inclusion–exclusion counts
from the dimension of their meet, W at t raised in both coordinates.
Only the tuples left take a complement, which places the rows of all
their nonzero successors into one echelon form with no sum spanned first
(`linalg.complement_in`).  W is kept under the integer grid position of
its tuple, one dict per depth, so a successor or a pair is an offset.
No step takes a kernel.  A grid line (all tuples that differ only in the
last index) whose prefix meet is zero or the whole fiber costs nothing,
and one whose prefix meet is a line is settled by reducing that line's
row against the chain's values.  The meets W(t) of any other line come
from one Zassenhaus sweep of that chain's adapted rows, which the chain
keeps for every cone that lists its ray (`linalg.levelled_meets`, which
spans a meet to canonical rows only when it grows), and a complement
decides its own containment guard from the ranks it counts.  A line
depends only on its chain and its prefix meet, so the chain keeps each
line it is asked for in a memo keyed by the canonical rows of that meet
(`_lines`): cones that share a ray and meet its chain with the same
prefix, and later checks of the same data, sweep it once.

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
   re-verification raises instead of becoming a verdict.  The integral
   characters of one cone come from one Smith form of its generators,
   composed into one integer matrix over one denominator, which the cone
   keeps (`Cone.integer_solver`, next to `Cone.quotient`), so a fan's
   cones build their lattice data once per process and each character is
   one matrix-vector product and a divisibility test.  A check
   looks its cone up once and hands it to the solver and the verifier.
   Every maximal cone of a complete fan is full-dimensional, so its
   character classes are the characters themselves (`fans.CharQuotient`).

The verifier forms no sum: it checks that the pieces are a direct sum of
the fiber from their dimensions and the rank of their rows (`linalg.rank`,
which reads no canonical row), then tests the reconstruction equation
on each ray with `RayFiltration.reconstruction_failure`, which compares
dimensions and tests containment (`_rebuild_failure`): on a valid chain
one counted pass tests each piece once, in the value at its own level,
by reducing its rows against the value's canonical rows, and only a
failure scans the probes for the first failing index.  So the verifier
takes no kernel either.  The torus check of `reduction` decides through
the same helper, and the ray consistency of bundle data
(`bundles.associated_klyachko`) through the same reconstruction test.

A cone has two budgets, which `_grid` checks first (InputError, exit
code 2): the fiber dimension may not exceed MAX_FIBER_DIM, and the
product of its rays' jump counts, its grid, may not exceed MAX_GRID.  The
grid bounds the number of jump tuples, the fiber dimension the work per
grid line.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from math import prod
from operator import mul
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .errors import InputError
from .fans import Cone
from .filtrations import FiltrationData, RayFiltration
# `intersect` is unused here, but perfbench's tests read this module's copy
# of it to check that the tracer also wraps re-imported bindings
from .linalg import (  # noqa: F401
    Subspace,
    _held,
    cached_on_instance,
    complement_in,
    intersect,
    levelled_meets,
    rank,
    record,
)
from .lattice import integer_solver

VERDICT_CERTIFICATE = "certificate"
VERDICT_REFUTATION = "refutation"
# budget on a cone's grid, the product of its rays' jump counts: 8^4, a
# square cone carrying full flags in Q^8; the benchmark corpora reach 1728,
# and the tests 625 apart from the budget's own boundary cases
MAX_GRID = 4096
# budget on the fiber dimension of a cone's data, which the time of the
# sweeps and complements follows (a P^3 cone of generic flags in Q^16 on a
# grid of MAX_GRID takes about 0.3 s, in Q^32 about 2.6 s); the benchmark
# corpora and the tests reach 10
MAX_FIBER_DIM = 16


@record
class ConeDecomposition:
    """Certificate: graded pieces (character representative, subspace),
    sorted by character.  Characters are canonical representatives of their
    classes modulo the cone's perpendicular lattice."""

    ray_indices: Tuple[int, ...]
    pieces: Tuple[Tuple[Tuple[int, ...], Subspace], ...]


@record
class Refutation:
    kind: str      # "reconstruction" | "integrality"
    detail: dict


@record
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
    """The cone's chains, each refused unless valid, and its jump tuples
    in visiting order.  The cone has two budgets, checked first, before a
    tuple is listed or a piece built: data of fiber dimension over
    MAX_FIBER_DIM, and a cone whose rays' jump counts multiply to more
    than MAX_GRID, are refused with InputError."""
    if data.dim > MAX_FIBER_DIM:
        raise InputError(f"fiber dimension is over budget: {data.dim} > {MAX_FIBER_DIM}")
    filts = [data.ray(i) for i in idx]
    size = prod(len(f.jumps) for f in filts)
    if size > MAX_GRID:
        raise InputError(f"cone grid is over budget: {size} jump tuples > {MAX_GRID}")
    for i, f in zip(idx, filts):
        f.require_valid(i)
    tuples = list(itertools.product(*[f.jump_indices() for f in filts]))
    tuples.sort(key=lambda t: (-sum(t), t))  # fixes which integrality witness is reported
    return filts, tuples


def verify_cone_decomposition(data: FiltrationData,
                              ray_indices: Sequence[int],
                              dec: ConeDecomposition) -> Optional[str]:
    """Exact re-verification of a certificate; returns a reason on failure.

    Once the piece dimensions add up to the fiber dimension and the pieces
    span it (the rank of their rows, `linalg.rank`), the pieces are a
    direct sum, which is the precondition of
    `RayFiltration.reconstruction_failure`; each ray's chain is then
    tested against the pieces, levelled by their pairings with the ray.
    The cone is looked up here, once; `cone_compatibility` passes its own
    lookup to the same check (`_verify`)."""
    idx = _sorted_cone_rays(data, ray_indices)
    return _verify(data, idx, _cone_of(data, idx), dec)


def _verify(data: FiltrationData, idx: Tuple[int, ...], cone: Cone,
            dec: ConeDecomposition) -> Optional[str]:
    """`verify_cone_decomposition` on sorted rays `idx` and their cone."""
    quotient = cone.quotient()
    r = data.dim

    for char, piece in dec.pieces:
        if piece.ambient != r or piece.dim == 0:
            return "certificate contains an empty or mismatched piece"
        if len(char) != data.fan.rank:
            return "character has wrong length"
    failure = _rebuild_failure([piece for _, piece in dec.pieces], r, (
        (data.ray(i), [sum(map(mul, char, data.fan.rays[i])) for char, _ in dec.pieces])
        for i in idx))
    if isinstance(failure, str):
        return failure
    classes = [quotient.class_index(char) for char, _ in dec.pieces]
    if len(set(classes)) != len(classes):
        return "character classes are not pairwise distinct"
    if failure is not None:
        k, j = failure
        return f"reconstruction fails on ray {idx[k]} at index {j}"
    return None


def _rebuild_failure(pieces: Sequence[Subspace], dim: int,
                     chains: Iterable[Tuple[RayFiltration, Sequence[int]]]
                     ) -> Union[None, str, Tuple[int, int]]:
    """None when `pieces` are a direct sum of Q^dim that rebuilds every
    chain of the (chain, levels) pairs of `chains`, the pieces at
    `levels`; otherwise the first failure, in the verifier's words when
    their dimensions do not add up to dim or their rows do not have full
    rank (`linalg.rank`), else (k, j) when the k-th chain fails at index j
    (`RayFiltration.reconstruction_failure`, which needs the direct sum
    that the first two tests establish).  The certificate verifier and the
    torus check of `reduction` both decide through it."""
    if sum(p.dim for p in pieces) != dim:
        return "piece dimensions do not add up to the fiber dimension"
    if rank([row for p in pieces for row in p.rows], dim) != dim:
        return "pieces do not span the fiber"
    for k, (chain, levels) in enumerate(chains):
        j = chain.reconstruction_failure(pieces, levels)
        if j is not None:
            return k, j
    return None


@cached_on_instance
def _lines(f: RayFiltration) -> Dict[Tuple[Tuple[int, ...], ...], List[Subspace]]:
    """The grid lines of the chain `f` computed so far, keyed by the
    canonical rows of their prefix meet: the meets of that space with every
    value of `f`, then zero.  The memo is kept on the chain, so every cone
    that lists its ray, and every later check of the same data, reads a
    line that any of them has computed."""
    return {}


@cached_on_instance
def _sweep_rows(f: RayFiltration) -> Tuple[int, List[Tuple[int, Tuple[int, ...]]]]:
    """(k, rows): the chain's first k jump positions meet every subspace in
    that subspace, and `rows` are the adapted rows of the nested chain `f`
    that a sweep needs for the others.  A first value that is the whole
    fiber is such a position (k = 1), and its rows are left out.  They are
    kept on the chain, so every cone that lists its ray sweeps the same
    rows.  `graded_pieces` sweeps only a prefix meet of dimension 2 or
    more; a zero, full or one-dimensional prefix meet needs no rows."""
    rows = f.adapted_rows()
    if f.jumps and f.jumps[0][1].dim == f.dim:
        first = f.jumps[0][0]
        return 1, [(i, row) for i, row in rows if i != first]
    return 0, rows


def graded_pieces(filts: Sequence[RayFiltration],
                  tuples: Sequence[Tuple[int, ...]],
                  ambient: int) -> Dict[Tuple[int, ...], Subspace]:
    """The graded piece at each jump tuple t (one level per chain of
    `filts`): a deterministic complement, inside the intersection W(t) of
    the chains at t, of the sum of W over the immediate successors of t.
    W is monotone, so that sum is everything W(t) gets from strictly
    dominating tuples.

    The chains must be nested, which is not checked here: `_grid` refuses a
    cone's chain that is not valid, and the chains of bundle data are nested
    by construction (spans of ever fewer frame columns).  Then every
    successor lies in W(t), and the dimensions settle most tuples without a
    sum: the piece is W(t) when W(t) is zero or no successor is nonzero, and
    zero when the successors are seen to cover W(t) by counting.  One successor
    as large as W(t) covers it.  So does a pair: write e_a for coordinate a
    raised to its next jump; nesting gives W(t+e_a) ∩ W(t+e_b) =
    W(t+e_a+e_b), since each chain's meet of two of its values is the
    smaller one, and dim(U + V) = dim U + dim V - dim(U ∩ V) then reads
    dim(W(t+e_a) + W(t+e_b)) off three stored dimensions.  The sum lies in
    W(t), so it is W(t) exactly when that count reaches dim W(t).  A pair
    is counted only when W(t+e_a+e_b) is already stored, so counting
    never adds a sweep.  It is there when b is the last chain, whose grid
    line was built with W(t+e_a), so on two chains every zero piece is
    counted; and on a cone's grid, which `_grid` orders by descending sum,
    t+e_a+e_b was visited before t.  Only a piece that no count settles is
    a complement, of the sum of its nonzero successors: `linalg.complement_in`
    places their rows as they are, with no sum spanned, and keeps the rows
    of W(t) that add rank.

    W is kept on integer grid positions.  A level is placed at the first
    jump at or above it, whose value the chain takes there, and a level
    past the last jump at zero; so chain k has the positions 0..m_k for its
    m_k jumps, and the torus universe, whose levels are arbitrary, shares
    the grid of jump positions.  The first k+1 positions of a tuple are
    read as one mixed-radix number whose last digit has stride 1, and W at
    them is kept in the k-th of one dict per depth under that number: a
    grid line (the tuples that differ only in coordinate k) is m_k + 1
    consecutive numbers, the successor in coordinate a is the number plus
    stride[a], and a pair reads the number plus stride[a] + stride[b].  A
    dict holds only the lines that are read, where a dense list would hold
    the whole grid, which for a torus universe is the product over every
    ray of the fan.

    No meet takes a kernel.  W(t) = W(t') ∩ chain_k(t_k), t' the first k
    positions of t, and the meets of W(t') with every value of chain k (a
    line) are computed when one of them is first read; a stored meet is
    read from its dict.  The first chain's line is its own values.  A line
    whose W(t') is zero or the whole fiber costs nothing.  When W(t') is a
    line spanned by v, each meet is W(t') or zero, and the chain's values
    decrease, so the line is W(t') up to the last value that holds v and
    zero after it; whether a value holds v is decided by reducing v
    against its canonical rows (`linalg._held`).  Otherwise one sweep of
    the chain's adapted rows (`linalg.levelled_meets`) gives the whole
    line.  A chain's adapted rows are built for its first sweep, and each
    line of these two kinds is kept on the chain (`_sweep_rows`,
    `_lines`), so another grid that reaches the same prefix meet reads it
    from the memo."""
    if not filts:
        return {t: Subspace.full(ambient) for t in tuples}
    indices = [f.jump_indices() for f in filts]
    followed = [set(js[:-1]) for js in indices]
    radix = [len(js) + 1 for js in indices]
    below = [1]  # below[k]: the grid positions that share one prefix of k positions
    for r in reversed(radix):
        below.append(below[-1] * r)
    below.reverse()
    stride = below[1:]
    zero = Subspace.zero(ambient)
    # w[k]: W at the grid positions of the first k + 1 chains; the first
    # chain's line is its own values
    w: List[Dict[int, Subspace]] = [dict(enumerate([s for _, s in filts[0].jumps] + [zero]))]
    w += [{} for _ in filts[1:]]
    last = w[-1]

    def line(space: Subspace, f: RayFiltration) -> List[Subspace]:
        dim = len(space.rows)
        if not dim:
            return [zero] * (len(f.jumps) + 1)
        if dim == ambient:
            return [s for _, s in f.jumps] + [zero]
        memo = _lines(f)
        found = memo.get(space.rows)
        if found is None:
            if dim == 1:
                v = space.rows[0]
                held = 0
                for _, value in f.jumps:
                    if not _held(value, (v,)):
                        break
                    held += 1
                found = [space] * held + [zero] * (len(f.jumps) + 1 - held)
            else:
                skipped, rows = _sweep_rows(f)
                found = ([space] * skipped
                         + [m for _, m in reversed(levelled_meets(space, rows))] + [zero])
            memo[space.rows] = found
        return found

    def meet(idx: int) -> Subspace:
        k = len(filts) - 1
        while idx // below[k] not in w[k - 1]:
            k -= 1
        for k in range(k, len(filts)):
            prefix = idx // below[k]
            start = prefix * radix[k]
            w[k].update(zip(range(start, start + radix[k]), line(w[k - 1][prefix], filts[k])))
        return last[idx]

    def covered(idx: int, dim: int, successors: List[Tuple[int, Subspace]]) -> bool:
        if any(len(s.rows) == dim for _, s in successors):
            return True
        for (a, sa), (b, sb) in itertools.combinations(successors, 2):
            both = last.get(idx + stride[a] + stride[b])
            if both is not None and len(sa.rows) + len(sb.rows) - len(both.rows) == dim:
                return True
        return False

    pieces: Dict[Tuple[int, ...], Subspace] = {}
    for t in tuples:
        idx = sum(map(mul, map(bisect_left, indices, t), stride))
        whole = last.get(idx) or meet(idx)  # a Subspace is never false
        dim = len(whole.rows)
        successors: List[Tuple[int, Subspace]] = []
        if dim:
            for k, i in enumerate(t):
                if i in followed[k]:
                    s = last.get(idx + stride[k]) or meet(idx + stride[k])
                    if s.rows:
                        successors.append((k, s))
        if not successors:
            pieces[t] = whole
        elif covered(idx, dim, successors):
            pieces[t] = zero
        else:
            pieces[t] = complement_in([s for _, s in successors], whole)
    return pieces


def _character_solver(data: FiltrationData, idx: Tuple[int, ...],
                      cone: Optional[Cone] = None):
    """t -> an integral character pairing to t_k with ray idx[k], or None;
    the cone's solver (`Cone.integer_solver`, one Smith form per cone)
    serves every t, its rays being the cone's generators, which are sorted
    by value.  A cone that repeats a ray (which `fans.validate_fan` flags)
    has fewer generators than rays and gets a solver of its own.  `cone`
    is the cone of `idx` when the caller has looked it up already."""
    if not idx:
        return lambda t: tuple([0] * data.fan.rank)
    rows = [data.fan.rays[i] for i in idx]
    if cone is None:
        cone = _cone_of(data, idx)
    if len(cone.generators) < len(rows):
        return integer_solver(rows)
    order = sorted(range(len(rows)), key=rows.__getitem__)
    solver = cone.integer_solver()
    return lambda t: solver([t[k] for k in order])


def cone_compatibility(data: FiltrationData,
                       ray_indices: Sequence[int]) -> ConeCompatibility:
    """Two-valued compatibility check for one cone; see module docstring."""
    idx = _sorted_cone_rays(data, ray_indices)
    cone = _cone_of(data, idx)
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

    solver = _character_solver(data, idx, cone)
    chars: Dict[Tuple[int, ...], Tuple[int, ...]] = {}
    for t in nonzero:
        chars[t] = solver(t)
        if chars[t] is None:
            return ConeCompatibility(
                idx, VERDICT_REFUTATION,
                refutation=Refutation(
                    "integrality",
                    {"tuple": list(t), "rays": list(idx), "piece_dim": pieces[t].dim},
                ),
            )

    quotient = cone.quotient()
    cert_pieces = sorted(
        (quotient.canonical_representative(chars[t]), pieces[t]) for t in nonzero
    )
    dec = ConeDecomposition(idx, tuple(cert_pieces))
    reason = _verify(data, idx, cone, dec)
    if reason is not None:
        raise RuntimeError(f"graded pieces of cone {list(idx)} fail re-verification: "
                           f"{reason}")
    return ConeCompatibility(idx, VERDICT_CERTIFICATE, certificate=dec)


@record
class GlobalCompatibilityReport:
    verdict: str  # "compatible" | "incompatible"
    cones: Tuple[ConeCompatibility, ...]


def global_compatibility(data: FiltrationData) -> GlobalCompatibilityReport:
    """Run the per-cone check on every maximal cone (sub-cone decompositions
    are induced by maximal ones, so maximal cones suffice)."""
    results = tuple(cone_compatibility(data, idx) for idx in data.fan.maximal_cones)
    refuted = any(c.verdict == VERDICT_REFUTATION for c in results)
    return GlobalCompatibilityReport("incompatible" if refuted else "compatible", results)
