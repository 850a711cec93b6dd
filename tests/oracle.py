"""Independent reference implementations for the tests.

- `Eliminator`, `reference_complement` and `level_of`: incremental Gaussian
  elimination for independence bookkeeping, the greedy complement walk that
  `toricfilt.linalg.complement_in` must agree with, and the exact level of
  a vector in a ray chain.  They decide independence with no elimination
  from the package.
- `reference_rref`, `reference_det` and `reference_reduce`: elimination
  over Fractions, which the integer elimination of `toricfilt.linalg`
  (read through `Subspace.basis`), `QMatrix.det` and `Subspace.contains`
  must agree with.
- `reference_inverse` and `reference_product`: the inverse of a matrix as
  the right block of the `reference_rref` of [m | 1], and products entry
  by entry over Fractions.  The package has neither (it never multiplies
  or inverts a frame), so the transitions, the frame-change scan and
  `change_basis` below share no elimination with it.
- `reference_kernel` and `reference_intersection`: kernels and
  intersections from `reference_rref`, which the one-pass kernel and the
  short paths of `toricfilt.linalg.intersect_all` must agree with.
- `reference_dual_description`: the double description method over
  Fractions with its ranks from `reference_rref`, which the integer pass
  `toricfilt.fans.dual_description` must agree with.
- `reference_cone` and `reference_is_face_of`: extreme rays and faces
  computed by a second pass of `reference_dual_description` over the
  supporting covectors, which `toricfilt.fans` reads off ranks instead.
- `first_chain_difference`: the first probe at which a chain differs from
  a function of the index, compared value by value, with no
  `reconstruction_failure`; the references below that rebuild chains, and
  the span reference for `reconstruction_failure` in the tests, compare
  through it.
- `reference_graded_pieces` and `reference_verify_cone_decomposition`:
  the graded pieces with the oracle's own greedy complement
  (`reference_complement`) of all successors at every tuple, and the
  certificate check that rebuilds every chain as a sum of pieces, which
  the dimension shortcuts and the complements of `toricfilt.compatibility`
  and the count-and-product test `RayFiltration.reconstruction_failure`
  must agree with.
- `reference_splitting_reconstructs`: the torus-splitting check that spans
  the lines of each level at every probe of every chain, which
  `toricfilt.reduction.check_torus_reduction` (a direct-sum test, then
  `reconstruction_failure`) must agree with.
- `tensor_product` and `reference_tensor`: the tensor product of two
  subspaces as the Kronecker products of their canonical rows, and that of
  filtration data as the sum over p + q = j of the Kronecker products of
  the operand chains, one elimination per candidate level, which the
  adapted-basis construction of `toricfilt.filtrations.tensor` must agree
  with.
- `change_basis`: filtration data rewritten in new fiber coordinates, the
  span of every chain value's rows times an invertible matrix
  (`reference_product`); the tests use it to compare data that differ by a
  frame.
- `graded_decomposition`, `tensor_certificate` and
  `canonical_cone_decomposition`: decompositions of a cone built from
  subspaces labelled by characters, not from the chains, with the sum of
  each class's subspaces as its piece: the merged certificate of a tensor
  product (Nori's tensor structure adds the characters) and the
  decomposition that the frame columns of bundle data induce, which
  `toricfilt.compatibility.verify_cone_decomposition` must accept.
- `exhaustive_adapted_search`: an exhaustive backtracking search over
  decompositions adapted to all ray chains of a cone, the oracle for the
  compatibility checker.  It shares no logic with the graded-piece
  construction, only the input checks, the integral-character solver and
  the reference certificate re-verification.
- `coproduct` and the three `reference_*` algebra checks: the quadratic scans
  over all basis pairs and expanded coproducts of a per-monomial weight
  table, which the constant checks and the piece dimensions of
  `toricfilt.algebras` must agree with; `weight_table` grades a
  truncation monomial by monomial from its row characters, and the scans
  take any other table, such as the column convention's or one with a
  weight moved, which a `TruncatedAlgebra` cannot hold.  `products` is the
  product table of the basis as index triples, and `multiply`, `generator`,
  `level`, `row_degrees` and `chain_members` are the products, matrix
  entries, ray levels, row degrees and ray chains of a truncation,
  monomial by monomial.
- `reference_integer_solution`: one integral solution of A x = b solved
  coordinatewise from the Smith form, y = D⁺ U b with zeros on the free
  coordinates and x = V y, which the composed matrix of
  `toricfilt.lattice.integer_solver` must return exactly.
- `reference_class_index` and `reference_canonical_representative`: the
  class and representative of a character read entry by entry from the
  rows of `v` and `v_inv`, which `toricfilt.fans.CharQuotient` must agree
  with; the reference algebra scans take classes from them.
- `transition`, `reference_gluing`, `transition_at` and `evaluate_laurent`:
  the symbolic expansion of a transition as a matrix of Laurent polynomials,
  the gluing check on every expanded exponent that `check_gluing` must agree
  with, a transition evaluated at a rational torus point
  (`random_torus_point`) straight from the frames and characters, and the
  expansion evaluated at the same point; `transition_breaks_on_ray` reads
  off the expansion whether the two cones of a ray-consistency witness
  fail to glue across its ray.
- `reference_frame_change_scan`: the frame-change scan run on every pair,
  each frame change g_s^-1 g_t from `reference_inverse` and
  `reference_product`, whose verdict `check_gluing`, decided by ray
  consistency, must equal; its witness names a frame entry, which the
  package no longer reports.
- `reference_ray_witness`: ray consistency with both chains of each
  (cone, ray) incidence spanned level by level over Fractions and diffed,
  whose witness `toricfilt.bundles.RayConsistencyError` must carry; the
  package builds one chain per ray and tests every later cone's frame
  lines against it with `reconstruction_failure`.
- `reference_universe`: the torus universe R as the product of each
  ray's candidate levels filtered by each cone's level tuples, which
  `toricfilt.reduction._realized_tuples` must return, in the same order;
  the package joins the cones' tuples one cone at a time.
- `bundle_tensor`, `bundle_dual` and `bundle_sum`: E ⊗ F, E* and E ⊕ F of
  bundle data, frame by frame and character by character (Kronecker,
  inverse-transpose and block-diagonal frames).  Klyachko's functor
  respects the three operations, so `associated_klyachko` of each must
  equal `tensor`, `dual` and `direct_sum` of the associated data: a route
  to the calculus of `toricfilt.filtrations` that shares no code with it.
- `reference_parse_rational` and the three `reference_*_from_obj`
  loaders: rational literals parsed by `Fraction(str)` after an
  ASCII-digit pattern, and files read through it, `QMatrix.from_rows` and
  `span_canonical`, which the integer literal reader of
  `toricfilt.serialize` must agree with, in values and in error messages.
- `dataclass_twin`: `dataclasses.dataclass(frozen=True)` applied to the
  annotations, defaults and `__post_init__` of a class made by
  `toricfilt.linalg.record`, which the record must behave like.
"""

import dataclasses
import itertools
import os
import re
from fractions import Fraction
from math import lcm
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from toricfilt.algebras import Mono, TruncatedAlgebra, Weight
from toricfilt.bundles import CocharBundleData, GluingReport, GroupSpec
from toricfilt.compatibility import (
    ConeDecomposition,
    _character_solver,
    _cone_of,
    _grid,
    _sorted_cone_rays,
)
from toricfilt.errors import InputError
from toricfilt.fans import CharQuotient, Cone, Fan, NotPointedError, cone_intersection
from toricfilt.lattice import (
    hermite_normal_form,
    integer_kernel_basis,
    primitive_vector,
    smith_normal_form,
)
from toricfilt.filtrations import FiltrationData, RayFiltration
from toricfilt.linalg import (
    QMatrix,
    Subspace,
    column_lines,
    intersect_all,
    span_canonical,
    sum_all,
)
from toricfilt.serialize import fan_from_obj, load_fan


# ---------------------------------------------------------------------------
# elimination


class Eliminator:
    """Incremental Gaussian elimination used for independence bookkeeping."""

    def __init__(self, ambient: int, seed: Sequence[Sequence[Fraction]] = ()):
        self.ambient = ambient
        self.rows: List[Tuple[int, Tuple[Fraction, ...]]] = []  # (pivot column, normalized row)
        for v in seed:
            self.add(v)

    def residue(self, v: Sequence[Fraction]) -> Tuple[Fraction, ...]:
        w = [Fraction(x) for x in v]
        for lead, row in self.rows:
            c = w[lead]
            if c != 0:
                for j in range(lead, self.ambient):
                    w[j] -= c * row[j]
        return tuple(w)

    def add(self, v: Sequence[Fraction]) -> bool:
        """Insert v; returns True when v was independent of the rows so far."""
        w = self.residue(v)
        lead = next((j for j, x in enumerate(w) if x != 0), None)
        if lead is None:
            return False
        inv = 1 / w[lead]
        self.rows.append((lead, tuple(x * inv for x in w)))
        return True

    @property
    def rank(self) -> int:
        return len(self.rows)


def reference_complement(inners: Sequence[Subspace], outer: Subspace) -> Subspace:
    """Walk the canonical basis of `outer` in order and keep each vector
    that is independent of the spaces `inners` plus the vectors already
    kept."""
    elim = Eliminator(outer.ambient, [row for inner in inners for row in inner.basis])
    picked = [row for row in outer.basis if elim.add(row)]
    return span_canonical(picked, outer.ambient)


def reference_rref(rows: Sequence[Sequence[Fraction]],
                   ncols: int) -> Tuple[Tuple[Tuple[Fraction, ...], ...], Tuple[int, ...]]:
    """Gauss-Jordan over Fractions: (nonzero rows, pivot columns)."""
    mat: List[List[Fraction]] = [[Fraction(x) for x in r] for r in rows]
    pivots: List[int] = []
    prow = 0
    for col in range(ncols):
        pr = next((r for r in range(prow, len(mat)) if mat[r][col] != 0), None)
        if pr is None:
            continue
        mat[prow], mat[pr] = mat[pr], mat[prow]
        inv = 1 / mat[prow][col]
        mat[prow] = [x * inv for x in mat[prow]]
        for r in range(len(mat)):
            if r != prow and mat[r][col] != 0:
                f = mat[r][col]
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[prow])]
        pivots.append(col)
        prow += 1
        if prow == len(mat):
            break
    return tuple(tuple(r) for r in mat[:prow]), tuple(pivots)


def _canonical_rows(rows: Sequence[Sequence[Fraction]], ncols: int) -> Tuple[Tuple[int, ...], ...]:
    """The RREF of `rows` over Fractions, each row scaled to a primitive
    integer row with a positive pivot: the rows a `Subspace` stores."""
    out = []
    for row in reference_rref(rows, ncols)[0]:
        scale = lcm(*[x.denominator for x in row])
        ints = [int(x * scale) for x in row]
        out.append(tuple(primitive_vector(ints)))
    return tuple(out)


def reference_kernel(rows: Sequence[Sequence[Fraction]], ncols: int) -> Subspace:
    """{x : M x = 0}: one generator per free column of the Fraction RREF of
    M, brought to canonical rows by a second Fraction elimination."""
    reduced, pivots = reference_rref(rows, ncols)
    gens = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = [Fraction(int(j == f)) for j in range(ncols)]
        for row, p in zip(reduced, pivots):
            v[p] = -row[f]
        gens.append(v)
    return Subspace(ncols, _canonical_rows(gens, ncols))


def reference_intersection(spaces: Sequence[Subspace], ambient: int) -> Subspace:
    """The kernel of the stacked reference annihilators of `spaces`."""
    conditions = [row for s in spaces for row in reference_kernel(s.rows, ambient).rows]
    return reference_kernel(conditions, ambient)


def reference_det(rows: Sequence[Sequence[Fraction]]) -> Fraction:
    """Forward elimination over Fractions, the product of the pivots."""
    n = len(rows)
    m = [[Fraction(x) for x in r] for r in rows]
    result = Fraction(1)
    for c in range(n):
        pivot = next((r for r in range(c, n) if m[r][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            result = -result
        result *= m[c][c]
        inv = 1 / m[c][c]
        m[c] = [x * inv for x in m[c]]
        for r in range(c + 1, n):
            if m[r][c] != 0:
                f = m[r][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return result


def reference_inverse(m: QMatrix) -> QMatrix:
    """m^-1 as the right block of the Fraction RREF of [m | 1], whose left
    block must be the identity."""
    n = m.nrows
    if m.ncols != n:
        raise ValueError("inverse of a non-square matrix")
    rows = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(m.entries)]
    reduced, pivots = reference_rref(rows, 2 * n)
    if pivots[:n] != tuple(range(n)):
        raise ValueError("matrix is singular")
    return QMatrix.from_rows([row[n:] for row in reduced], n)


def reference_product(first: QMatrix, *rest: QMatrix) -> QMatrix:
    """The product of the matrices from left to right, each entry a sum of
    Fraction products."""
    out = first
    for m in rest:
        if out.ncols != m.nrows:
            raise ValueError("matrix shapes do not compose")
        out = QMatrix.from_rows(
            [[sum((a * row[j] for a, row in zip(r, m.entries)), Fraction(0))
              for j in range(m.ncols)] for r in out.entries], m.ncols)
    return out


def reference_reduce(space: Subspace, v: Sequence) -> Tuple[Fraction, ...]:
    """Residue of v after elimination by the RREF basis of `space`; zero
    exactly when v lies in it."""
    w = [Fraction(x) for x in v]
    for row in space.basis:
        lead = next(j for j, x in enumerate(row) if x != 0)
        c = w[lead]
        if c != 0:
            w = [a - c * b for a, b in zip(w, row)]
    return tuple(w)


def level_of(filt: RayFiltration, v: Sequence) -> int:
    """Largest i with v in the chain at i; requires a nonzero member vector."""
    best = None
    for j, s in filt.jumps:
        if not any(reference_reduce(s, v)):
            best = j
        else:
            break
    if best is None:
        raise ValueError("vector does not belong to the filtration's full space")
    return best


def reference_graded_pieces(filts: Sequence[RayFiltration],
                            tuples: Sequence[Tuple[int, ...]],
                            ambient: int) -> Dict[Tuple[int, ...], Subspace]:
    """The graded piece at every tuple t with no shortcut: the greedy
    complement (`reference_complement`), inside W(t), of the sum of W over
    all immediate successors of t."""
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
        successors = []
        for k, i in enumerate(t):
            up = next_index[k].get(i)
            if up is not None:
                successors.append(meet(t[:k] + (up,) + t[k + 1:]))
        pieces[t] = reference_complement(successors, meet(t))
    return pieces


def reference_verify_cone_decomposition(data: FiltrationData,
                                        ray_indices: Sequence[int],
                                        dec: ConeDecomposition) -> Optional[str]:
    """Re-verification that rebuilds every chain as the sum of the pieces
    pairing at least j and compares it with the chain at every probe."""
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
        i = first_chain_difference(
            data.ray(ray_idx),
            lambda j: sum_all(
                [piece for (_, piece), p in zip(dec.pieces, pairings) if p >= j], r
            ),
            pairings,
        )
        if i is not None:
            return f"reconstruction fails on ray {ray_idx} at index {i}"
    return None


def first_chain_difference(chain: RayFiltration, other: Callable[[int], Subspace],
                           changes: Iterable[int]) -> Optional[int]:
    """First probe at which `chain` differs from `other` (index -> subspace),
    or None.  `changes` must hold every i with other(i) != other(i + 1);
    the probes are the jump indices, `changes` and one past their maximum,
    sorted, and both sides are constant between consecutive probes."""
    probes = sorted(set(chain.jump_indices()) | set(changes))
    probes += [probes[-1] + 1] if probes else []
    return next((i for i in probes if chain.value(i) != other(i)), None)


def reference_splitting_reconstructs(kly: FiltrationData, lines: Sequence[tuple],
                                     levels: Sequence[Tuple[int, ...]]) -> bool:
    """n lines whose spans by level rebuild every chain at every probe; the
    chains are full, so the lines then span the fiber and are independent."""
    n = kly.dim
    return len(lines) == n and all(
        first_chain_difference(
            chain,
            lambda i: span_canonical([v for v, lv in zip(lines, levels) if lv[k] >= i], n),
            [lv[k] for lv in levels],
        ) is None
        for k, chain in enumerate(kly.filtrations)
    )


def tensor_product(a: Subspace, b: Subspace) -> Subspace:
    """Tensor product inside Q^(ra*rb) with the lexicographic e_i⊗f_j basis
    (index (i, j) maps to i*rb+j): the Kronecker products u⊗v of the stored
    rows, u of `a` and v of `b` in that order, with no elimination.

    These rows are canonical.  u⊗v is zero at (i, j) unless u[i] and v[j]
    are nonzero, so its first nonzero entry is at (pivot u, pivot v); in the
    order of (u, v) these pivots increase lexicographically.  At that
    column every other product u'⊗v' is u'[pivot u] v'[pivot v] = 0, because
    the rows of `a` (of `b`) are zero at each other's pivots.  So the rows
    are in RREF.  The content of u⊗v is content(u) content(v) = 1 (Gauss's
    lemma), and its pivot, a product of two positive pivots, is positive."""
    return Subspace(a.ambient * b.ambient,
                    tuple(tuple(x * y for x in u for y in v) for u in a.rows for v in b.rows))


def reference_tensor(a: FiltrationData, b: FiltrationData) -> FiltrationData:
    """The chain at j is the sum over p + q = j of the tensor products of the
    operand chains, for p over the jump indices of `a` and j over the sums
    of the two jump grids; the chains must be nested."""
    dim = a.dim * b.dim
    rays = []
    for fa, fb in zip(a.filtrations, b.filtrations):
        ja, jb = fa.jump_indices(), fb.jump_indices()
        pairs = [(j, sum_all([tensor_product(fa.value(p), fb.value(j - p)) for p in ja], dim))
                 for j in sorted({p + q for p in ja for q in jb})]
        rays.append(RayFiltration.make(dim, pairs))
    return FiltrationData.make(a.fan, dim, rays)


def change_basis(data: FiltrationData, m: QMatrix) -> FiltrationData:
    """Rewrite all subspaces in new coordinates: a fiber vector v becomes
    v @ m (row convention).  `m` must be invertible of size dim."""
    if m.nrows != data.dim or m.ncols != data.dim or reference_det(m.entries) == 0:
        raise InputError("basis change must be an invertible dim x dim matrix")
    rays = []
    for f in data.filtrations:
        pairs = []
        for i, s in f.jumps:
            moved = reference_product(QMatrix.from_rows(s.rows, data.dim), m)
            pairs.append((i, span_canonical(moved.entries, data.dim)))
        rays.append(RayFiltration.make(data.dim, pairs))
    return FiltrationData.make(data.fan, data.dim, rays)


def tensor_certificate(cert_a: ConeDecomposition,
                       cert_b: ConeDecomposition,
                       quotient: CharQuotient) -> ConeDecomposition:
    """Merge two certificates on the same cone into one for the tensor product:
    pieces are tensor products of pieces, graded by the sum of the characters."""
    if cert_a.ray_indices != cert_b.ray_indices:
        raise InputError("certificates belong to different cones")
    ambient = (
        (cert_a.pieces[0][1].ambient if cert_a.pieces else 0)
        * (cert_b.pieces[0][1].ambient if cert_b.pieces else 0)
    )
    return graded_decomposition(
        cert_a.ray_indices, quotient,
        ((tuple(x + y for x, y in zip(char_a, char_b)), tensor_product(piece_a, piece_b))
         for char_a, piece_a in cert_a.pieces for char_b, piece_b in cert_b.pieces),
        ambient)


def graded_decomposition(ray_indices: Sequence[int], quotient: CharQuotient,
                         parts: Iterable[Tuple[Tuple[int, ...], Subspace]],
                         ambient: int) -> ConeDecomposition:
    """The decomposition of a cone whose piece of each character class is the
    sum of the subspaces of `parts` (character, subspace) in that class.  A
    piece is keyed by its class's canonical representative, which the class
    determines, and the pieces are sorted by it."""
    classes: Dict[Tuple[int, ...], List[Subspace]] = {}
    for char, space in parts:
        classes.setdefault(quotient.canonical_representative(char), []).append(space)
    return ConeDecomposition(tuple(ray_indices), tuple(sorted(
        (rep, sum_all(spaces, ambient)) for rep, spaces in classes.items())))


def canonical_cone_decomposition(data: CocharBundleData, k: int) -> ConeDecomposition:
    """The decomposition induced by the frame columns of cone k, graded by the
    character classes of its quotient lattice."""
    fan = data.fan
    return graded_decomposition(
        fan.maximal_cones[k], fan.maximal_cone(k).quotient(),
        zip(data.chars[k], column_lines(data.frames[k])), data.group.n)


def exhaustive_adapted_search(data: FiltrationData,
                              ray_indices: Sequence[int]) -> Optional[ConeDecomposition]:
    """Exhaustive search for a decomposition adapted to all ray chains of the
    cone, drawing candidate vectors from the canonical bases of the grid
    intersections.  Any result is re-verified before being returned."""
    idx = _sorted_cone_rays(data, ray_indices)
    cone = _cone_of(data, idx)
    quotient = cone.quotient()
    filts, tuples = _grid(data, idx)
    r = data.dim
    if r == 0:
        return ConeDecomposition(idx, ())

    w = {
        t: intersect_all([f.value(ti) for f, ti in zip(filts, t)], r) if t else Subspace.full(r)
        for t in tuples
    }

    def clone(elim: Eliminator) -> Eliminator:
        fresh = Eliminator(r)
        fresh.rows = list(elim.rows)
        return fresh

    def extend(pos: int, elim: Eliminator, chosen: List[Tuple[Tuple[int, ...], tuple]]):
        if pos == len(tuples):
            return chosen if elim.rank == r else None
        t = tuples[pos]
        rows = w[t].basis
        probe = clone(elim)
        deficiency = sum(1 for row in rows if probe.add(row))
        if deficiency == 0:
            return extend(pos + 1, elim, chosen)
        for subset in itertools.combinations(rows, deficiency):
            trial = clone(elim)
            if not all(trial.add(v) for v in subset):
                continue
            result = extend(pos + 1, trial, chosen + [(t, v) for v in subset])
            if result is not None:
                return result
        return None

    found = extend(0, Eliminator(r), [])
    if found is None:
        return None

    groups: Dict[Tuple[int, ...], List[tuple]] = {}
    for _, v in found:
        exact = tuple(level_of(f, v) for f in filts)
        groups.setdefault(exact, []).append(v)
    pieces = []
    for t in sorted(groups):
        char = _character_solver(data, idx)(t)
        if char is None:
            return None
        rep = quotient.canonical_representative(char)
        pieces.append((rep, span_canonical(groups[t], r)))
    pieces.sort(key=lambda p: p[0])
    dec = ConeDecomposition(idx, tuple(pieces))
    if reference_verify_cone_decomposition(data, idx, dec) is not None:
        return None
    return dec


# ---------------------------------------------------------------------------
# cones


def _ray_canonical(v: Sequence[Fraction]) -> Optional[Tuple[int, ...]]:
    """Primitive integer representative of the ray through v (direction kept)."""
    if all(x == 0 for x in v):
        return None
    denom = lcm(*[x.denominator for x in v])
    return primitive_vector([int(x * denom) for x in v])


def _dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def reference_dual_description(rank: int, inequalities: Sequence[Sequence[int]],
                               equations: Sequence[Sequence[int]] = ()):
    """The double description method over Fractions: (lineality basis,
    extreme rays) of {x : <a,x> >= 0, <e,x> = 0}, rays primitive and sorted,
    the lineality basis the Hermite form of the integral kernel of the
    constraints.  A lineality step moves each vector along l0 onto the new
    hyperplane by a Fraction coefficient."""
    constraints: List[Tuple[int, ...]] = []
    for e in equations:
        constraints.append(tuple(int(x) for x in e))
        constraints.append(tuple(-int(x) for x in e))
    for a in inequalities:
        constraints.append(tuple(int(x) for x in a))

    lin = [tuple(Fraction(int(i == j)) for j in range(rank)) for i in range(rank)]
    rays: List[Tuple[Fraction, ...]] = []
    processed: List[Tuple[int, ...]] = []

    def prune(candidates):
        lam = len(lin)
        kept, seen = [], set()
        for r in candidates:
            canon = _ray_canonical(r)
            if canon is None or canon in seen:
                continue
            # r is a positive multiple of canon: the same zero test, over ints
            tight = [a for a in processed if sum(x * y for x, y in zip(a, canon)) == 0]
            if len(tight) == len(processed) and lam > 0:
                continue  # fell into the lineality space
            if len(reference_rref(tight, rank)[1]) == rank - lam - 1:
                seen.add(canon)
                kept.append(tuple(Fraction(x) for x in canon))
        return kept

    def along(v, c, l0):
        return tuple(x - c * y for x, y in zip(v, l0))

    for a in constraints:
        af = tuple(Fraction(x) for x in a)
        processed.append(a)
        vals = [_dot(af, l) for l in lin]
        j0 = next((j for j, v in enumerate(vals) if v != 0), None)
        if j0 is not None:
            l0, v0 = lin[j0], vals[j0]
            if v0 < 0:
                l0, v0 = tuple(-x for x in l0), -v0
            lin = [along(l, v / v0, l0) for j, (l, v) in enumerate(zip(lin, vals)) if j != j0]
            rays = prune([along(r, _dot(af, r) / v0, l0) for r in rays] + [l0])
        else:
            paired = [(_dot(af, r), r) for r in rays]
            pos = [(d, r) for d, r in paired if d > 0]
            neg = [(d, r) for d, r in paired if d < 0]
            combos = [tuple(dp * x - dm * y for x, y in zip(m, p))
                      for dp, p in pos for dm, m in neg]
            rays = prune([r for _, r in pos] + [r for d, r in paired if d == 0] + combos)

    ray_out = tuple(sorted(_ray_canonical(r) for r in rays))
    if not lin:
        return (), ray_out
    kernel = integer_kernel_basis(constraints) if constraints else [
        [int(i == j) for j in range(rank)] for i in range(rank)]
    return tuple(hermite_normal_form(kernel, rank)), ray_out


def reference_cone(rank: int, gens: Sequence[Sequence[int]]) -> Cone:
    """The cone spanned by nonzero integer vectors, with its extreme rays
    taken from a double description of the dual cone; raises
    NotPointedError when the span contains a line."""
    gens = [tuple(g) for g in gens]
    if not gens:
        return Cone(rank, (), (), hermite_normal_form(
            [[int(i == j) for j in range(rank)] for i in range(rank)], rank), 0)
    perp = hermite_normal_form(integer_kernel_basis(gens), rank)
    _, dual_rays = reference_dual_description(rank, gens)
    lin, extreme = reference_dual_description(rank, dual_rays, equations=perp)
    if lin:
        raise NotPointedError("generators span a cone containing a line")
    return Cone(rank, extreme, dual_rays, perp, rank - len(perp))


def reference_is_face_of(face: Cone, cone: Cone) -> bool:
    """`face` equals the face of `cone` cut out by the supporting covectors
    tight on all of `face`, with that face's rays from a double description."""
    if not all(cone.contains(g) for g in face.generators):
        return False
    tight = [a for a in cone.dual_rays
             if all(sum(x * g for x, g in zip(a, gen)) == 0 for gen in face.generators)]
    _, rays = reference_dual_description(cone.rank, cone.dual_rays,
                                         equations=list(cone.perp_basis) + tight)
    return set(rays) == set(face.generators)


def reference_integer_solution(a: Sequence[Sequence[int]],
                               b: Sequence[int]) -> Optional[Tuple[int, ...]]:
    """One integral solution x of A x = b, or None, solved coordinatewise
    from the Smith form U A V = D: c = U b, y_i = c_i / d_i where d_i is a
    nonzero invariant factor (None unless d_i divides c_i), c_i = 0 on every
    other row (else None), y = 0 on the free coordinates, and x = V y."""
    m = len(a)
    n = len(a[0]) if m else 0
    u, d, v = smith_normal_form(a)
    c = [sum(u[i][k] * b[k] for k in range(m)) for i in range(m)]
    y = [0] * n
    for i in range(m):
        di = d[i][i] if i < min(m, n) else 0
        if di:
            if c[i] % di:
                return None
            y[i] = c[i] // di
        elif c[i]:
            return None
    return tuple(sum(v[i][k] * y[k] for k in range(n)) for i in range(n))


# ---------------------------------------------------------------------------
# truncated algebras


def _reference_coords(quotient: CharQuotient, u: Sequence[int]) -> Tuple[int, ...]:
    return tuple(sum(u[i] * quotient.v[i][j] for i in range(quotient.rank))
                 for j in range(quotient.rank))


def reference_class_index(quotient: CharQuotient, u: Sequence[int]) -> Tuple[int, ...]:
    """[u]: every coordinate of u in the basis v, read entry by entry from
    the rows of v, cut to the last rank - perp_dim."""
    return _reference_coords(quotient, u)[quotient.perp_dim:]


def reference_canonical_representative(quotient: CharQuotient,
                                       u: Sequence[int]) -> Tuple[int, ...]:
    """Every coordinate of u, the first perp_dim set to zero, mapped back
    through v_inv entry by entry."""
    coords = list(_reference_coords(quotient, u))
    for i in range(quotient.perp_dim):
        coords[i] = 0
    return tuple(sum(coords[i] * quotient.v_inv[i][j] for i in range(quotient.rank))
                 for j in range(quotient.rank))


def multiply(alg: TruncatedAlgebra, a: Mono, b: Mono) -> Optional[Mono]:
    """Product of two basis monomials, or None when it leaves the truncation."""
    prod = tuple(x + y for x, y in zip(a, b))
    if sum(prod) > alg.degree:
        return None
    return prod


def generator(alg: TruncatedAlgebra, i: int, j: int) -> Mono:
    """The exponent vector of the matrix entry x'_{ij}."""
    e = [0] * (alg.n * alg.n)
    e[i * alg.n + j] = 1
    return tuple(e)


def row_degrees(m: Mono, n: int) -> Tuple[int, ...]:
    """The row sums of m's exponent matrix."""
    return tuple(sum(m[i * n:(i + 1) * n]) for i in range(n))


def weight_table(alg: TruncatedAlgebra) -> Dict[Mono, Weight]:
    """alg's grading, one weight per basis monomial in basis order: the sum
    of -u_i over the monomial's generators x'_{ij}, generator by generator
    from alg's row characters."""
    table = {}
    for m in alg.basis:
        w = [0] * alg.rank
        for g, e in enumerate(m):
            for t in range(alg.rank):
                w[t] -= e * alg.chars[g // alg.n][t]
        table[m] = tuple(w)
    return table


def level(table: Dict[Mono, Weight], m: Mono, ray: Sequence[int]) -> int:
    """The level of m on the ray: its weight paired with the ray."""
    return sum(a * b for a, b in zip(table[m], ray))


def chain_members(alg: TruncatedAlgebra, ray: Tuple[int, ...], i: int) -> List[Mono]:
    """The basis monomials at level i or above on the ray, in basis order."""
    table = weight_table(alg)
    return [m for m in alg.basis if level(table, m, ray) >= i]


def coproduct(alg: TruncatedAlgebra, m: Mono) -> Dict[Tuple[Mono, Mono], int]:
    """Expansion of the matrix coproduct on a basis monomial.  Both tensor
    legs have the same total degree as m, so they stay in the truncation."""
    n = alg.n
    terms: Dict[Tuple[Mono, Mono], int] = {(tuple([0] * (n * n)),) * 2: 1}
    for g in range(n * n):
        i, j = divmod(g, n)
        for _ in range(m[g]):
            new: Dict[Tuple[Mono, Mono], int] = {}
            for (left, right), coeff in terms.items():
                for k in range(n):
                    l2 = list(left)
                    r2 = list(right)
                    l2[i * n + k] += 1
                    r2[k * n + j] += 1
                    key = (tuple(l2), tuple(r2))
                    new[key] = new.get(key, 0) + coeff
            terms = new
    return terms


def products(alg: TruncatedAlgebra) -> List[Tuple[int, int, int]]:
    """The product table of alg's basis: the index triples (i, j, k) with
    i <= j and basis[i] * basis[j] = basis[k] inside the truncation, in
    basis order, from a scan of every pair."""
    index = {m: k for k, m in enumerate(alg.basis)}
    table = []
    for (i, f), (j, g) in itertools.combinations_with_replacement(enumerate(alg.basis), 2):
        prod = multiply(alg, f, g)
        if prod is not None:
            table.append((i, j, index[prod]))
    return table


def reference_multiplicative(alg: TruncatedAlgebra,
                             table: Optional[Dict[Mono, Weight]] = None):
    """Chain multiplicativity of `table` (alg's own by default), pair by pair."""
    table = weight_table(alg) if table is None else table
    for ray in alg.rays:
        for f, g in itertools.combinations_with_replacement(alg.basis, 2):
            prod = multiply(alg, f, g)
            if prod is None:
                continue
            if level(table, prod, ray) < level(table, f, ray) + level(table, g, ray):
                return False, {"ray": list(ray), "f": list(f), "g": list(g)}
    return True, None


def reference_compatible_algebra(alg: TruncatedAlgebra,
                                 table: Optional[Dict[Mono, Weight]] = None):
    """Graded products of `table` (alg's own by default), pair by pair, and
    the piece dimensions counted monomial by monomial."""
    table = weight_table(alg) if table is None else table
    cls = {m: reference_class_index(alg.quotient, table[m]) for m in alg.basis}
    dims: Dict[Tuple[int, ...], int] = {}
    for m in alg.basis:
        dims[cls[m]] = dims.get(cls[m], 0) + 1
    for f, g in itertools.combinations_with_replacement(alg.basis, 2):
        prod = multiply(alg, f, g)
        if prod is None:
            continue
        expected = tuple(a + b for a, b in zip(cls[f], cls[g]))
        if cls[prod] != expected:
            return False, {"f": list(f), "g": list(g)}, dims
    return True, None, dims


def reference_coaction_commutes(alg: TruncatedAlgebra,
                                table: Optional[Dict[Mono, Weight]] = None):
    """Every left leg of every expanded coproduct against the class of its
    monomial in `table` (alg's own by default)."""
    table = weight_table(alg) if table is None else table
    for f in alg.basis:
        f_cls = reference_class_index(alg.quotient, table[f])
        for (left, _right), coeff in coproduct(alg, f).items():
            if coeff == 0:
                continue
            if reference_class_index(alg.quotient, table[left]) != f_cls:
                return False, {"monomial": list(f), "left_leg": list(left)}
    return True, None


# ---------------------------------------------------------------------------
# transitions


def _power(point: Sequence[Fraction], exponent: Sequence[int]) -> Fraction:
    value = Fraction(1)
    for z, e in zip(point, exponent):
        value *= z ** e
    return value


def random_torus_point(rng, rank: int) -> Tuple[Fraction, ...]:
    return tuple(Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 4))
                 for _ in range(rank))


# A Laurent matrix is a tuple of rows of cells; a cell maps an exponent
# vector to its nonzero coefficient.
Laurent = Tuple[Tuple[Dict[Tuple[int, ...], Fraction], ...], ...]


def laurent_identity(n: int, rank: int) -> Laurent:
    zero = tuple([0] * rank)
    return tuple(tuple({zero: Fraction(1)} if i == j else {} for j in range(n))
                 for i in range(n))


def laurent_exponents(lm: Laurent):
    """All stored exponents with their entry positions, row major."""
    for i, row in enumerate(lm):
        for j, cell in enumerate(row):
            for e in sorted(cell):
                yield (i, j), e


def transition(data: CocharBundleData, s: int, t: int) -> Laurent:
    """g_s D_s g_s^-1 g_t D_t^-1 g_t^-1 expanded symbolically: entry (i, j)
    collects the exponents u_s[k] - u_t[l] over the frame indices k, l, with
    cancelling coefficients dropped."""
    n = data.group.n
    g_s, g_t = data.frames[s], data.frames[t]
    middle = reference_product(reference_inverse(g_s), g_t)
    g_t_inv = reference_inverse(g_t)
    u_s, u_t = data.chars[s], data.chars[t]
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            cell: Dict[Tuple[int, ...], Fraction] = {}
            for k in range(n):
                for l in range(n):
                    coeff = g_s.entries[i][k] * middle.entries[k][l] * g_t_inv.entries[l][j]
                    if coeff != 0:
                        e = tuple(x - y for x, y in zip(u_s[k], u_t[l]))
                        cell[e] = cell.get(e, Fraction(0)) + coeff
            row.append({e: c for e, c in cell.items() if c != 0})
        out.append(tuple(row))
    return tuple(out)


def reference_gluing(data: CocharBundleData) -> GluingReport:
    """Every stored exponent of both expanded transition directions must be
    regular on the overlap cone of each pair of maximal cones; the first
    failure is reported with `entry` the position in the expanded matrix."""
    fan = data.fan
    cones = [fan.maximal_cone(k) for k in range(len(fan.maximal_cones))]
    for s, t in itertools.combinations(range(len(cones)), 2):
        overlap = cone_intersection(cones[s], cones[t])
        for a, b in ((s, t), (t, s)):
            for (i, j), e in laurent_exponents(transition(data, a, b)):
                if not overlap.dual_contains(e):
                    bad_ray = next(g for g in overlap.generators
                                   if sum(x * y for x, y in zip(e, g)) < 0)
                    return GluingReport(False, {
                        "pair": [s, t], "direction": [a, b], "entry": [i, j],
                        "exponent": list(e), "ray": list(bad_ray)})
    return GluingReport(True)


def transition_breaks_on_ray(data: CocharBundleData, witness: dict) -> bool:
    """Whether the expanded transition between the two cones of a
    ray-consistency witness, in one direction or the other, carries an
    exponent that pairs negatively with the witness's ray: the failure of
    regularity that the disagreeing chains stand for."""
    a, b = witness["cones"]
    ray = data.fan.rays[witness["ray"]]
    return any(sum(x * y for x, y in zip(e, ray)) < 0
               for s, t in ((a, b), (b, a))
               for _, e in laurent_exponents(transition(data, s, t)))


def reference_ray_witness(data: CocharBundleData) -> Optional[dict]:
    """The witness of `RayConsistencyError`, or None when every cone agrees:
    the first (cone, ray) incidence, cones in order and rays as each cone
    lists them, whose chain differs from that of the first cone listing the
    ray, at the first level of either cone (or one past the largest) where
    they differ.  Both chains are spanned level by level from scratch over
    Fractions (`reference_rref` of the frame columns of level at least i)
    and compared row by row."""
    fan = data.fan
    first: Dict[int, Tuple[int, List[int]]] = {}

    def span(k: int, levels: List[int], i: int):
        cols = [[row[c] for row in data.frames[k].entries]
                for c, level in enumerate(levels) if level >= i]
        return reference_rref(cols, data.group.n)[0]

    for k, idx in enumerate(fan.maximal_cones):
        for ray_idx in idx:
            levels = [sum(c * g for c, g in zip(u, fan.rays[ray_idx])) for u in data.chars[k]]
            if ray_idx not in first:
                first[ray_idx] = (k, levels)
                continue
            a, levels_a = first[ray_idx]
            probes = sorted(set(levels_a) | set(levels))
            for i in probes + [probes[-1] + 1]:
                if span(a, levels_a, i) != span(k, levels, i):
                    return {"cones": [a, k], "ray": ray_idx, "index": i}
    return None


def reference_frame_change_scan(data: CocharBundleData) -> GluingReport:
    """The frame-change scan of `check_gluing`, kept whole: both directions
    of every pair of maximal cones, each frame change g_a^-1 g_b from
    `reference_inverse` and `reference_product`,
    and the first nonzero entry whose exponent pairs negatively with an
    extreme ray of the overlap, with its pair, direction, entry, exponent
    and ray."""
    fan = data.fan
    cones = [fan.maximal_cone(k) for k in range(len(fan.maximal_cones))]
    n = data.group.n
    for s, t in itertools.combinations(range(len(cones)), 2):
        overlap = cone_intersection(cones[s], cones[t])
        g_s, g_t = data.frames[s], data.frames[t]
        for (a, b), m in (((s, t), reference_product(reference_inverse(g_s), g_t)),
                          ((t, s), reference_product(reference_inverse(g_t), g_s))):
            for k, l in itertools.product(range(n), repeat=2):
                if m.entries[k][l] == 0:
                    continue
                e = tuple(x - y for x, y in zip(data.chars[a][k], data.chars[b][l]))
                bad_ray = next((g for g in overlap.generators
                                if sum(x * y for x, y in zip(e, g)) < 0), None)
                if bad_ray is not None:
                    return GluingReport(False, {
                        "pair": [s, t], "direction": [a, b], "entry": [k, l],
                        "exponent": list(e), "ray": list(bad_ray)})
    return GluingReport(True)


def evaluate_laurent(lm: Laurent, point: Sequence[Fraction]) -> QMatrix:
    return QMatrix.from_rows(
        [[sum((c * _power(point, e) for e, c in cell.items()), Fraction(0))
          for cell in row] for row in lm])


def transition_at(data: CocharBundleData, s: int, t: int,
                  point: Sequence[Fraction]) -> QMatrix:
    """g_s D_s(z) g_s^-1 g_t D_t(z)^-1 g_t^-1 at the torus point z, where
    D_k(z) is diagonal with the characters of cone k evaluated at z."""

    def character(k: int, sign: int) -> QMatrix:
        diag = [_power(point, [sign * x for x in u]) for u in data.chars[k]]
        return QMatrix.from_rows(
            [[d if i == j else 0 for j in range(len(diag))] for i, d in enumerate(diag)])

    g_s, g_t = data.frames[s], data.frames[t]
    return reference_product(g_s, character(s, 1), reference_inverse(g_s),
                             g_t, character(t, -1), reference_inverse(g_t))


def reference_universe(data: CocharBundleData) -> List[Tuple[int, ...]]:
    """The torus universe R, sorted: every tuple in the product over the
    rays of the levels ⟨u, ρ⟩ of the characters u of the cones listing ρ,
    whose restriction to each maximal cone is the level tuple of one of that
    cone's characters.  The candidate lists are sorted, so the product is
    too.  A ray that no maximal cone lists has no candidate, and R is then
    empty."""
    fan = data.fan

    def level(u: Sequence[int], i: int) -> int:
        return sum(x * y for x, y in zip(u, fan.rays[i]))

    candidates = [sorted({level(u, i) for idx, chars in zip(fan.maximal_cones, data.chars)
                          if i in idx for u in chars})
                  for i in range(len(fan.rays))]
    cone_tuples = [(idx, {tuple(level(u, i) for i in idx) for u in chars})
                   for idx, chars in zip(fan.maximal_cones, data.chars)]
    return [t for t in itertools.product(*candidates)
            if all(tuple(t[i] for i in idx) in tuples for idx, tuples in cone_tuples)]


# ---------------------------------------------------------------------------
# bundle operations


def _gl_bundle(like: CocharBundleData, n: int, frames: Sequence[QMatrix],
               chars: Sequence[Sequence[Sequence[int]]]) -> CocharBundleData:
    return CocharBundleData.make(GroupSpec("GL", n), like.fan, frames, chars)


def bundle_tensor(e: CocharBundleData, f: CocharBundleData) -> CocharBundleData:
    """E ⊗ F cone by cone: the Kronecker product of the frames, whose column
    k*m + l is column k of E's frame times column l of F's, with the
    character u_k + v_l."""
    frames = [QMatrix.from_rows([[x * y for x in ra for y in rb]
                                 for ra in a.entries for rb in b.entries])
              for a, b in zip(e.frames, f.frames)]
    chars = [[tuple(x + y for x, y in zip(u, v)) for u in cu for v in cv]
             for cu, cv in zip(e.chars, f.chars)]
    return _gl_bundle(e, e.group.n * f.group.n, frames, chars)


def bundle_dual(e: CocharBundleData) -> CocharBundleData:
    """E* cone by cone: the inverse transpose of each frame, whose columns
    are the dual basis of the frame's, with the characters -u_k."""
    frames = [QMatrix.from_rows(zip(*reference_inverse(g).entries), g.nrows)
              for g in e.frames]
    chars = [[tuple(-x for x in u) for u in cu] for cu in e.chars]
    return _gl_bundle(e, e.group.n, frames, chars)


def bundle_sum(e: CocharBundleData, f: CocharBundleData) -> CocharBundleData:
    """E ⊕ F cone by cone: block-diagonal frames, E's block first, with the
    characters concatenated."""
    n, m = e.group.n, f.group.n
    frames = [QMatrix.from_rows([list(r) + [0] * m for r in a.entries]
                                + [[0] * n + list(r) for r in b.entries])
              for a, b in zip(e.frames, f.frames)]
    chars = [list(cu) + list(cv) for cu, cv in zip(e.chars, f.chars)]
    return _gl_bundle(e, n + m, frames, chars)


# ---------------------------------------------------------------------------
# file loading

_REFERENCE_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


def reference_parse_rational(value) -> Fraction:
    """A JSON int or a "p" or "p/q" string of ASCII digits as a Fraction,
    parsed by `Fraction(str)` once the pattern matches."""
    if isinstance(value, bool):
        raise InputError("boolean is not a rational number")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        if not _REFERENCE_RATIONAL.fullmatch(value):
            raise InputError(f"bad rational literal {value!r}: expected 'p' or 'p/q'")
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"bad rational literal {value!r}: {exc}") from exc
    raise InputError(f"expected rational as int or 'p/q' string, got {type(value).__name__}")


def reference_matrix_from_obj(rows) -> QMatrix:
    """A well-formed matrix parsed by `reference_parse_rational` and built
    by `QMatrix.from_rows`."""
    return QMatrix.from_rows(_reference_rows(rows))


def _reference_rows(rows) -> List[List[Fraction]]:
    return [[reference_parse_rational(x) for x in row] for row in rows]


def _reference_fan(field, base_dir: Optional[str]) -> Fan:
    if isinstance(field, str):
        return load_fan(os.path.join(base_dir or "", field))
    return fan_from_obj(field)


def reference_filtration_from_obj(obj, base_dir: Optional[str] = None) -> FiltrationData:
    """Well-formed filtration data with every jump basis parsed by
    `reference_parse_rational` and spanned by `span_canonical`."""
    fan = _reference_fan(obj["fan"], base_dir)
    dim = obj["dim"]
    return FiltrationData.make(fan, dim, [
        RayFiltration.make(dim, [
            (item["i"], span_canonical(_reference_rows(item["basis"]), dim))
            for item in obj["filtrations"][str(k)]
        ])
        for k in range(len(fan.rays))
    ])


def reference_bundle_from_obj(obj, base_dir: Optional[str] = None) -> CocharBundleData:
    """Well-formed bundle data with every frame read by
    `reference_matrix_from_obj`."""
    fan = _reference_fan(obj["fan"], base_dir)
    frames: List[Optional[QMatrix]] = [None] * len(fan.maximal_cones)
    chars: List[Optional[list]] = [None] * len(fan.maximal_cones)
    for entry in obj["cones"]:
        frames[entry["cone"]] = reference_matrix_from_obj(entry["frame"])
        chars[entry["cone"]] = entry["chars"]
    group = GroupSpec(obj["group"]["kind"], obj["group"]["n"])
    return CocharBundleData.make(group, fan, frames, chars)


# ---------------------------------------------------------------------------
# records


def dataclass_twin(cls: type) -> type:
    """A frozen dataclass with the name, qualified name, annotations, defaults
    and `__post_init__` of the record class `cls`, and nothing else."""
    annotations = dict(cls.__dict__.get("__annotations__", {}))
    namespace = {"__module__": cls.__module__, "__qualname__": cls.__qualname__,
                 "__annotations__": annotations}
    namespace.update((f, cls.__dict__[f]) for f in annotations if f in cls.__dict__)
    if "__post_init__" in cls.__dict__:
        namespace["__post_init__"] = cls.__dict__["__post_init__"]
    return dataclasses.dataclass(frozen=True)(type(cls.__name__, (), namespace))
