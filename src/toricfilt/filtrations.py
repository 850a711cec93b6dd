"""Per-ray filtration data on a fan and its tensor/dual/sum calculus.

A ray filtration is a full decreasing chain of subspaces of Q^r stored
sparsely by its jumps: pairs (i, S) with strictly increasing indices and
strictly decreasing subspaces.  The chain value at j is the subspace of the
first jump at or after j, the zero space above the last jump, and Q^r at or
below the first jump (fullness forces the first stored subspace to be Q^r).
The representation, and hence the serialized form, is canonical: strictly
increasing indices, no zero value, no two consecutive values equal.
`RayFiltration.make` is the entry for outside data (the loader, the trivial
chain, the samplers): it sorts, drops zero-dimensional jumps and merges equal
consecutive values keeping the later index.  The chains the package builds
(`tensor`, `dual`, `direct_sum` and the chains of bundle frames) are
canonical as built and are stored as they are (`RayFiltration._canonical`),
with no sort or merge; each builder's docstring gives the proof.

The calculus builds chain values from canonical rows without eliminating
them where it can: the tensor product of two chains is the chain spanned by
the Kronecker products of their adapted bases at the sums of their levels,
one incremental reduction per ray (`RayFiltration.adapted_rows`,
`linalg.levelled_spans`; `tensor` gives the proof); a direct sum is the two
blocks of rows padded with zeros (`linalg.block_sum`); and a morphism maps
the rows of each chain value into the target's annihilator without
eliminating their image (`linalg.maps_into`).  A chain
is rebuilt from pieces that form a direct sum of the fiber by
`RayFiltration.reconstruction_failure`, the one test of the reconstruction
equation; the certificate verifier, the torus check and the ray
consistency of bundle data all call it.  It compares dimensions and
decides containment by one rule (`linalg._held`): a piece row lies in a
value when it reduces to zero against the value's canonical rows, and a
full value holds every row.  It takes no kernel.

A chain that is not full, or not nested, is not a filtration.
`RayFiltration.issues` is the one test of both, by annihilator products,
and keeps its verdict on the chain.  `FiltrationData.make` runs it on every
chain, so data from outside the package carry their verdict when they
arrive; `RayFiltration.require_valid` raises a chain's first issue, naming
its ray, and is the one refusal of `tensor`, `dual`, `direct_sum` and the
compatibility engine.  The chains the package builds are valid by
construction and are not checked when they are built.  The chains of
bundle frames also record that they are valid (`RayFiltration._valid`),
which the reconstruction test reads in place of their issues; `issues`
and `validate` still decide validity whenever they are asked.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from .errors import InputError
from .fans import Fan
from .linalg import (
    QMatrix,
    Subspace,
    _held,
    annihilator,
    block_sum,
    cached_on_instance,
    levelled_spans,
    maps_into,
    record,
)


def _not_nested(ray: int, i1: int, i2: int) -> InputError:
    """The error of the calculus for a chain on `ray` that is not nested,
    its jump at i2 not inside the one at i1."""
    return InputError(f"the chain on ray {ray} is not nested: its subspace at "
                      f"index {i2} does not lie in the one at {i1}")


@record
class RayFiltration:
    dim: int
    jumps: Tuple[Tuple[int, Subspace], ...]

    @staticmethod
    def make(dim: int, jumps: Sequence[Tuple[int, Subspace]]) -> "RayFiltration":
        cleaned = []
        seen = set()
        for i, s in jumps:
            if not isinstance(i, int) or isinstance(i, bool):
                raise InputError("jump indices must be integers")
            if s.ambient != dim:
                raise InputError("jump subspace has wrong ambient dimension")
            if i in seen:
                raise InputError(f"duplicate jump index {i}")
            seen.add(i)
            if s.dim > 0:
                cleaned.append((i, s))
        cleaned.sort(key=lambda p: p[0])
        merged: List[Tuple[int, Subspace]] = []
        for i, s in cleaned:
            if merged and merged[-1][1] == s:
                merged[-1] = (i, s)  # equal consecutive values: keep later index
            else:
                merged.append((i, s))
        return RayFiltration(dim, tuple(merged))

    @staticmethod
    def _canonical(dim: int, jumps: Sequence[Tuple[int, Subspace]]) -> "RayFiltration":
        """The chain with `jumps` stored as given, for chains the package
        builds already canonical: strictly increasing integer indices,
        subspaces of Q^dim, no zero value and no two consecutive values
        equal, which is exactly what `make` returns unchanged.  Each caller
        gives the proof in its docstring."""
        return RayFiltration(dim, tuple(jumps))

    @staticmethod
    def trivial(dim: int) -> "RayFiltration":
        if dim == 0:
            return RayFiltration(0, ())
        return RayFiltration.make(dim, [(0, Subspace.full(dim))])

    def value(self, i: int) -> Subspace:
        for j, s in self.jumps:
            if j >= i:
                return s
        return Subspace.zero(self.dim)

    def jump_indices(self) -> Tuple[int, ...]:
        return tuple(i for i, _ in self.jumps)

    def reconstruction_failure(self, pieces: Sequence[Subspace],
                               levels: Sequence[int]) -> Optional[int]:
        """First probe j at which the sum of the pieces of level at least j
        is not this chain's value, or None.  The probes are the jump
        indices, the levels and one past their maximum, sorted: both sides
        are constant between consecutive probes, so they agree everywhere
        exactly when they agree at these.

        The pieces must form a direct sum of the fiber.  Then that sum
        equals the value V exactly when their dimensions add up to dim V and
        each of them lies in V, which `linalg._held` decides by reducing
        the piece rows against the canonical rows of V; no sum is formed
        and no kernel is taken.

        A valid chain (`_valid`) is first tested in one counted pass
        (`_rebuilds`); when that pass fails, or the chain is not valid, the
        probes are scanned, so the failure reported is the first failing
        probe."""
        if self._rebuilds(pieces, levels):
            return None
        probes = sorted(set(self.jump_indices()) | set(levels))
        for j in probes + [probes[-1] + 1] if probes else ():
            value = self.value(j)
            above = [row for s, level in zip(pieces, levels) if level >= j for row in s.rows]
            if len(above) != len(value.rows) or not _held(value, above):
                return j
        return None

    def _rebuilds(self, pieces: Sequence[Subspace], levels: Sequence[int]) -> bool:
        """Whether the counted pass of `reconstruction_failure` passes: the
        chain is valid (`_valid`), every level is a jump index, the piece
        dimensions summed from the last jump down reach each value's
        dimension at its jump, and the pieces at each jump lie in its
        value, one `_held` per jump for all of their rows.  Then every
        probe passes: the pieces of level at least j are those at the jumps
        from the first one at or after j, whose value V is the chain's value
        at j (zero past the last jump, where no piece is left); their
        dimensions add up to dim V, and nesting puts each of them, inside
        the value at its own level, inside V."""
        if not self._valid():
            return False
        rows_at = {i: [] for i, _ in self.jumps}
        for s, level in zip(pieces, levels):
            rows = rows_at.get(level)
            if rows is None:
                return False
            rows.extend(s.rows)
        total = 0
        for i, value in reversed(self.jumps):
            total += len(rows_at[i])
            if total != len(value.rows):
                return False
        return all(_held(value, rows_at[i]) for i, value in self.jumps)

    @cached_on_instance
    def _valid(self) -> bool:
        """Whether this chain is a filtration, as the counted pass of the
        reconstruction test reads it: its `issues` are empty.  The chains
        of bundle frames are valid by construction and record it when they
        are built (`bundles._chain_from_cone`, through
        `cached_on_instance`'s `keep`), so the test decides no nesting for
        them; `issues` and `validate` still decide it whenever asked."""
        return not self.issues()

    def adapted_rows(self) -> List[Tuple[int, Tuple[int, ...]]]:
        """For a nested chain, (level, row) pairs whose rows of level at
        least i span the value at i, for every i: walking the jumps from the
        last (smallest) value to the first, every row of the last value and
        then, from each larger value, the canonical rows whose pivot is not
        yet taken, each at its jump index.  No elimination; `tensor` gives
        the proof.  The values of a nested chain strictly decrease (`make`
        merges equal neighbours), so every jump gives at least one row."""
        taken = set()
        basis = []
        for i, s in reversed(self.jumps):
            for p, row in zip(s.pivots, s.rows):
                if p not in taken:
                    taken.add(p)
                    basis.append((i, row))
        return basis

    @cached_on_instance
    def issues(self) -> Tuple[dict, ...]:
        """Why this chain is not a filtration, or nothing: "not_full" when
        it is not the whole fiber at low indices, then a "not_nested" issue
        for each consecutive pair of jumps whose later subspace does not lie
        in the earlier one, by the cached annihilators, which the
        certificate verifier and `dual` reuse.  `make` merges equal
        neighbours, so nested neighbours strictly decrease.  The verdict is
        kept on the chain, so validation, the calculus and every cone that
        lists the ray share it."""
        first = len(self.jumps[0][1].rows) if self.jumps else 0
        out: List[dict] = []
        if first < self.dim:
            out.append({"kind": "not_full", "detail": "first jump subspace is a proper subspace"
                        if first else "no jumps, chain is identically zero"})
        out += [{"kind": "not_nested", "indices": [i1, i2]}
                for (i1, s1), (i2, s2) in zip(self.jumps, self.jumps[1:])
                if not s1.contains_subspace(s2)]
        return tuple(out)

    def require_valid(self, ray: int) -> None:
        """Refuse a chain that is not a filtration: InputError naming `ray`
        and the first of its `issues`, with the pair of jump indices for a
        chain that is not nested (`_not_nested`)."""
        issues = self.issues()
        if issues and issues[0]["kind"] == "not_nested":
            raise _not_nested(ray, *issues[0]["indices"])
        if issues:
            raise InputError(f"the chain on ray {ray} is not full: it is not the whole fiber "
                             f"at low indices")


@record
class FiltrationData:
    """One full decreasing filtration of Q^dim per fan ray."""

    fan: Fan
    dim: int
    filtrations: Tuple[RayFiltration, ...]

    @staticmethod
    def make(fan: Fan, dim: int, filtrations: Sequence[RayFiltration]) -> "FiltrationData":
        """The entry for outside data: one chain in Q^dim per fan ray, each
        of whose `issues` is decided here and kept on the chain, for
        `validate` to report and `RayFiltration.require_valid` to raise."""
        if not isinstance(dim, int) or dim < 0:
            raise InputError("fiber dimension must be a nonnegative integer")
        if len(filtrations) != len(fan.rays):
            raise InputError("need exactly one filtration per fan ray")
        for f in filtrations:
            if f.dim != dim:
                raise InputError("ray filtration ambient dimension mismatch")
            f.issues()
        return FiltrationData(fan, dim, tuple(filtrations))

    @staticmethod
    def trivial(fan: Fan, dim: int) -> "FiltrationData":
        return FiltrationData.make(
            fan, dim, [RayFiltration.trivial(dim) for _ in fan.rays]
        )

    def ray(self, idx: int) -> RayFiltration:
        return self.filtrations[idx]


@record
class FiltrationValidationReport:
    valid: bool
    issues: Tuple[dict, ...]


def validate(data: FiltrationData) -> FiltrationValidationReport:
    """Fullness and nesting per ray: the `issues` that `FiltrationData.make`
    decided when it checked that every chain lives in the fiber."""
    issues: List[dict] = []
    for idx, f in enumerate(data.filtrations):
        for item in f.issues():
            issues.append({"ray": idx, **item})
    return FiltrationValidationReport(not issues, tuple(issues))


def _require_same_fan(a: FiltrationData, b: FiltrationData) -> None:
    if a.fan != b.fan:
        raise InputError("operands live on different fans")


def tensor(a: FiltrationData, b: FiltrationData) -> FiltrationData:
    """Tensor product on Q^(ra*rb) with the lexicographic e_i⊗f_j basis
    ordering (index (i, j) maps to i*rb+j): the chain at j is
    F(j) = Σ_p F_a(p)⊗F_b(j−p), built from adapted bases of the operand
    chains by one incremental reduction per ray.  Every operand chain must
    be valid (`RayFiltration.require_valid`).

    Adapted bases (`RayFiltration.adapted_rows`).  Let a chain jump at
    α_1 < … < α_m with values V_1 ⊋ … ⊋ V_m.  The pivots of a subspace are
    the first nonzero positions of its vectors, read off its canonical rows,
    so V_{k+1} ⊆ V_k gives piv V_{k+1} ⊆ piv V_k.  Keep every row of V_m at
    level α_m and, from each V_k, the canonical rows whose pivot is not in
    piv V_{k+1}, at level α_k.  By induction from k = m the kept rows of
    level at least α_k have exactly the pivots piv V_k: those of level at
    least α_{k+1} have piv V_{k+1}, and V_k adds its other pivots.  Vectors
    with distinct pivots are independent, these dim V_k of them lie in V_k,
    so they are a basis of V_k; the pivot complement is a complement of
    V_{k+1} in V_k.  Hence, with a_k of level α(a_k) and b_l of level
    β(b_l), F_a(p) is spanned by the a_k of level at least p and F_b(q) by
    the b_l of level at least q, for every p and q (below α_1 the chain is
    V_1, above α_m it is zero).

    The formula.  F_a(p)⊗F_b(j−p) is then spanned by the a_k⊗b_l with
    α(a_k) ≥ p and β(b_l) ≥ j−p, and the sum over p by the a_k⊗b_l with
    α(a_k) + β(b_l) ≥ j (take p = α(a_k)).  So F is the chain spanned by
    the Kronecker products a_k⊗b_l at the levels α(a_k) + β(b_l), which
    `linalg.levelled_spans` builds in one pass, with no elimination per
    level and no sum.

    Distinct pivots.  a_k⊗b_l is zero at (i, j) unless a_k[i] and b_l[j]
    are nonzero, so its first nonzero entry is at (piv a_k, piv b_l).  The
    pivots within each basis are distinct, so distinct pairs have distinct
    pivots: the products are independent and each one adds rank.

    Canonical as built.  `levelled_spans` lists its levels in descending
    order, each with at least one product, and every product adds rank;
    reversed, the indices strictly increase, no value is zero and each value
    is strictly smaller than the one before.  That is what `make` returns
    unchanged, so the chain is stored as built (`RayFiltration._canonical`)."""
    _require_same_fan(a, b)
    dim = a.dim * b.dim
    rays: List[RayFiltration] = []
    for ray, (fa, fb) in enumerate(zip(a.filtrations, b.filtrations)):
        fa.require_valid(ray)
        fb.require_valid(ray)
        basis_a, basis_b = fa.adapted_rows(), fb.adapted_rows()
        products = ((p + q, [x * y for x in u for y in v])
                    for p, u in basis_a for q, v in basis_b)
        rays.append(RayFiltration._canonical(dim, levelled_spans(products, dim)[::-1]))
    return FiltrationData(a.fan, dim, tuple(rays))


def dual(a: FiltrationData) -> FiltrationData:
    """Dual convention: the dual chain at i is the annihilator of the primal
    chain at 1 - i.  This makes duality an involution and negates the jump of
    rank-one data.  Every chain must be valid
    (`RayFiltration.require_valid`, whose annihilators the dual reuses).

    Canonical as built.  A chain jumping at i_0 < … < i_(m-1) with values
    V_0, …, V_(m-1) has the dual jumps -i_k with value ann V_(k+1)
    (V_m = 0).  Nesting is required and `make` merges equal neighbours, so
    V_0 ⊋ V_1 ⊋ … ⊋ V_m: the annihilators strictly grow with k, and the
    smallest, ann V_1, is not zero since V_1 ⊊ V_0.  Reversed, the indices
    strictly increase and the values are nonzero and strictly decrease, so
    the chain is stored as built (`RayFiltration._canonical`)."""
    rays: List[RayFiltration] = []
    for ray, f in enumerate(a.filtrations):
        f.require_valid(ray)
        m = len(f.jumps)
        pairs = []
        for k in range(m):
            i_k = f.jumps[k][0]
            after = f.jumps[k + 1][1] if k + 1 < m else Subspace.zero(a.dim)
            pairs.append((-i_k, annihilator(after)))
        rays.append(RayFiltration._canonical(a.dim, pairs[::-1]))
    return FiltrationData(a.fan, a.dim, tuple(rays))


def direct_sum(a: FiltrationData, b: FiltrationData) -> FiltrationData:
    """Blockwise direct sum on Q^(ra+rb): the chain at i is the block sum of
    the operand chains at i, whose padded rows are already canonical.  Every
    operand chain must be valid (`RayFiltration.require_valid`).

    Canonical as built.  The indices are the union of the operands' jump
    indices, sorted.  Each is a jump of one operand, whose value there
    `make` has made nonzero, so no block sum is zero.  For consecutive
    indices i < i', say i a jump of the first operand: its value at i' is
    that at its next jump, which `make` has made different from the one at
    i, or zero past its last jump, so the first blocks at i and i' differ
    and so do the block sums.  The chain is stored as built
    (`RayFiltration._canonical`)."""
    _require_same_fan(a, b)
    dim = a.dim + b.dim
    rays: List[RayFiltration] = []
    for ray, (fa, fb) in enumerate(zip(a.filtrations, b.filtrations)):
        fa.require_valid(ray)
        fb.require_valid(ray)
        candidates = sorted(set(fa.jump_indices()) | set(fb.jump_indices()))
        pairs = [(i, block_sum(fa.value(i), fb.value(i))) for i in candidates]
        rays.append(RayFiltration._canonical(dim, pairs))
    return FiltrationData(a.fan, dim, tuple(rays))


def morphism_failure(phi: QMatrix, a: FiltrationData, b: FiltrationData) -> Optional[dict]:
    """First (ray, index) where phi fails to map a chain of `a` into the
    matching chain of `b`, or None.  `phi` is a (dim b) x (dim a) matrix
    acting on column vectors.  Every operand chain must be valid
    (`RayFiltration.require_valid`)."""
    _require_same_fan(a, b)
    if phi.nrows != b.dim or phi.ncols != a.dim:
        raise InputError("morphism matrix shape does not match the operands")
    for ray_idx, (fa, fb) in enumerate(zip(a.filtrations, b.filtrations)):
        fa.require_valid(ray_idx)
        fb.require_valid(ray_idx)
    for ray_idx, (fa, fb) in enumerate(zip(a.filtrations, b.filtrations)):
        for i in sorted(set(fa.jump_indices()) | set(fb.jump_indices())):
            if not maps_into(fa.value(i), phi, fb.value(i)):
                return {"ray": ray_idx, "index": i}
    return None


def check_morphism(phi: QMatrix, a: FiltrationData, b: FiltrationData) -> bool:
    return morphism_failure(phi, a, b) is None
