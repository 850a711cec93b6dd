"""Exact linear algebra over the rationals.

Subspaces of Q^n are stored as bases in reduced row echelon form.  RREF is
a canonical form for a row space, so two subspaces are equal exactly when
their stored bases are bit-identical; every operation below returns that
canonical representative, which keeps downstream certificates reproducible
byte for byte.  There is no floating point anywhere in this package.

Gaussian elimination lives in `rref`: spans, kernels, inverses, ranks and
complements all read their pivots off it.  `QMatrix.det` keeps its own
forward elimination, and `Subspace.reduce` only reads coordinates against a
basis that is already reduced.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, List, Optional, Sequence, Tuple, Union

Vector = Tuple[Fraction, ...]
Scalar = Union[int, str, Fraction]


def to_fraction(x: Scalar) -> Fraction:
    """Coerce an int, Fraction or "p/q" string to a Fraction.  Floats are
    rejected: tolerance-based arithmetic would make subspace checks unsound."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise TypeError("boolean is not a rational scalar")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"expected exact rational, got {type(x).__name__}")


def vector(entries: Iterable[Scalar]) -> Vector:
    return tuple(to_fraction(x) for x in entries)


def dot(u: Sequence[Fraction], v: Sequence[Fraction]):
    if len(u) != len(v):
        raise ValueError("dot product of vectors of different lengths")
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def is_zero_vector(u: Sequence[Fraction]) -> bool:
    return all(a == 0 for a in u)


@dataclass(frozen=True)
class QMatrix:
    """Dense matrix of Fractions.  `ncols` is explicit so that matrices with
    zero rows keep their width."""

    entries: Tuple[Vector, ...]
    ncols: int

    def __post_init__(self):
        for row in self.entries:
            if len(row) != self.ncols:
                raise ValueError("ragged matrix rows")

    @staticmethod
    def from_rows(rows: Iterable[Iterable[Scalar]], ncols: Optional[int] = None) -> "QMatrix":
        data = tuple(vector(r) for r in rows)
        if ncols is None:
            if not data:
                raise ValueError("ncols required for a matrix with no rows")
            ncols = len(data[0])
        return QMatrix(data, ncols)

    @staticmethod
    def identity(n: int) -> "QMatrix":
        return QMatrix(
            tuple(
                tuple(Fraction(1 if i == j else 0) for j in range(n))
                for i in range(n)
            ),
            n,
        )

    @property
    def nrows(self) -> int:
        return len(self.entries)

    def col(self, j: int) -> Vector:
        return tuple(r[j] for r in self.entries)

    def transpose(self) -> "QMatrix":
        return QMatrix(
            tuple(tuple(r[j] for r in self.entries) for j in range(self.ncols)),
            self.nrows,
        )

    def __matmul__(self, other: "QMatrix") -> "QMatrix":
        if self.ncols != other.nrows:
            raise ValueError("matrix shapes do not compose")
        cols = other.transpose().entries
        return QMatrix(
            tuple(tuple(dot(r, c) for c in cols) for r in self.entries),
            other.ncols,
        )

    def det(self) -> Fraction:
        if self.nrows != self.ncols:
            raise ValueError("determinant of a non-square matrix")
        n = self.nrows
        m = [list(r) for r in self.entries]
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

    def inverse(self) -> "QMatrix":
        if self.nrows != self.ncols:
            raise ValueError("inverse of a non-square matrix")
        n = self.nrows
        aug = [r + identity for r, identity in zip(self.entries, QMatrix.identity(n).entries)]
        reduced, pivots = rref(aug, 2 * n)
        if pivots[:n] != tuple(range(n)):
            raise ValueError("matrix is singular")
        return QMatrix(tuple(row[n:] for row in reduced), n)

    def is_invertible(self) -> bool:
        return self.nrows == self.ncols and self.det() != 0

    def apply_to_row(self, v: Sequence[Fraction]) -> Vector:
        """Image of a row vector under the linear map x -> A x (columns act)."""
        if len(v) != self.ncols:
            raise ValueError("vector length does not match matrix columns")
        return tuple(dot(r, v) for r in self.entries)


def rref(rows: Sequence[Sequence[Fraction]], ncols: int) -> Tuple[Tuple[Vector, ...], Tuple[int, ...]]:
    """Reduced row echelon form; returns (nonzero rows, pivot columns)."""
    mat: List[List[Fraction]] = [list(r) for r in rows]
    pivots: List[int] = []
    prow = 0
    for col in range(ncols):
        pr = next((r for r in range(prow, len(mat)) if mat[r][col] != 0), None)
        if pr is None:
            continue
        mat[prow], mat[pr] = mat[pr], mat[prow]
        pv = mat[prow][col]
        if pv != 1:
            inv = 1 / pv
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


@dataclass(frozen=True)
class Subspace:
    """A linear subspace of Q^ambient in canonical form: `basis` rows are the
    RREF of any spanning set, with zero rows dropped."""

    ambient: int
    basis: Tuple[Vector, ...]

    @staticmethod
    def full(n: int) -> "Subspace":
        return Subspace(n, QMatrix.identity(n).entries)

    @staticmethod
    def zero(n: int) -> "Subspace":
        return Subspace(n, ())

    @property
    def dim(self) -> int:
        return len(self.basis)

    def is_full(self) -> bool:
        return self.dim == self.ambient

    def is_zero(self) -> bool:
        return self.dim == 0

    def reduce(self, v: Sequence[Scalar]) -> Vector:
        """Residue of v after elimination by the basis; zero iff v lies here."""
        w = list(vector(v))
        if len(w) != self.ambient:
            raise ValueError("vector/ambient dimension mismatch")
        for row in self.basis:
            lead = next(j for j, x in enumerate(row) if x != 0)
            c = w[lead]
            if c != 0:
                for j in range(self.ambient):
                    w[j] -= c * row[j]
        return tuple(w)

    def contains(self, v: Sequence[Scalar]) -> bool:
        return is_zero_vector(self.reduce(v))

    def contains_subspace(self, other: "Subspace") -> bool:
        if other.ambient != self.ambient:
            raise ValueError("ambient dimension mismatch")
        return all(self.contains(row) for row in other.basis)


def span_canonical(vectors: Union[QMatrix, Sequence[Sequence[Scalar]]],
                   ambient: Optional[int] = None) -> Subspace:
    """Row space of the given vectors in canonical RREF form."""
    if isinstance(vectors, QMatrix):
        rows: Sequence[Vector] = vectors.entries
        ambient = vectors.ncols
    else:
        rows = [vector(r) for r in vectors]
        if ambient is None:
            if not rows:
                raise ValueError("ambient dimension required for an empty span")
            ambient = len(rows[0])
    for r in rows:
        if len(r) != ambient:
            raise ValueError("vector/ambient dimension mismatch")
    reduced, _ = rref(rows, ambient)
    return Subspace(ambient, reduced)


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    if a.ambient != b.ambient:
        raise ValueError("ambient dimension mismatch")
    return span_canonical(list(a.basis) + list(b.basis), a.ambient)


def sum_all(spaces: Sequence[Subspace], ambient: int) -> Subspace:
    rows: List[Vector] = []
    for s in spaces:
        if s.ambient != ambient:
            raise ValueError("ambient dimension mismatch")
        rows.extend(s.basis)
    return span_canonical(rows, ambient)


def kernel(matrix: QMatrix) -> Subspace:
    """Canonical basis of {x : M x = 0}, x read as a row vector of length ncols."""
    reduced, pivots = rref(matrix.entries, matrix.ncols)
    n = matrix.ncols
    free = [j for j in range(n) if j not in pivots]
    gens: List[Vector] = []
    for f in free:
        v = [Fraction(0)] * n
        v[f] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -reduced[i][f]
        gens.append(tuple(v))
    return span_canonical(gens, n)


def annihilator(a: Subspace) -> Subspace:
    """Covectors vanishing on `a`, inside the dual of Q^ambient (identified with
    Q^ambient via the standard pairing).  dim = ambient - dim(a).  Cached per
    instance: hot paths intersect the same subspaces repeatedly."""
    cached = a.__dict__.get("_ann")
    if cached is None:
        cached = kernel(QMatrix(a.basis, a.ambient))
        object.__setattr__(a, "_ann", cached)
    return cached


def intersect(a: Subspace, b: Subspace) -> Subspace:
    """Intersection, computed as the kernel of the stacked dual conditions."""
    if a.ambient != b.ambient:
        raise ValueError("ambient dimension mismatch")
    if a.is_zero() or b.is_full():
        return a
    if b.is_zero() or a.is_full():
        return b
    conditions = list(annihilator(a).basis) + list(annihilator(b).basis)
    return kernel(QMatrix(tuple(conditions), a.ambient))


def intersect_all(spaces: Sequence[Subspace], ambient: int) -> Subspace:
    conditions: List[Vector] = []
    for s in spaces:
        if s.ambient != ambient:
            raise ValueError("ambient dimension mismatch")
        conditions.extend(annihilator(s).basis)
    return kernel(QMatrix(tuple(conditions), ambient))


def complement_in(inner: Subspace, outer: Subspace) -> Subspace:
    """A deterministic complement C with inner + C = outer, inner ∩ C = 0.

    Greedy rule: walk the canonical basis of `outer` in order and keep each
    vector that is independent of `inner` plus the vectors before it.  The
    coordinates of `inner` in that basis are its entries at the pivot
    columns of `outer`; reduced with the columns in reverse order, row k is
    a pivot exactly when it adds no rank, so the kept rows are the non-pivot
    ones.  A subset of RREF rows is again in RREF, hence canonical.
    """
    if inner.ambient != outer.ambient:
        raise ValueError("ambient dimension mismatch")
    if not outer.contains_subspace(inner):
        raise ValueError("inner subspace is not contained in outer")
    leads = [next(j for j, x in enumerate(row) if x != 0) for row in outer.basis]
    m = len(leads)
    coords = [[row[leads[k]] for k in reversed(range(m))] for row in inner.basis]
    _, pivots = rref(coords, m)
    dependent = {m - 1 - j for j in pivots}
    return Subspace(inner.ambient, tuple(
        row for k, row in enumerate(outer.basis) if k not in dependent))


def kron(u: Sequence[Fraction], v: Sequence[Fraction]) -> Vector:
    """Kronecker product of row vectors; index (i, j) maps to i*len(v)+j."""
    return tuple(a * b for a in u for b in v)


def tensor_product(a: Subspace, b: Subspace) -> Subspace:
    """Tensor product inside Q^(ra*rb) with the lexicographic e_i⊗f_j basis."""
    rows = [kron(x, y) for x in a.basis for y in b.basis]
    return span_canonical(rows, a.ambient * b.ambient)
