"""Degree-truncated matrix coordinate bialgebra with per-cone grading.

The algebra is the polynomial bialgebra on the n^2 matrix entries x'_{ij},
coordinates taken in the frame of the chosen maximal cone, truncated at a
total degree bound D.  Working in the polynomial bialgebra (matrix monoid
coordinates) avoids localizing at the determinant.  The torus acts by left
translation through the cone's homomorphism, so x'_{ij} has the weight -u_i
of its ROW's character.  A `TruncatedAlgebra` holds those characters, and
its `weights` are derived from them: a monomial whose exponent matrix has
row sums d (its row degrees) has weight w(d) = -sum_i d_i u_i.  The per-ray
chains take a monomial at level i when its weight pairs >= i against the
ray, and its graded piece is the class of its weight in the cone's
character quotient.

The three axioms hold by type.  Row degrees add under products, and w is
linear in d, so w(a + b) = w(a) + w(b) for the row degrees a and b of any
two factors.  The pairing with a ray and `CharQuotient.class_index` are
linear too, so the product of monomials at levels i and j lies at level
exactly i + j, and the product of pieces of classes [u] and [v] lies in
class [u] + [v]: chain multiplicativity and graded products hold for every
pair, with no product to test.  The left legs of the coproduct of a
monomial f are the monomials with f's row degrees, which have f's weight,
so the coaction commutes with the grading.  Each check is a constant; the
information an algebra carries is the dimension of each graded piece.

Everything but the characters is a function of (n, D) alone, so
`_shape(n, D)` computes it once, in a small bounded cache, in closed form:
the row-degree vectors with total at most D, sorted by (total, vector),
and the size of each one's group of monomials, prod_i C(d_i + n - 1, n - 1)
(the choices of d_i entries, with repetition, from row i's n).  That is
also the order in which the vectors first appear in the basis, whose first
monomial with row degrees d puts each d_i on its row's last entry.  No
check builds a monomial: `.basis` is enumerated only when read, by the
same `multisets` that gives the row-degree vectors.

The degree has a budget: C(2n^2+D, D), the number of ordered monomial pairs
inside the truncation, may not exceed MAX_PRODUCT_PAIRS; it is checked
before a shape is built.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations_with_replacement
from math import comb, prod
from operator import mul
from typing import Dict, Optional, Tuple

from .bundles import CocharBundleData
from .errors import InputError, PreconditionError
from .fans import CharQuotient
from .linalg import record

Mono = Tuple[int, ...]  # exponent vector over the n^2 generators, row major
Weight = Tuple[int, ...]
Rows = Tuple[int, ...]  # the row degrees of a monomial

DEFAULT_DEGREE = 3
MAX_PRODUCT_PAIRS = 100_000
# bound on the shape cache: a process meets few (n, degree) shapes, and a
# shape holds C(n+D, n) vectors of length n; inside the degree budget the
# largest, GL(223) at degree 1, is under 1 MB
SHAPE_CACHE_SIZE = 8

# (row-degree vectors, group size of each)
Shape = Tuple[Tuple[Rows, ...], Tuple[int, ...]]


@record
class TruncatedAlgebra:
    n: int
    degree: int
    rank: int
    rays: Tuple[Tuple[int, ...], ...]       # primitive generators of the cone's rays
    chars: Tuple[Tuple[int, ...], ...]      # the cone's row characters u_1..u_n
    quotient: CharQuotient

    @property
    def basis(self) -> Tuple[Mono, ...]:
        """Every monomial of total degree at most `degree`, sorted by
        (degree, exponent vector); built on each read."""
        return multisets(self.n * self.n, self.degree)

    @property
    def rows(self) -> Tuple[Rows, ...]:
        """The row-degree vectors, sorted by (total, vector)."""
        return _shape(self.n, self.degree)[0]

    @property
    def weights(self) -> Tuple[Weight, ...]:
        """The weight -sum_i d_i u_i of each row-degree vector d of `rows`."""
        coords = tuple(zip(*self.chars))  # coordinate j of every u_i
        return tuple(tuple(-sum(map(mul, r, u)) for u in coords) for r in self.rows)


def _pairs(n: int, degree: int) -> int:
    """Ordered monomial pairs inside the truncation, the degree budget's measure."""
    return comb(2 * n * n + degree, degree)


def multisets(size: int, degree: int) -> Tuple[Tuple[int, ...], ...]:
    """The multiplicity vectors of the multisets of range(size) with at most
    `degree` elements, sorted by (total, vector): each total's block of
    `combinations_with_replacement` comes in the reverse of that order."""
    out = []
    for d in range(degree + 1):
        block = []
        for picks in combinations_with_replacement(range(size), d):
            counts = [0] * size
            for p in picks:
                counts[p] += 1
            block.append(tuple(counts))
        out += reversed(block)
    return tuple(out)


@lru_cache(maxsize=SHAPE_CACHE_SIZE)
def _shape(n: int, degree: int) -> Shape:
    """(row-degree vectors, group sizes) of the GL(n) truncation at `degree`."""
    rows = multisets(n, degree)
    return rows, tuple(prod(comb(d + n - 1, n - 1) for d in r) for r in rows)


def build_truncation(data: CocharBundleData, cone_index: int,
                     degree: int = DEFAULT_DEGREE) -> TruncatedAlgebra:
    if data.group.kind != "GL":
        raise PreconditionError(f"unsupported group kind {data.group.kind} "
                                "(truncated algebra is built for GL only)")
    if not isinstance(degree, int) or isinstance(degree, bool) or degree < 1:
        raise InputError("truncation degree must be a positive integer")
    if not isinstance(cone_index, int) or isinstance(cone_index, bool):
        raise InputError("maximal cone index must be an integer")
    if not 0 <= cone_index < len(data.fan.maximal_cones):
        raise InputError("maximal cone index out of range")
    n = data.group.n
    pairs = _pairs(n, degree)
    if pairs > MAX_PRODUCT_PAIRS:
        raise InputError(f"truncation degree {degree} is over budget for GL({n}): "
                         f"{pairs} monomial pairs > {MAX_PRODUCT_PAIRS}")
    return TruncatedAlgebra(
        n=n, degree=degree, rank=data.fan.rank,
        rays=tuple(data.fan.rays[i] for i in data.fan.maximal_cones[cone_index]),
        chars=data.chars[cone_index],
        quotient=data.fan.maximal_cone(cone_index).quotient(),
    )


def check_multiplicative(alg: TruncatedAlgebra) -> Tuple[bool, Optional[dict]]:
    """Chain multiplicativity: products of chain members at levels i and j
    must land at level i+j.  Levels are linear in row degrees, which add
    under products (module docstring), so this holds by type and the result
    is always (True, None)."""
    return True, None


def check_compatible_algebra(alg: TruncatedAlgebra) -> Tuple[bool, Optional[dict], Dict[Tuple[int, ...], int]]:
    """Graded pieces indexed by character classes of the cone: the product of
    a piece of class [u] and a piece of class [v] must land in class [u]+[v],
    which holds by type, as `class_index` is linear (module docstring).
    Returns (True, None, piece dimensions by class): each row-degree group's
    size added to its class, one `class_index` call per vector, in the order
    of `rows`, which is the order of first appearance in the basis."""
    dims: Dict[Tuple[int, ...], int] = {}
    for w, size in zip(alg.weights, _shape(alg.n, alg.degree)[1]):
        c = alg.quotient.class_index(w)
        dims[c] = dims.get(c, 0) + size
    return True, None, dims


def check_coaction_commutes(alg: TruncatedAlgebra) -> Tuple[bool, Optional[dict]]:
    """Truncated commutation of the group coaction with the torus grading:
    every left tensor leg of Δ(f) for a weight-χ monomial f must again have
    class [χ].  The left legs are the monomials with f's row degrees, and a
    `TruncatedAlgebra` derives its weights from row degrees, so this holds
    by type and the result is always (True, None).  The column convention,
    weight(x'_{ij}) = -u_j, would break it whenever two row characters
    differ; it is not a table a `TruncatedAlgebra` can hold."""
    return True, None
