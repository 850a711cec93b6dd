"""Degree-truncated matrix coordinate bialgebra with per-cone grading.

The algebra is the polynomial bialgebra on the n^2 matrix entries x'_{ij},
coordinates taken in the frame of the chosen maximal cone, truncated at a
total degree bound.  The torus acts by left translation through the cone's
homomorphism and the group by right translation, so the generator weight is
determined by the ROW index: weight(x'_{ij}) = -u_i.  A monomial with row
degrees d (the row sums of its exponent matrix) thus has weight
-sum_i d_i u_i, a function of d alone, and a `TruncatedAlgebra` holds one
weight per row-degree vector.  The per-ray chains take a monomial at level
i when its weight pairs >= i against the ray.  Working in the polynomial
bialgebra (matrix monoid coordinates) avoids localizing at the determinant.
Products that leave the truncation are skipped, not errored: the axioms are
degree local.

Everything but the weights is a function of (n, degree) alone, so
`_shape(n, degree)` computes it once, in a small bounded cache: the basis,
sorted by total degree, then exponent vector, and built in one pass (each
degree block of `itertools.combinations_with_replacement` comes in the
reverse of that order); the row-degree vectors, in order of first
appearance in the basis; the size of each one's group of monomials; and
the pairs (a, b, a + b) of row-degree vectors with |a| + |b| <= degree.

The pairs decide the checks.  Row degrees add under products, so a product
f g of monomials with row degrees a and b has row degrees a + b, and its
weight and class are those of a + b.  Every pair with |a| + |b| <= degree
is realised inside the truncation, by any monomial of a times any of b.  So
the pairs are exactly the row-degree triples of the pairwise product table,
and a weight table passes the pairwise multiplicativity and graded-product
scans exactly when every pair does: each check tests one pair at a time,
`class_index` runs once per row-degree vector, and a piece's dimension is
the sum of the group sizes of its class.  The coaction commutes by type:
the left legs of Δ(f) are the monomials with f's row degrees, whose class
is f's.  A witness names the first basis monomial of each failing group,
the smallest exponent vector with those row degrees: each row's degree on
the row's last entry.

The degree has a budget: C(2n^2+d, d), the number of ordered monomial pairs
inside the truncation, may not exceed MAX_PRODUCT_PAIRS; it is checked
before a shape is built.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations_with_replacement
from math import comb
from operator import add, mul
from typing import Dict, List, Optional, Tuple

from .bundles import CocharBundleData
from .errors import InputError, PreconditionError
from .fans import CharQuotient
from .linalg import record

Mono = Tuple[int, ...]  # exponent vector over the n^2 generators, row major
Weight = Tuple[int, ...]
Rows = Tuple[int, ...]  # the row degrees of a monomial

DEFAULT_DEGREE = 3
MAX_PRODUCT_PAIRS = 100_000
# bound on the shape cache: a process meets few (n, degree) shapes, and at
# the degree budget one shape holds under 3 MB
SHAPE_CACHE_SIZE = 8

# (basis, row-degree vectors, group size of each, pairs (a, b, c) of vector
# indices with a <= b and rows[a] + rows[b] = rows[c])
Shape = Tuple[Tuple[Mono, ...], Tuple[Rows, ...], Tuple[int, ...],
              Tuple[Tuple[int, int, int], ...]]


@record
class TruncatedAlgebra:
    n: int
    degree: int
    rank: int
    rays: Tuple[Tuple[int, ...], ...]       # primitive generators of the cone's rays
    weights: Tuple[Weight, ...]             # the weight of each of `rows`
    quotient: CharQuotient

    @property
    def basis(self) -> Tuple[Mono, ...]:
        return _shape(self.n, self.degree)[0]

    @property
    def rows(self) -> Tuple[Rows, ...]:
        """The row-degree vectors, in order of first appearance in the basis."""
        return _shape(self.n, self.degree)[1]


def _pairs(n: int, degree: int) -> int:
    """Ordered monomial pairs inside the truncation, the degree budget's measure."""
    return comb(2 * n * n + degree, degree)


@lru_cache(maxsize=SHAPE_CACHE_SIZE)
def _shape(n: int, degree: int) -> Shape:
    """(basis, row-degree vectors, group sizes, pairs) of the GL(n)
    truncation at `degree`.  The vectors come in order of total degree, so
    the partners b of a vector a form a run that stops at the first b whose
    degree sum with a passes the bound."""
    row_of = [g // n for g in range(n * n)]
    basis: List[Mono] = []
    sizes: Dict[Rows, int] = {}
    for d in range(degree + 1):
        # the multisets of degree d come in the reverse of basis order
        block = []
        for gens in combinations_with_replacement(range(n * n), d):
            exps, r = [0] * (n * n), [0] * n
            for g in gens:
                exps[g] += 1
                r[row_of[g]] += 1
            block.append((tuple(exps), tuple(r)))
        for m, r in reversed(block):
            basis.append(m)
            sizes[r] = sizes.get(r, 0) + 1
    rows = tuple(sizes)
    index = {r: x for x, r in enumerate(rows)}
    pairs = []
    for x, a in enumerate(rows):
        room = degree - sum(a)
        for y in range(x, len(rows)):
            if sum(rows[y]) > room:
                break
            pairs.append((x, y, index[tuple(map(add, a, rows[y]))]))
    return tuple(basis), rows, tuple(sizes.values()), tuple(pairs)


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
    # coordinate j of every row character u_1..u_n
    coords = tuple(zip(*data.chars[cone_index]))
    return TruncatedAlgebra(
        n=n, degree=degree, rank=data.fan.rank,
        rays=tuple(data.fan.rays[i] for i in data.fan.maximal_cones[cone_index]),
        weights=tuple(tuple(-sum(map(mul, r, u)) for u in coords)
                      for r in _shape(n, degree)[1]),
        quotient=data.fan.maximal_cone(cone_index).quotient(),
    )


def _first_monomials(alg: TruncatedAlgebra, a: int, b: int) -> dict:
    """The witness {"f", "g"} naming the first basis monomial with row
    degrees rows[a] and the first with rows[b]."""
    n = alg.n
    first = [[d if j == n - 1 else 0 for d in alg.rows[x] for j in range(n)] for x in (a, b)]
    return {"f": first[0], "g": first[1]}


def check_multiplicative(alg: TruncatedAlgebra) -> Tuple[bool, Optional[dict]]:
    """Chain multiplicativity: products of chain members at levels i and j
    must land at level i+j.  Tested once per row-degree pair, which decides
    every basis pair with an in-truncation product; weight additivity makes
    this an identity for a table from `build_truncation`."""
    pairs = _shape(alg.n, alg.degree)[3]
    for ray in alg.rays:
        lv = [sum(map(mul, w, ray)) for w in alg.weights]
        for a, b, c in pairs:
            if lv[c] < lv[a] + lv[b]:
                return False, {"ray": list(ray), **_first_monomials(alg, a, b)}
    return True, None


def check_compatible_algebra(alg: TruncatedAlgebra) -> Tuple[bool, Optional[dict], Dict[Tuple[int, ...], int]]:
    """Graded pieces indexed by character classes of the cone: the product of
    a piece of class [u] and a piece of class [v] must land in class [u]+[v],
    tested once per row-degree pair.  Returns (ok, witness, piece dimensions
    by class, in order of first appearance in the basis)."""
    _, _, sizes, pairs = _shape(alg.n, alg.degree)
    classes = list(map(alg.quotient.class_index, alg.weights))
    dims: Dict[Tuple[int, ...], int] = {}
    for c, size in zip(classes, sizes):
        dims[c] = dims.get(c, 0) + size
    for a, b, c in pairs:
        if classes[c] != tuple(map(add, classes[a], classes[b])):
            return False, _first_monomials(alg, a, b), dims
    return True, None, dims


def check_coaction_commutes(alg: TruncatedAlgebra) -> Tuple[bool, Optional[dict]]:
    """Truncated commutation of the group coaction with the torus grading:
    every left tensor leg of Δ(f) for a weight-χ monomial f must again have
    class [χ].  The left legs are the monomials with f's row degrees, and a
    `TruncatedAlgebra` holds one weight per row-degree vector, so this holds
    by type and the result is always (True, None).  The column convention,
    weight(x'_{ij}) = -u_j, would break it whenever two row characters
    differ; it is not a table a `TruncatedAlgebra` can hold."""
    return True, None
