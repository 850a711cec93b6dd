"""Degree-truncated matrix coordinate bialgebra with per-cone grading.

The algebra is the polynomial bialgebra on the n^2 matrix entries x'_{ij},
coordinates taken in the frame of the chosen maximal cone, truncated at a
total degree bound.  The torus acts by left translation through the cone's
homomorphism and the group by right translation, so the generator weight is
determined by the ROW index: weight(x'_{ij}) = -u_i.  Weights extend
additively to monomials, so a monomial with row degrees d_i (the sums of
the rows of its exponent matrix) has weight -sum_i d_i u_i; the per-ray
chains take a monomial at level i when its weight pairs >= i against the
ray.  Working in the polynomial bialgebra (matrix monoid coordinates)
avoids localizing at the determinant while still exercising
multiplicativity, the graded product rule, and commutation of the coaction
with the grading.  Products that leave the truncation are skipped,
not errored: the axioms are degree local.

The basis is built in one pass.  For each degree d, the multisets of d
generators from `itertools.combinations_with_replacement` come in the
reverse of basis order (total degree, then the exponent tuple), so each
degree block is reversed; the row degrees are counted while each exponent
vector is built, and a weight is computed once per row-degree vector.

The checks run over basis indices.  The basis must be sorted by total
degree: the in-truncation partners of a monomial then form a run of the
basis, and the walk stops at the first partner whose degree sum passes the
bound.  The walk runs once per algebra and yields the product table, the
triples (i, j, k) with basis[i] * basis[j] = basis[k] and i <= j, which
every check then scans with each monomial's levels or class computed once
(a class is memoized by weight, of which it is a function).  The scans stay
exhaustive, so they also judge corrupted weight tables.  Δ(f) is never
expanded: its left legs are exactly the monomials with f's row degrees (row
sums of the exponent matrix), each with a positive count, so the coaction
commutes with the grading iff the class is constant on every row-degree
group.  The degree has a budget: C(2n^2+d, d), the number of ordered
monomial pairs inside the truncation, may not exceed MAX_PRODUCT_PAIRS.
"""

from __future__ import annotations

from itertools import combinations_with_replacement
from math import comb
from operator import add
from typing import Dict, List, Optional, Tuple

from .bundles import CocharBundleData
from .errors import InputError, PreconditionError
from .fans import CharQuotient
from .linalg import cached_on_instance, record

Mono = Tuple[int, ...]  # exponent vector over the n^2 generators, row major
Weight = Tuple[int, ...]

DEFAULT_DEGREE = 3
MAX_PRODUCT_PAIRS = 100_000


@record
class TruncatedAlgebra:
    n: int
    degree: int
    rank: int
    rays: Tuple[Tuple[int, ...], ...]       # primitive generators of the cone's rays
    basis: Tuple[Mono, ...]
    weights: Dict[Mono, Weight]
    quotient: CharQuotient

    def multiply(self, a: Mono, b: Mono) -> Optional[Mono]:
        """Product of two basis monomials, or None when it leaves the truncation."""
        prod = tuple(x + y for x, y in zip(a, b))
        if sum(prod) > self.degree:
            return None
        return prod

    def generator(self, i: int, j: int) -> Mono:
        e = [0] * (self.n * self.n)
        e[i * self.n + j] = 1
        return tuple(e)

    def level(self, m: Mono, ray: Tuple[int, ...]) -> int:
        w = self.weights[m]
        return sum(a * b for a, b in zip(w, ray))

    def chain_members(self, ray: Tuple[int, ...], i: int) -> List[Mono]:
        return [m for m in self.basis if self.level(m, ray) >= i]


def build_truncation(data: CocharBundleData, cone_index: int,
                     degree: int = DEFAULT_DEGREE) -> TruncatedAlgebra:
    if data.group.kind != "GL":
        raise PreconditionError(f"unsupported group kind {data.group.kind} "
                                "(truncated algebra is built for GL only)")
    if not isinstance(degree, int) or degree < 1:
        raise InputError("truncation degree must be a positive integer")
    if not 0 <= cone_index < len(data.fan.maximal_cones):
        raise InputError("maximal cone index out of range")
    n = data.group.n
    pairs = comb(2 * n * n + degree, degree)
    if pairs > MAX_PRODUCT_PAIRS:
        raise InputError(f"truncation degree {degree} is over budget for GL({n}): "
                         f"{pairs} monomial pairs > {MAX_PRODUCT_PAIRS}")
    rank = data.fan.rank
    chars = data.chars[cone_index]
    row_of = [g // n for g in range(n * n)]
    by_rows: Dict[Tuple[int, ...], Weight] = {}
    weights: Dict[Mono, Weight] = {}
    for d in range(degree + 1):
        # the multisets of degree d come in the reverse of basis order
        block = []
        for gens in combinations_with_replacement(range(n * n), d):
            exps, rows = [0] * (n * n), [0] * n
            for g in gens:
                exps[g] += 1
                rows[row_of[g]] += 1
            block.append((tuple(exps), tuple(rows)))
        for m, rows in reversed(block):
            w = by_rows.get(rows)
            if w is None:
                w = by_rows[rows] = tuple(-sum(r * u[j] for r, u in zip(rows, chars))
                                          for j in range(rank))
            weights[m] = w
    return TruncatedAlgebra(
        n=n, degree=degree, rank=rank,
        rays=tuple(data.fan.rays[i] for i in data.fan.maximal_cones[cone_index]),
        basis=tuple(weights),
        weights=weights,
        quotient=data.fan.maximal_cone(cone_index).quotient(),
    )


@cached_on_instance
def _products(alg: TruncatedAlgebra) -> List[Tuple[int, int, int]]:
    """The index triples (i, j, k) with basis[i] * basis[j] = basis[k] and
    i <= j, for the pairs whose product stays in the truncation, in basis
    order.  The basis is degree-sorted, so the walk over j stops at the first
    pair whose degrees sum past the bound.  Cached on the instance: the
    table depends only on the basis and the degree, never on the weights."""
    index = {m: k for k, m in enumerate(alg.basis)}
    degrees = [sum(m) for m in alg.basis]
    table = []
    for i, f in enumerate(alg.basis):
        room = alg.degree - degrees[i]
        for j in range(i, len(alg.basis)):
            if degrees[j] > room:
                break
            table.append((i, j, index[tuple(map(add, f, alg.basis[j]))]))
    return table


@cached_on_instance
def _class_memo(alg: TruncatedAlgebra) -> Dict[Weight, Tuple[int, ...]]:
    """Class by weight, shared by the checks of one algebra."""
    return {}


def _classes(alg: TruncatedAlgebra) -> List[Tuple[int, ...]]:
    """The class of every basis monomial, in basis order.  The class is a
    function of the weight, so `class_index` runs once per distinct weight;
    the memo is kept on the instance, shared by the checks, and stays sound
    when the weight table is edited."""
    memo = _class_memo(alg)
    out = []
    for m in alg.basis:
        w = alg.weights[m]
        c = memo.get(w)
        if c is None:
            c = memo[w] = alg.quotient.class_index(w)
        out.append(c)
    return out


def check_multiplicative(alg: TruncatedAlgebra) -> Tuple[bool, Optional[dict]]:
    """Chain multiplicativity: products of chain members at levels i and j
    must land at level i+j.  Verified exhaustively over basis pairs with
    in-truncation products; weight additivity makes this an identity for an
    uncorrupted weight table."""
    for ray in alg.rays:
        lv = [alg.level(m, ray) for m in alg.basis]
        for i, j, k in _products(alg):
            if lv[k] < lv[i] + lv[j]:
                return False, {"ray": list(ray), "f": list(alg.basis[i]),
                               "g": list(alg.basis[j])}
    return True, None


def check_compatible_algebra(alg: TruncatedAlgebra) -> Tuple[bool, Optional[dict], Dict[Tuple[int, ...], int]]:
    """Graded pieces indexed by character classes of the cone: the product of
    a piece of class [u] and a piece of class [v] must land in class [u]+[v].
    Returns (ok, witness, piece dimensions by class)."""
    cls = _classes(alg)
    dims: Dict[Tuple[int, ...], int] = {}
    for c in cls:
        dims[c] = dims.get(c, 0) + 1
    for i, j, k in _products(alg):
        if cls[k] != tuple(map(add, cls[i], cls[j])):
            return False, {"f": list(alg.basis[i]), "g": list(alg.basis[j])}, dims
    return True, None, dims


def check_coaction_commutes(alg: TruncatedAlgebra) -> Tuple[bool, Optional[dict]]:
    """Truncated commutation of the group coaction with the torus grading:
    every left tensor leg of Δ(f) for a weight-χ monomial f must again have
    class [χ], i.e. the class is constant on each row-degree group.  The
    witness is the first monomial of the earliest non-constant group and the
    first member of that group whose class differs.  Holds identically for
    the row convention; the column convention breaks it whenever two row
    characters differ."""
    n = alg.n
    cls = _classes(alg)
    groups: Dict[Tuple[int, ...], List[int]] = {}
    for k, m in enumerate(alg.basis):
        rows = tuple(sum(m[i * n:(i + 1) * n]) for i in range(n))
        groups.setdefault(rows, []).append(k)
    for first, *rest in groups.values():
        for k in rest:
            if cls[k] != cls[first]:
                return False, {"monomial": list(alg.basis[first]),
                               "left_leg": list(alg.basis[k])}
    return True, None
