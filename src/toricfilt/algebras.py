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

Everything but the weights is a function of (n, degree) alone, so
`_shape(n, degree)` computes it once and every truncation of that shape
shares it: the basis, each monomial's row degrees, the product table and
the grouping (the row-degree groups, the group of each basis index and the
group triples below).  The basis is built in one pass.  For each degree d,
the multisets of d generators from `itertools.combinations_with_replacement`
come in the reverse of basis order (total degree, then the exponent tuple),
so each degree block is reversed; the row degrees are counted while each
exponent vector is built, and `build_truncation` computes a weight once per
row-degree group.

The checks run over basis indices.  The basis must be sorted by total
degree: the in-truncation partners of a monomial then form a run of the
basis, and the walk stops at the first partner whose degree sum passes the
bound.  The walk runs once per (n, degree), not once per algebra (an
algebra whose basis is not its shape's, such as a copy made with another
degree, walks its own), and yields the product table, the triples
(i, j, k) with basis[i] * basis[j] = basis[k] and i <= j, kept as three
index columns.

Group triples.  Write g(i) for the row-degree group of basis index i.  The
row degrees of a product are the sums of its factors' row degrees,
rows[k] = rows[i] + rows[j], so g(k) is a function of (g(i), g(j)).  The
shape keeps the distinct group triples (g(i), g(j), g(k)) of the table:
19 for the 85 rows of GL(2) at degree 3, 16 for the 100 rows of GL(3) at
degree 2.  When the weight table is constant
on every group, the weights and classes of i, j and k are those of their
groups, so the pair (basis[i], basis[j]) passes exactly when its group
triple does: multiplicativity and the graded product rule are tested once
per group triple, `class_index` runs once per group weight, and a piece's
dimension is the sum of the sizes of the groups of its class (in order of
first appearance in the basis, since the groups are in that order).  The
coaction then commutes at once: a class is a function of its weight, so it
is constant on each group too.  A table from `build_truncation` is constant
on groups, since its weight -sum_i d_i u_i depends only on the row degrees.
Whether a table is constant on groups is tested on every call, in one pass
over the basis, because a table can be edited in place.

Otherwise (a table not constant on groups, or a basis that is not its
shape's) the multiplicativity and graded-product checks walk the product
table in order, which is exhaustive and also judges corrupted or edited
weight tables.  A failing group triple sends the check to the same walk,
so the witness is the first failing pair either way.  A class is memoized
by weight, of which it is a function; nothing else derived from the
weights is kept between calls.  Δ(f) is never
expanded: its left legs are exactly the monomials with f's row degrees (row
sums of the exponent matrix), each with a positive count, so the coaction
commutes with the grading iff the class is constant on every row-degree
group.  The degree has a budget: C(2n^2+d, d), the number of ordered
monomial pairs inside the truncation, may not exceed MAX_PRODUCT_PAIRS;
it is checked before a shape is built, so a cached shape never holds more
than that many triples.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations_with_replacement
from math import comb
from operator import add, mul
from typing import Dict, List, Optional, Sequence, Tuple

from .bundles import CocharBundleData
from .errors import InputError, PreconditionError
from .fans import CharQuotient
from .linalg import cached_on_instance, record

Mono = Tuple[int, ...]  # exponent vector over the n^2 generators, row major
Weight = Tuple[int, ...]

DEFAULT_DEGREE = 3
MAX_PRODUCT_PAIRS = 100_000
# bound on the shape cache: a process meets few (n, degree) shapes, and at
# the degree budget one shape holds under 3 MB
SHAPE_CACHE_SIZE = 8

Columns = Tuple[Tuple[int, ...], Tuple[int, ...], Tuple[int, ...]]
Groups = Tuple[Tuple[int, ...], ...]
# (members of each row-degree group, group of each basis index, distinct
# group triples of the product table)
Grouping = Tuple[Groups, Tuple[int, ...], Tuple[Tuple[int, int, int], ...]]
# (basis, row degrees of each monomial, product columns, grouping)
Shape = Tuple[Tuple[Mono, ...], Tuple[Tuple[int, ...], ...], Columns, Grouping]


@record
class TruncatedAlgebra:
    n: int
    degree: int
    rank: int
    rays: Tuple[Tuple[int, ...], ...]       # primitive generators of the cone's rays
    basis: Tuple[Mono, ...]
    weights: Dict[Mono, Weight]
    quotient: CharQuotient

    def level(self, m: Mono, ray: Tuple[int, ...]) -> int:
        w = self.weights[m]
        return sum(a * b for a, b in zip(w, ray))


def _pairs(n: int, degree: int) -> int:
    """Ordered monomial pairs inside the truncation, the degree budget's measure."""
    return comb(2 * n * n + degree, degree)


def _walk(basis: Tuple[Mono, ...], degree: int) -> Columns:
    """The product table of a degree-sorted basis as index columns I, J, K:
    basis[I[t]] * basis[J[t]] = basis[K[t]] with I[t] <= J[t], for the pairs
    whose product stays in the truncation, in basis order.  The walk over j
    stops at the first pair whose degrees sum past the bound."""
    index = {m: k for k, m in enumerate(basis)}
    degrees = [sum(m) for m in basis]
    I, J, K = [], [], []
    for i, f in enumerate(basis):
        room = degree - degrees[i]
        for j in range(i, len(basis)):
            if degrees[j] > room:
                break
            I.append(i)
            J.append(j)
            K.append(index[tuple(map(add, f, basis[j]))])
    return tuple(I), tuple(J), tuple(K)


@lru_cache(maxsize=SHAPE_CACHE_SIZE)
def _shape(n: int, degree: int) -> Shape:
    """(basis, row degrees of each monomial, product columns, grouping) of
    the GL(n) truncation at `degree`.  The grouping holds the row-degree
    groups as tuples of basis indices, in order of first appearance, the
    group of each basis index, and the distinct group triples (group of i,
    group of j, group of k) of the product table, in order of first
    appearance.  Every value is a tuple, so the truncations that share a
    shape cannot edit one another's tables."""
    row_of = [g // n for g in range(n * n)]
    basis: List[Mono] = []
    rows: List[Tuple[int, ...]] = []
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
            rows.append(r)
    basis_t = tuple(basis)
    columns = _walk(basis_t, degree)
    groups, group_of = _row_groups(rows)
    of = group_of.__getitem__
    triples = tuple(dict.fromkeys(zip(*(map(of, c) for c in columns))))
    return basis_t, tuple(rows), columns, (groups, group_of, triples)


def _row_groups(rows: Sequence[Tuple[int, ...]]) -> Tuple[Groups, Tuple[int, ...]]:
    """The basis indices grouped by row-degree vector, in order of first
    appearance, and the group of each basis index."""
    groups: Dict[Tuple[int, ...], List[int]] = {}
    for k, r in enumerate(rows):
        groups.setdefault(r, []).append(k)
    number = {r: x for x, r in enumerate(groups)}
    return tuple(map(tuple, groups.values())), tuple(map(number.__getitem__, rows))


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
    basis, rows, _, (groups, group_of, _) = _shape(n, degree)
    rank = data.fan.rank
    # coordinate j of every row character u_1..u_n
    coords = tuple(zip(*data.chars[cone_index]))
    by_group = [tuple(-sum(map(mul, rows[group[0]], u)) for u in coords)
                for group in groups]
    return TruncatedAlgebra(
        n=n, degree=degree, rank=rank,
        rays=tuple(data.fan.rays[i] for i in data.fan.maximal_cones[cone_index]),
        basis=basis,
        weights=dict(zip(basis, map(by_group.__getitem__, group_of))),
        quotient=data.fan.maximal_cone(cone_index).quotient(),
    )


def _own_shape(alg: TruncatedAlgebra) -> Optional[Shape]:
    """The shape of alg's (n, degree) when alg's basis is that shape's basis,
    else None.  No shape is built for an over-budget degree."""
    if _pairs(alg.n, alg.degree) <= MAX_PRODUCT_PAIRS:
        shape = _shape(alg.n, alg.degree)
        if shape[0] is alg.basis:
            return shape
    return None


@cached_on_instance
def _columns(alg: TruncatedAlgebra) -> Columns:
    """The product table of alg as index columns: its shape's, or a walk of
    its own basis.  The table depends only on the basis and the degree,
    never on the weights."""
    shape = _own_shape(alg)
    return shape[2] if shape is not None else _walk(alg.basis, alg.degree)


@cached_on_instance
def _class_memo(alg: TruncatedAlgebra) -> Dict[Weight, Tuple[int, ...]]:
    """Class by weight, shared by the checks of one algebra."""
    return {}


def _basis_weights(alg: TruncatedAlgebra) -> List[Weight]:
    """The weight of every basis monomial, in basis order."""
    return list(map(alg.weights.__getitem__, alg.basis))


def _classes(alg: TruncatedAlgebra, weights: List[Weight]) -> List[Tuple[int, ...]]:
    """The class of each weight in `weights`.  The class is a function of
    the weight, so `class_index` runs once per distinct weight; the memo is
    kept on the instance, shared by the checks, and stays sound when the
    weight table is edited."""
    memo = _class_memo(alg)
    for w in set(weights).difference(memo):
        memo[w] = alg.quotient.class_index(w)
    return list(map(memo.__getitem__, weights))


def _grouped(alg: TruncatedAlgebra) -> Optional[Tuple[Grouping, List[Weight]]]:
    """alg's grouping and the weight of each row-degree group, when alg's
    basis is its shape's and the weight table is constant on every group;
    else None.  One pass over the basis, on every call, since a table can
    be edited in place."""
    shape = _own_shape(alg)
    if shape is None:
        return None
    grouping = shape[3]
    weights = _basis_weights(alg)
    by_group = [weights[group[0]] for group in grouping[0]]
    if list(map(by_group.__getitem__, grouping[1])) != weights:
        return None
    return grouping, by_group


def check_multiplicative(alg: TruncatedAlgebra) -> Tuple[bool, Optional[dict]]:
    """Chain multiplicativity: products of chain members at levels i and j
    must land at level i+j.  Verified exhaustively over basis pairs with
    in-truncation products, one test per group triple on a table constant
    on row-degree groups, else by walking the product table; weight
    additivity makes this an identity for an uncorrupted weight table."""
    grouped = _grouped(alg)
    for ray in alg.rays:
        if grouped is not None:
            (_, _, triples), weights = grouped
            lv = [sum(map(mul, w, ray)) for w in weights]
            if all(lv[c] >= lv[a] + lv[b] for a, b, c in triples):
                continue
        lv = [alg.level(m, ray) for m in alg.basis]
        for i, j, k in zip(*_columns(alg)):
            if lv[k] < lv[i] + lv[j]:
                return False, {"ray": list(ray), "f": list(alg.basis[i]),
                               "g": list(alg.basis[j])}
    return True, None


def check_compatible_algebra(alg: TruncatedAlgebra) -> Tuple[bool, Optional[dict], Dict[Tuple[int, ...], int]]:
    """Graded pieces indexed by character classes of the cone: the product of
    a piece of class [u] and a piece of class [v] must land in class [u]+[v],
    one test per group triple on a table constant on row-degree groups, else
    by walking the product table.  Returns (ok, witness, piece dimensions
    by class, in order of first appearance in the basis)."""
    dims: Dict[Tuple[int, ...], int] = {}
    grouped = _grouped(alg)
    if grouped is not None:
        (groups, _, triples), weights = grouped
        classes = _classes(alg, weights)
        for c, group in zip(classes, groups):
            dims[c] = dims.get(c, 0) + len(group)
        if all(classes[c] == tuple(map(add, classes[a], classes[b])) for a, b, c in triples):
            return True, None, dims
    cls = _classes(alg, _basis_weights(alg))
    if grouped is None:
        for c in cls:
            dims[c] = dims.get(c, 0) + 1
    for i, j, k in zip(*_columns(alg)):
        if cls[k] != tuple(map(add, cls[i], cls[j])):
            return False, {"f": list(alg.basis[i]), "g": list(alg.basis[j])}, dims
    return True, None, dims


def check_coaction_commutes(alg: TruncatedAlgebra) -> Tuple[bool, Optional[dict]]:
    """Truncated commutation of the group coaction with the torus grading:
    every left tensor leg of Δ(f) for a weight-χ monomial f must again have
    class [χ], i.e. the class is constant on each row-degree group, which
    holds at once when the weight is.  The witness is the first monomial of
    the earliest non-constant group and the first member of that group whose
    class differs.  Holds identically for the row convention; the column
    convention breaks it whenever two row characters differ."""
    if _grouped(alg) is not None:
        return True, None
    shape = _own_shape(alg)
    if shape is not None:
        groups = shape[3][0]
    else:
        n = alg.n
        groups = _row_groups([tuple(sum(m[i * n:(i + 1) * n]) for i in range(n))
                              for m in alg.basis])[0]
    cls = _classes(alg, _basis_weights(alg))
    for first, *rest in groups:
        for k in rest:
            if cls[k] != cls[first]:
                return False, {"monomial": list(alg.basis[first]),
                               "left_leg": list(alg.basis[k])}
    return True, None
