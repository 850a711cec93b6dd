"""Builders that only the tests use: a copy of a record with changed
fields, the identity matrix, the transpose of a matrix, one integral
solution of a linear system, the fan of one non-simplicial square cone, the
4-cone fan of P^3, the fans of P^2 blown up in fixed points, tangent
bundles, and split GL(n) bundle data from per-ray levels.  No command runs
them, so they live here rather than in the package."""

import random
from typing import List, Optional, Sequence, Tuple

from toricfilt.bundles import CocharBundleData, GroupSpec
from toricfilt.fans import Fan
from toricfilt.lattice import IntVector, integer_solver
from toricfilt.linalg import QMatrix
from toricfilt.sampling import random_invertible_matrix


def replace(obj, **changes):
    """A copy of the record `obj` with `changes` to its fields, built through
    `__init__`: `__post_init__` runs again and the copy starts with no cache."""
    fields = {f: getattr(obj, f) for f in obj._fields}
    fields.update(changes)
    return obj.__class__(**fields)


def solve_integer(a: Sequence[Sequence[int]], b: Sequence[int]) -> Optional[IntVector]:
    """One integral solution x of A x = b, or None: `integer_solver(a)(b)`."""
    return integer_solver(a)(b)


def square_cone_fan() -> Fan:
    """Single non-simplicial maximal cone over the unit square at height one."""
    return Fan.make(
        3,
        [[0, 0, 1], [1, 0, 1], [0, 1, 1], [1, 1, 1]],
        [[0, 1, 2, 3]],
    )


# the 4-cone fan of P^3
P3 = Fan.make(3, [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1]],
              [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]])


def tangent_bundle(fan: Fan) -> CocharBundleData:
    """The tangent bundle of a smooth fan: each cone's frame columns are its
    rays, and the characters are the dual basis, level 1 on the column's
    own ray and 0 on the cone's other rays."""
    frames, chars = [], []
    for cone in fan.maximal_cones:
        rows = [fan.rays[i] for i in cone]
        frames.append(QMatrix.from_rows(zip(*rows), len(cone)))
        chars.append([solve_integer(rows, [int(i == j) for j in range(len(cone))])
                      for i in range(len(cone))])
    return CocharBundleData.make(GroupSpec("GL", fan.rank), fan, frames, chars)


def random_split_bundle(rng: random.Random, fan: Fan, n: int,
                        level_lo: int = -3, level_hi: int = 3,
                        frame: Optional[QMatrix] = None) -> CocharBundleData:
    """`split_bundle` of random per-ray levels in [level_lo, level_hi] with
    a common frame, random unless given."""
    if frame is None:
        frame = random_invertible_matrix(rng, n)
    levels = [
        [rng.randint(level_lo, level_hi) for _ in range(n)] for _ in fan.rays
    ]
    return split_bundle(fan, levels, frame)


def split_bundle(fan: Fan, levels: Sequence[Sequence[int]], frame: QMatrix) -> CocharBundleData:
    """GL(n) data built from per-ray integer levels with a common frame: the
    k-th frame column carries level `levels[ray][k]` on each ray, and each
    cone's characters solve the corresponding integral systems.  On smooth
    fans the systems are always solvable, and the result glues (it is an
    equivariant sum of line bundles)."""
    n = frame.ncols
    chars: List[Tuple[Tuple[int, ...], ...]] = []
    for idx in fan.maximal_cones:
        rows = [fan.rays[i] for i in idx]
        cone_chars = []
        for k in range(n):
            target = [levels[i][k] for i in idx]
            u = solve_integer(rows, target)
            if u is None:
                raise ValueError("level system not integrally solvable; use a smooth fan")
            cone_chars.append(u)
        chars.append(tuple(cone_chars))
    frames = [frame for _ in fan.maximal_cones]
    return CocharBundleData.make(GroupSpec("GL", n), fan, frames, chars)


def blown_up_p2(k: int) -> Fan:
    """The smooth complete rank-2 fan with k >= 3 rays made from the rays of
    P^2 by inserting ρ_i + ρ_(i+1) between neighbours, going round the
    circle, with the maximal cones spanned by consecutive rays: at k = 6
    the fan of P^2 blown up in its three fixed points."""
    rays = [(1, 0), (0, 1), (-1, -1)]
    j = 0
    while len(rays) < k:
        a, b = rays[j], rays[(j + 1) % len(rays)]
        rays.insert(j + 1, (a[0] + b[0], a[1] + b[1]))
        j = (j + 2) % len(rays)
    return Fan.make(2, rays, [[i, (i + 1) % k] for i in range(k)])


def parity_split_bundle(k: int) -> CocharBundleData:
    """The split GL(9) bundle with identity frames on `blown_up_p2(k)`, k
    even, whose column (a, b) in {0, 1, 2}^2 has level a on the even rays
    and b on the odd ones.  It glues, and each cone, one even ray and one
    odd, takes every pair of levels, so its torus universe is {0, 1, 2}^k,
    3^k tuples."""
    levels = [[(a, b)[i % 2] for a in range(3) for b in range(3)] for i in range(k)]
    return split_bundle(blown_up_p2(k), levels, identity(9))


def identity(n: int) -> QMatrix:
    """The n x n identity matrix."""
    return QMatrix.from_rows([[int(i == j) for j in range(n)] for i in range(n)])


def transpose(m: QMatrix) -> QMatrix:
    """The transpose of `m`."""
    return QMatrix.from_rows(zip(*m.entries), m.nrows)
