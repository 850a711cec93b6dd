"""Builders that only the tests use: a copy of a record with changed
fields, the identity matrix, the transpose of a matrix, one integral
solution of a linear system, the fan of one non-simplicial square cone, and
split GL(n) bundle data from per-ray levels.  No command runs them, so they live here rather than in
the package."""

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


def random_split_bundle(rng: random.Random, fan: Fan, n: int,
                        level_lo: int = -3, level_hi: int = 3,
                        frame: Optional[QMatrix] = None) -> CocharBundleData:
    """GL(n) data built from per-ray integer levels with a common frame: the
    k-th frame column carries level `levels[ray][k]` on each ray, and each
    cone's characters solve the corresponding integral systems.  On smooth
    fans the systems are always solvable, and the result glues (it is an
    equivariant sum of line bundles)."""
    if frame is None:
        frame = random_invertible_matrix(rng, n)
    levels = [
        [rng.randint(level_lo, level_hi) for _ in range(n)] for _ in fan.rays
    ]
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


def identity(n: int) -> QMatrix:
    """The n x n identity matrix."""
    return QMatrix.from_rows([[int(i == j) for j in range(n)] for i in range(n)])


def transpose(m: QMatrix) -> QMatrix:
    """The transpose of `m`."""
    return QMatrix.from_rows(zip(*m.entries), m.nrows)
