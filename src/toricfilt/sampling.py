"""Deterministic random instance generators for self-tests and the test
suite.  All functions take an explicit random.Random so runs are reproducible
from a seed."""

from __future__ import annotations

import random
from typing import Tuple

from .bundles import CocharBundleData, GroupSpec
from .fans import Fan
from .filtrations import FiltrationData, RayFiltration
from .linalg import QMatrix, integer_span, span_canonical


def p1_fan() -> Fan:
    return Fan.make(1, [[1], [-1]], [[0], [1]])


def p2_fan() -> Fan:
    return Fan.make(2, [[1, 0], [0, 1], [-1, -1]], [[0, 1], [1, 2], [0, 2]])


def random_invertible_matrix(rng: random.Random, n: int,
                             lo: int = -2, hi: int = 2) -> QMatrix:
    while True:
        rows = [[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)]
        m = QMatrix.from_rows(rows)
        if m.det() != 0:
            return m


def random_chars(rng: random.Random, n: int, rank: int,
                 lo: int = -3, hi: int = 3) -> Tuple[Tuple[int, ...], ...]:
    return tuple(tuple(rng.randint(lo, hi) for _ in range(rank)) for _ in range(n))


def random_bundle(rng: random.Random, fan: Fan, n: int,
                  char_lo: int = -3, char_hi: int = 3,
                  frame_lo: int = -2, frame_hi: int = 2) -> CocharBundleData:
    """GL(n) data with independent random frames and characters per cone."""
    frames = [random_invertible_matrix(rng, n, frame_lo, frame_hi)
              for _ in fan.maximal_cones]
    chars = [random_chars(rng, n, fan.rank, char_lo, char_hi)
             for _ in fan.maximal_cones]
    return CocharBundleData.make(GroupSpec("GL", n), fan, frames, chars)


def random_subspace(rng: random.Random, ambient: int, dim: int):
    while True:
        rows = [[rng.randint(-3, 3) for _ in range(ambient)] for _ in range(dim)]
        s = span_canonical(rows, ambient)
        if s.dim == dim:
            return s


def random_ray_filtration(rng: random.Random, dim: int,
                          index_lo: int = -2, index_hi: int = 2) -> RayFiltration:
    """Random full decreasing chain built from a random flag.  When the index
    range is shorter than the flag, only its largest subspaces are used."""
    if index_hi < index_lo:
        raise ValueError("empty index range")
    flag_matrix = random_invertible_matrix(rng, dim, -3, 3)
    dims = sorted(rng.sample(range(1, dim + 1), rng.randint(1, dim)), reverse=True)
    if dims[0] != dim:
        dims = [dim] + dims
    dims = dims[:index_hi - index_lo + 1]
    indices = sorted(rng.sample(range(index_lo, index_hi + 1), len(dims)))
    jumps = []
    for i, d in zip(indices, dims):
        jumps.append((i, integer_span(flag_matrix.rows[:d], dim)))
    return RayFiltration.make(dim, jumps)


def random_filtration_data(rng: random.Random, fan: Fan, dim: int,
                           index_lo: int = -2, index_hi: int = 2) -> FiltrationData:
    return FiltrationData.make(
        fan, dim,
        [random_ray_filtration(rng, dim, index_lo, index_hi) for _ in fan.rays],
    )
