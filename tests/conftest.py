import pytest

from builders import identity, square_cone_fan
from toricfilt import (
    CocharBundleData,
    FiltrationData,
    GroupSpec,
    QMatrix,
    RayFiltration,
    Subspace,
    span_canonical,
)
from toricfilt.sampling import p1_fan, p2_fan


@pytest.fixture
def p1():
    return p1_fan()


@pytest.fixture
def p2():
    return p2_fan()


@pytest.fixture
def square_fan():
    return square_cone_fan()


@pytest.fixture
def tangent_p2(p2):
    """Tangent-bundle-of-P2 filtration data: full through 0, the ray's own
    line at 1, zero beyond."""
    full = Subspace.full(2)
    filts = [
        RayFiltration.make(2, [(0, full), (1, span_canonical([list(p2.rays[i])], 2))])
        for i in range(3)
    ]
    return FiltrationData.make(p2, 2, filts)


@pytest.fixture
def tangent_p2_bundle(p2):
    """The same bundle presented by per-cone frames and characters."""
    frames = [
        identity(2),
        QMatrix.from_rows([[0, -1], [1, -1]]),
        QMatrix.from_rows([[1, -1], [0, -1]]),
    ]
    chars = [
        [(1, 0), (0, 1)],
        [(-1, 1), (-1, 0)],
        [(1, -1), (0, -1)],
    ]
    return CocharBundleData.make(GroupSpec("GL", 2), p2, frames, chars)


@pytest.fixture
def four_lines(square_fan):
    """Four pairwise distinct lines on the rays of the square cone; admits no
    compatible decomposition."""
    full = Subspace.full(2)
    lines = [[1, 0], [0, 1], [1, 1], [1, 2]]
    filts = [
        RayFiltration.make(2, [(0, full), (1, span_canonical([l], 2))])
        for l in lines
    ]
    return FiltrationData.make(square_fan, 2, filts)
