import pytest
from hypothesis import given, settings, strategies as st

from toricfilt.lattice import (
    hermite_normal_form,
    integer_kernel_basis,
    is_primitive,
    primitive_vector,
    smith_normal_form,
    solve_integer,
)

small_int = st.integers(min_value=-7, max_value=7)


def matrices(max_rows=4, max_cols=4):
    return st.integers(min_value=1, max_value=max_cols).flatmap(
        lambda n: st.lists(
            st.lists(small_int, min_size=n, max_size=n), min_size=1, max_size=max_rows
        )
    )


def _matmul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))]


def _det(m):
    n = len(m)
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        total += (-1) ** j * m[0][j] * _det(minor)
    return total


def test_primitive_vector():
    assert primitive_vector([2, -4, 6]) == (1, -2, 3)
    assert is_primitive((3, 5))
    assert not is_primitive((2, 4))
    with pytest.raises(ValueError):
        primitive_vector([0, 0])


@settings(max_examples=80, deadline=None)
@given(a=matrices())
def test_smith_form_properties(a):
    u, d, v = smith_normal_form(a)
    m, n = len(a), len(a[0])
    assert abs(_det([list(r) for r in u])) == 1
    assert abs(_det([list(r) for r in v])) == 1
    prod = _matmul(_matmul([list(r) for r in u], a), [list(r) for r in v])
    assert prod == [list(r) for r in d]
    diag = [d[i][i] for i in range(min(m, n))]
    for i in range(m):
        for j in range(n):
            if i != j:
                assert d[i][j] == 0
    for x, y in zip(diag, diag[1:]):
        assert x >= 0 and y >= 0
        if y != 0:
            assert x != 0 and y % x == 0


@settings(max_examples=80, deadline=None)
@given(a=matrices(), seed=st.integers(0, 2**16))
def test_solve_integer_round_trip(a, seed):
    import random

    rng = random.Random(seed)
    n = len(a[0])
    x = [rng.randint(-4, 4) for _ in range(n)]
    b = [sum(row[j] * x[j] for j in range(n)) for row in a]
    sol = solve_integer(a, b)
    assert sol is not None
    assert [sum(row[j] * sol[j] for j in range(n)) for row in a] == b


def test_solve_integer_unsolvable():
    # 2u = 1 has no integer solution
    assert solve_integer([[2]], [1]) is None
    # rationally inconsistent
    assert solve_integer([[1], [1]], [0, 1]) is None


@settings(max_examples=80, deadline=None)
@given(a=matrices())
def test_integer_kernel(a):
    ker = integer_kernel_basis(a)
    n = len(a[0])
    for v in ker:
        assert all(sum(row[j] * v[j] for j in range(n)) == 0 for row in a)
    # saturation: kernel rank + row rank = n over Q
    from toricfilt.linalg import rref
    from fractions import Fraction

    arows = [[Fraction(x) for x in row] for row in a]
    krows = [[Fraction(x) for x in row] for row in ker]
    assert len(rref(arows, n)[1]) + len(ker) == n
    assert len(rref(krows, n)[1]) == len(ker)


def test_hermite_canonical():
    h = hermite_normal_form([[2, 1], [1, 2]])
    assert h == ((1, 2), (0, 3))
    # row order and sign of the input do not matter
    assert hermite_normal_form([[-1, -2], [2, 1]]) == h
