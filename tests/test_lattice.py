import json
import os
import random
import subprocess
import sys

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from builders import solve_integer
from oracle import reference_integer_solution, reference_rref
from toricfilt.lattice import (
    hermite_normal_form,
    integer_kernel_basis,
    integer_solver,
    is_primitive,
    primitive_vector,
    smith_normal_form,
)
from sympy.matrices.normalforms import (
    hermite_normal_form as hermite_normal_form_ref,
    invariant_factors,
    smith_normal_form as smith_normal_form_ref,
)

import toricfilt

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
    from fractions import Fraction

    arows = [[Fraction(x) for x in row] for row in a]
    krows = [[Fraction(x) for x in row] for row in ker]
    assert len(reference_rref(arows, n)[1]) + len(ker) == n
    assert len(reference_rref(krows, n)[1]) == len(ker)


def test_hermite_canonical():
    h = hermite_normal_form([[2, 1], [1, 2]])
    assert h == ((1, 2), (0, 3))
    # row order and sign of the input do not matter
    assert hermite_normal_form([[-1, -2], [2, 1]]) == h


def test_smith_form_matches_sympy_within_budget():
    """Twenty seeded 6x5 matrices with entries in [-60, 60]: every call
    finishes in a child with a 5 s budget, U A V = D with U and V
    unimodular, and the diagonal equals sympy's invariant factors."""
    rng = random.Random(0)
    mats = [[[rng.randint(-60, 60) for _ in range(5)] for _ in range(6)] for _ in range(20)]
    code = ("import json, sys\n"
            "from toricfilt.lattice import smith_normal_form\n"
            "print(json.dumps([smith_normal_form(a) for a in json.loads(sys.argv[1])]))\n")
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(toricfilt.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code, json.dumps(mats)],
                          capture_output=True, env=env, timeout=5, check=True)
    for a, (u, d, v) in zip(mats, json.loads(proc.stdout)):
        U, D, V, A = sympy.Matrix(u), sympy.Matrix(d), sympy.Matrix(v), sympy.Matrix(a)
        assert U * A * V == D
        assert abs(U.det()) == 1 and abs(V.det()) == 1
        ref = smith_normal_form_ref(A, domain=sympy.ZZ)
        assert [D[i, i] for i in range(5)] == [abs(ref[i, i]) for i in range(5)]


def _lattice_rows(rng):
    m, n = rng.randint(1, 5), rng.randint(1, 5)
    return [[rng.choice([0, rng.randint(-9, 9)]) for _ in range(n)] for _ in range(m)], n


def test_hermite_form_matches_sympy_row_lattice():
    """sympy's Hermite form is column-style: the rows of the transposed
    sympy form of A^T span the same lattice as our rows."""
    rng = random.Random(5)
    for _ in range(200):
        rows, n = _lattice_rows(rng)
        h = hermite_normal_form(rows, n)
        ref = hermite_normal_form_ref(sympy.Matrix(rows).T)
        ref_rows = [[int(x) for x in ref[:, j]] for j in range(ref.shape[1])]
        assert h == hermite_normal_form(ref_rows, n)
        assert len(h) == sympy.Matrix(rows).rank()
        for k, row in enumerate(h):
            lead = next(j for j, x in enumerate(row) if x)
            assert row[lead] > 0
            assert all(0 <= h[i][lead] < row[lead] for i in range(k))


def test_solve_integer_matches_sympy_invariant_factors():
    """A x = b has an integral solution iff A and [A | b] have the same rank
    and the same product of nonzero invariant factors."""
    def factors(m):
        inv = invariant_factors(sympy.Matrix(m), domain=sympy.ZZ)
        return [abs(f) for f in inv if f != 0]

    rng = random.Random(6)
    solvable = 0
    for _ in range(300):
        a, n = _lattice_rows(rng)
        b = [rng.randint(-6, 6) for _ in a]
        if rng.random() < 0.5:
            x = [rng.randint(-3, 3) for _ in range(n)]
            b = [sum(r * y for r, y in zip(row, x)) for row in a]
        sol = solve_integer(a, b)
        fa, fab = factors(a), factors([row + [c] for row, c in zip(a, b)])
        expected = len(fa) == len(fab) and sympy.prod(fa) == sympy.prod(fab)
        assert (sol is not None) == expected
        if sol is not None:
            solvable += 1
            assert [sum(r * y for r, y in zip(row, sol)) for row in a] == b
    assert 0 < solvable < 300


def test_integer_solver_matches_reference_solution():
    """One solver per matrix, which composes its Smith form into one
    integer matrix, returns exactly the solution that the oracle solves
    coordinatewise from the same Smith form (`reference_integer_solution`),
    and None exactly when sympy's invariant factors say there is none: on
    seeded matrices and right-hand sides, on matrices whose invariant
    factors exceed 1, on rank-deficient ones, on the 4x3 generator matrix
    of the square cone, and on inconsistent right-hand sides."""
    def factors(m):
        inv = invariant_factors(sympy.Matrix(m), domain=sympy.ZZ)
        return [abs(f) for f in inv if f != 0]

    def check(a, b):
        sol = integer_solver(a)(b)
        assert sol == reference_integer_solution(a, b)
        fa, fab = factors(a), factors([row + [c] for row, c in zip(a, b)])
        assert (sol is not None) == (len(fa) == len(fab) and sympy.prod(fa) == sympy.prod(fab))
        if sol is not None:
            assert [sum(r * y for r, y in zip(row, sol)) for row in a] == list(b)
        return sol

    rng = random.Random(12)
    outcomes = set()
    for _ in range(120):
        a, n = _lattice_rows(rng)
        for _ in range(4):
            b = [rng.randint(-6, 6) for _ in a]
            if rng.random() < 0.5:
                x = [rng.randint(-3, 3) for _ in range(n)]
                b = [sum(r * y for r, y in zip(row, x)) for row in a]
            outcomes.add(check(a, b) is None)
    assert outcomes == {True, False}

    square = [[0, 0, 1], [1, 0, 1], [0, 1, 1], [1, 1, 1]]
    special = {
        ((2, 0), (0, 6)): [2, 6],
        ((2, 4, 4), (-6, 6, 12), (10, 4, 16)): [2, 2, 156],
        ((3, 6, 9),): [3],
        ((4, 6), (6, 9), (2, 3)): [1],        # rank-deficient, tall
        ((1, 2, 3), (2, 4, 6)): [1],          # rank-deficient, wide
        tuple(map(tuple, square)): [1, 1, 1],
    }
    refused = 0
    for a, expected in special.items():
        a = [list(row) for row in a]
        assert factors(a) == expected
        for _ in range(30):
            x = [rng.randint(-4, 4) for _ in a[0]]
            b = [sum(r * y for r, y in zip(row, x)) for row in a]
            assert check(a, b) is not None
            b[rng.randrange(len(b))] += rng.choice([1, -1]) * rng.randint(1, 3)
            refused += check(a, b) is None
    assert refused > 100
    # the square cone's generators satisfy g0 + g3 = g1 + g2
    assert integer_solver(square)([0, 1, 1, 1]) is None
    assert integer_solver(square)([0, 1, 1, 2]) == reference_integer_solution(square, [0, 1, 1, 2])
    assert integer_solver([[1], [1]])([0, 1]) is None
    assert integer_solver([])([]) == () == reference_integer_solution([], [])
    assert integer_solver([[2, 0]])([4]) == (2, 0)
    assert integer_solver([[2, 0]])([3]) is None
    with pytest.raises(ValueError):
        integer_solver([[1, 2]])([1, 2])
