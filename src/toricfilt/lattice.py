"""Integer lattice computations: Smith and Hermite normal forms, integral
linear solving, primitive vectors.  `integer_solver(a)` computes the Smith
form of A once and returns a solver for A x = b, so a caller with many
right-hand sides against one matrix (the per-cone character solves of the
compatibility checker, and the unit vectors whose solutions are the
columns of a unimodular inverse in `fans`) pays for one Smith form.

Everything here works on plain tuples/lists of Python ints (arbitrary
precision).  Sizes are desk scale (rank <= 6, a few dozen rows), so the
classical elimination algorithms are used directly.  The Smith form moves
the smallest nonzero entry of the trailing block to the pivot in every
round and reduces with nearest-integer quotients, so each round either
clears the pivot's row and column or leaves a nonzero entry of at most half
the pivot's magnitude for the next round.
"""

from __future__ import annotations

from math import gcd
from typing import Callable, List, Optional, Sequence, Tuple

IntVector = Tuple[int, ...]
IntMatrix = Tuple[IntVector, ...]


def content(v: Sequence[int]) -> int:
    g = 0
    for x in v:
        g = gcd(g, abs(x))
    return g


def is_primitive(v: Sequence[int]) -> bool:
    return content(v) == 1


def primitive_vector(v: Sequence[int]) -> IntVector:
    """Divide out the gcd of the entries, keeping direction.  Zero is rejected."""
    g = content(v)
    if g == 0:
        raise ValueError("the zero vector has no primitive representative")
    return tuple(x // g for x in v)


def _identity(n: int) -> List[List[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _nearest_quotient(a: int, b: int) -> int:
    """The integer nearest to a / b (halves round up), for b != 0."""
    return (2 * a + b) // (2 * b)


def smith_normal_form(a: Sequence[Sequence[int]]) -> Tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Return (U, D, V) with U*A*V = D, U and V unimodular, D diagonal with
    nonnegative entries satisfying d_1 | d_2 | ...  A may be any shape."""
    m = len(a)
    n = len(a[0]) if m else 0
    d = [list(map(int, row)) for row in a]
    u = _identity(m)
    v = _identity(n)

    def swap_rows(i, j):
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in d:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(dst, src, q):
        # row_dst += q * row_src
        d[dst] = [x + q * y for x, y in zip(d[dst], d[src])]
        u[dst] = [x + q * y for x, y in zip(u[dst], u[src])]

    def add_col(dst, src, q):
        for row in d:
            row[dst] += q * row[src]
        for row in v:
            row[dst] += q * row[src]

    t = 0
    while t < min(m, n):
        while True:
            # move a minimal-magnitude nonzero entry of the trailing block to
            # (t, t) and reduce row t and column t by nearest-integer
            # quotients: every remainder is at most half the pivot
            best = min(((abs(d[i][j]), i, j) for i in range(t, m) for j in range(t, n)
                        if d[i][j]), default=None)
            if best is None:
                break
            swap_rows(t, best[1])
            swap_cols(t, best[2])
            p = d[t][t]
            for i in range(t + 1, m):
                if d[i][t]:
                    add_row(i, t, -_nearest_quotient(d[i][t], p))
            for j in range(t + 1, n):
                if d[t][j]:
                    add_col(j, t, -_nearest_quotient(d[t][j], p))
            if any(d[i][t] for i in range(t + 1, m)) or any(d[t][t + 1:]):
                continue
            # the pivot must divide every entry of the trailing block
            culprit = next((i for i in range(t + 1, m)
                            if any(x % p for x in d[i][t + 1:])), None)
            if culprit is None:
                break
            add_row(t, culprit, 1)
        if best is None:
            break
        if d[t][t] < 0:
            d[t] = [-x for x in d[t]]
            u[t] = [-x for x in u[t]]
        t += 1

    freeze = lambda rows: tuple(tuple(r) for r in rows)
    return freeze(u), freeze(d), freeze(v)


def integer_solver(a: Sequence[Sequence[int]]) -> Callable[[Sequence[int]], Optional[IntVector]]:
    """The map b -> one integral solution x of A x = b, or None.  The Smith
    form U A V = D is computed once, here; each call then solves D y = U b
    coordinatewise and returns x = V y.  Free coordinates of y are set to
    zero, which makes the returned solution deterministic."""
    m = len(a)
    n = len(a[0]) if m else 0
    u, d, v = smith_normal_form(a) if m else ((), (), ())
    r = min(m, n)

    def solution(b: Sequence[int]) -> Optional[IntVector]:
        if len(b) != m:
            raise ValueError("right-hand side length mismatch")
        if m == 0:
            return tuple([0] * n)
        c = [sum(u[i][k] * b[k] for k in range(m)) for i in range(m)]
        y = [0] * n
        for i in range(m):
            di = d[i][i] if i < r else 0
            if di != 0:
                if c[i] % di != 0:
                    return None
                y[i] = c[i] // di
            elif c[i] != 0:
                return None
        return tuple(sum(v[i][k] * y[k] for k in range(n)) for i in range(n))

    return solution


def integer_kernel_basis(a: Sequence[Sequence[int]]) -> IntMatrix:
    """Z-basis of {x in Z^n : A x = 0}.  The result spans the saturated kernel
    lattice, so the quotient Z^n / ker is torsion free."""
    m = len(a)
    n = len(a[0]) if m else 0
    if m == 0:
        return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
    _, d, v = smith_normal_form(a)
    rank = sum(1 for i in range(min(m, n)) if d[i][i] != 0)
    return tuple(tuple(v[i][k] for i in range(n)) for k in range(rank, n))


def hermite_normal_form(rows: Sequence[Sequence[int]], n: Optional[int] = None) -> IntMatrix:
    """Canonical row-style Hermite normal form of the lattice spanned by the
    rows: positive pivots, entries above each pivot reduced into [0, pivot)."""
    work = [list(map(int, r)) for r in rows]
    if n is None:
        if not work:
            raise ValueError("column count required for an empty row set")
        n = len(work[0])
    r = 0
    for c in range(n):
        pr = None
        for i in range(r, len(work)):
            if work[i][c] != 0:
                pr = i
                break
        if pr is None:
            continue
        work[r], work[pr] = work[pr], work[r]
        # euclid out every other nonzero entry in this column below r
        again = True
        while again:
            again = False
            for i in range(r + 1, len(work)):
                if work[i][c] != 0:
                    q = work[i][c] // work[r][c]
                    work[i] = [x - q * y for x, y in zip(work[i], work[r])]
                    if work[i][c] != 0:
                        work[r], work[i] = work[i], work[r]
                        again = True
        if work[r][c] < 0:
            work[r] = [-x for x in work[r]]
        for i in range(r):
            q = work[i][c] // work[r][c]
            if q != 0:
                work[i] = [x - q * y for x, y in zip(work[i], work[r])]
        r += 1
        if r == len(work):
            break
    return tuple(tuple(row) for row in work[:r])
