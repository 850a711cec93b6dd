"""Exact linear algebra over the rationals.

A subspace of Q^n is stored as the rows of its reduced row echelon form,
each scaled to a primitive integer row (so its pivot is positive).  RREF is
a canonical form for a row space and a line has exactly two primitive
integer rows, so two subspaces are equal exactly when their stored rows are
identical; every operation below returns that canonical representative,
which keeps downstream certificates reproducible byte for byte.  There is
no floating point anywhere in this package.

Reduction runs over Python ints, never over Fractions, and has one reduce
step with two placements, echelon or reduced.  An echelon form is kept as
two lists in pivot order, the pivot columns and the primitive integer rows,
each with a positive pivot and zero left of it.  `_reduce` clears a vector
at each pivot in increasing order: at a pivot of 1 it only subtracts, which
scales nothing, and any other step scales the vector and divides it by the
gcd of its entries at once, which keeps coefficients small; a result that
took a step is primitive.  `_append` finds the lead and its sign in one pass
and places what is left as a new row, and `_insert` then also clears its
pivot from the other rows, inline, which keeps the form reduced: the RREF.
The docstrings give the proofs.  Only canonical rows need the reduced
placement: `_eliminate` inserts the rows of a matrix (a row of Fractions
enters times the lcm of its denominators), and a span or sum is the rows it
keeps, canonical as inserted, with no sign fixed afterwards.  Fractions appear only at the
boundary: `Subspace.basis` divides each pivot row by its pivot, which
gives the same unique RREF as elimination over Fractions; a span of
integer rows (`integer_span`, which spans the bases of filtration files)
makes none at all.  A matrix, a frame or a morphism, is integer rows over
one positive denominator with no common factor left (`QMatrix.from_rows`
divides it out through `_primitive`), so equal matrices are equal records,
and its Fractions (`QMatrix.entries`) are built only to print it.  There
is no matrix inverse, product or solve: the package reads frames only
through their determinant and their columns, and a morphism through the
products of its integer rows with the rows of a subspace.
Where only a rank or the rows that add rank are read, the echelon
placement suffices: `rank` (the ranks in `fans` and the spanning checks
of certificates and torus splittings) and `complement_in` append and
never clear.  A kernel (and so an annihilator or an intersection) takes
one elimination: reduced with its columns reversed, the conditions give
generators that already are the canonical rows (see `_kernel`).  `intersect_all`
eliminates only for two or more proper members.  The meets of one space
with every value of a chain take no kernel at all: `levelled_meets` runs
one Zassenhaus reduction through `_append` and reads each meet off the
rows whose pivot lies in the right half, spanning their right halves to
canonical rows only when the meet grows (its docstring gives the proof).
The compatibility engine sweeps only spaces of dimension 2 or more: the
meets of a line with a chain's values are the line or zero, which
reducing its row against each value's canonical rows (`_held`) decides.
`record` makes the package's frozen value classes (as
`dataclasses.dataclass(frozen=True)` would, without importing `dataclasses`,
whose `inspect` and `ast` imports cost a CLI command more start-up time than
most commands compute); it compiles only `__init__` from source.  Scalars
are ints or Fractions: `serialize` is the one reader of rational literals,
so a string, like a float or a boolean, raises TypeError here.
`cached_on_instance` is the package's one per-instance cache: it keeps
`annihilator`, a matrix's determinant and the lines of its columns
(`column_lines`, not eliminated) here, and a cone's character quotient and
integer solver, whether a quotient is the identity, a chain's issues, its
validity, its sweep rows and its memo of grid lines, the gluing report
and the ray chains of bundle data elsewhere, in the instance dict of a
frozen record; its
`keep` stores a value that a builder knows without computing it.
`block_sum` eliminates nothing: its padded rows are canonical by
construction (its docstring gives the proof).
A chain spanned by levelled vectors (`levelled_spans`, and `column_chain`
for a matrix's integer columns, of any content) inserts the vectors in
descending level order and reads the canonical span off at each level
boundary, so no level is eliminated from scratch; `filtrations.tensor` and
the chains of bundle frames are built this way.  `complement_in` appends
the rows of the outer space to an echelon form of the sum of the inner ones
and keeps those that add rank, deciding from their number whether that sum
lies in the outer space.
Containment has two rules, each where it measured faster.  The tests of
validation and of the calculus (`Subspace.contains`, `contains_subspace`,
which decides a chain's nesting, and `maps_into` on the unreduced image of
a subspace) take an annihilator product against the target's cached
annihilator: one kernel per target serves every test against it, which is
cheaper there than reducing each tested row against the target's rows.
The reconstruction test of `filtrations` tests each piece once, mostly
against values that nothing else tests, so there a kernel per value would
serve one test: `_held` reduces each piece row against the value's
canonical rows and skips a full value, and takes no kernel.
`QMatrix.det` runs Bareiss's fraction-free forward elimination on the
integer rows, whose last pivot over den^n is the determinant; the
insertion step divides rows by their content, which loses that scale.  The insertion step
in turn does not use Bareiss's exact division: its entries would then grow
as minors of the whole input, which is slow on the tall spanning sets of
tensor filtrations.
"""

from __future__ import annotations

import functools
import itertools
from bisect import bisect_left
from fractions import Fraction
from math import gcd, lcm
from operator import attrgetter, itemgetter, mul
from typing import Iterable, List, Optional, Sequence, Tuple, Union

Vector = Tuple[Fraction, ...]
Scalar = Union[int, Fraction]

_RECORD_INIT = '''
def __init__(self, {params}):
{sets}
'''


def _frozen_setattr(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


def record(cls):
    """Make `cls` a frozen record of its annotated fields, in annotation
    order, with what `dataclasses.dataclass(frozen=True)` would give it and
    without that module's import cost: an `__init__` generated once (class
    attributes are the defaults; `__post_init__` runs last), equality on the
    field tuple between instances of the same class, `hash` of the field
    tuple, `QualName(field=repr, ...)`, and AttributeError on assignment and
    deletion.  Only `__init__` is compiled from source, so that its signature
    and its errors for missing or extra arguments are those of a plain
    function; the other methods are closures over the field getter.  The
    instance dict stays, for `cached_on_instance`; only these two helpers
    write it."""
    names = tuple(cls.__dict__.get("__annotations__", ()))
    defaults = tuple(cls.__dict__[f] for f in names if f in cls.__dict__)
    if any(f in cls.__dict__ for f in names[:len(names) - len(defaults)]):
        raise TypeError(f"{cls.__name__}: a field without default follows a default")
    sets = [f"    _set(self, {f!r}, {f})" for f in names]
    if hasattr(cls, "__post_init__"):
        sets.append("    self.__post_init__()")
    namespace = {"_set": object.__setattr__}
    exec(_RECORD_INIT.format(params=", ".join(names), sets="\n".join(sets) or "    pass"),
         namespace)
    # the field tuple; `attrgetter` gives a bare value for one name and
    # takes no zero names
    values = attrgetter(*names) if len(names) > 1 else \
        lambda obj: tuple(getattr(obj, f) for f in names)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self):
        return hash(values(self))

    def __repr__(self):
        shown = ", ".join(f"{f}={v!r}" for f, v in zip(names, values(self)))
        return f"{self.__class__.__qualname__}({shown})"

    namespace["__init__"].__defaults__ = defaults
    for method in (namespace["__init__"], __eq__, __hash__, __repr__):
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
        setattr(cls, method.__name__, method)
    cls.__setattr__ = _frozen_setattr
    cls.__delattr__ = _frozen_delattr
    cls._fields = names
    return cls


def cached_on_instance(fn):
    """fn(obj), which is never None, cached in the instance dict of a frozen
    record under "_" + fn's name.  The cached attribute is not a field, so
    equality and hashing ignore it, and a copy built through `__init__`
    starts with no cache.  Only a returned value is cached: an exception is raised
    again on every call.  A failure that is a fact about the instance is
    kept by returning it as a value and raising it outside, as
    `bundles.associated_klyachko` does with its witness; a kept exception
    object would hold its traceback, and with it the frames and the
    instance, alive.  `keep(obj, value)`, an attribute of the returned
    function, stores `value` as fn(obj) without calling fn, for a builder
    that knows the value from how it built `obj` (`bundles._chain_from_cone`
    records that its chain is valid)."""
    key = "_" + fn.__name__

    @functools.wraps(fn)
    def cached(obj):
        value = obj.__dict__.get(key)
        if value is None:
            value = fn(obj)
            object.__setattr__(obj, key, value)
        return value

    def keep(obj, value):
        object.__setattr__(obj, key, value)

    cached.keep = keep
    return cached


def to_fraction(x: Scalar) -> Fraction:
    """Coerce an int or a Fraction to a Fraction.  Everything else is
    rejected: floats, because tolerance-based arithmetic would make subspace
    checks unsound, and strings, because `serialize` is the one reader of
    rational literals."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise TypeError("boolean is not a rational scalar")
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected exact rational, got {type(x).__name__}")


@record
class QMatrix:
    """A rational matrix, the container of frames and morphisms, as integer
    `rows` over one positive denominator `den`, with no common factor left
    among the entries and `den`: equal matrices are equal records.  It is
    read through its determinant and its rows and columns, never multiplied
    or inverted; `entries`, the Fractions, only prints it.  `ncols` is
    explicit so that matrices with zero rows keep their width."""

    rows: Tuple[Tuple[int, ...], ...]
    ncols: int
    den: int = 1

    def __post_init__(self):
        for row in self.rows:
            if len(row) != self.ncols:
                raise ValueError("ragged matrix rows")

    @staticmethod
    def from_rows(rows: Iterable[Iterable[Scalar]], ncols: Optional[int] = None,
                  den: int = 1) -> "QMatrix":
        """The matrix of int or Fraction rows, every entry divided by the
        positive int `den`: the rows times the lcm of all their
        denominators, over `den` times that lcm, made primitive together
        with that denominator (`_primitive`)."""
        data = [_exact(r) for r in rows]
        if ncols is None:
            if not data:
                raise ValueError("ncols required for a matrix with no rows")
            ncols = len(data[0])
        flat, scale = _clear_denominators([x for row in data for x in row])
        flat.append(den * scale)
        if flat[-1] > 1:
            flat = _primitive(flat)
        it = iter(flat)
        return QMatrix(tuple(tuple(itertools.islice(it, len(r))) for r in data), ncols,
                       flat[-1])

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def entries(self) -> Tuple[Vector, ...]:
        """The entries as Fractions, for printing."""
        return tuple(tuple(Fraction(x, self.den) for x in row) for row in self.rows)

    @cached_on_instance
    def det(self) -> Fraction:
        """Bareiss forward elimination on the integer rows: every step
        divides exactly, and the last pivot is their determinant, which
        den^n divides.  Cached on the instance: validation, gluing and
        reduction each ask for it."""
        if self.nrows != self.ncols:
            raise ValueError("determinant of a non-square matrix")
        n = self.nrows
        m = list(self.rows)
        sign, prev = 1, 1
        for c in range(n):
            pr = next((r for r in range(c, n) if m[r][c]), None)
            if pr is None:
                return Fraction(0)
            if pr != c:
                m[c], m[pr] = m[pr], m[c]
                sign = -sign
            top = m[c]
            p = top[c]
            for r in range(c + 1, n):
                row = m[r]
                f = row[c]
                m[r] = [(p * a - f * b) // prev for a, b in zip(row, top)]
            prev = p
        return Fraction(sign * prev, self.den ** n)


_ZERO = Fraction(0)


def _clear_denominators(row: Sequence[Fraction]) -> Tuple[List[int], int]:
    """(row times the lcm of its denominators, that lcm); ints pass as they are."""
    scale = lcm(*[x.denominator for x in row])
    if scale == 1:
        return [x.numerator for x in row], 1
    return [x.numerator * (scale // x.denominator) for x in row], scale


def _primitive(row: List[int]) -> List[int]:
    c = gcd(*row)
    return [x // c for x in row] if c > 1 else row


def _lead(row: Sequence[int]) -> int:
    """The column of the first nonzero entry of a nonzero row."""
    return row.index(next(filter(None, row)))


def _integer_row(row: Sequence[Fraction]) -> List[int]:
    """The primitive integer row on the same line as `row`."""
    return _primitive(_clear_denominators(row)[0])


def _reduce(pivots: Sequence[int], rows: Sequence[Sequence[int]],
            v: Sequence[int]) -> Sequence[int]:
    """v cleared at each pivot column of the echelon form (`pivots`, `rows`;
    see `_append`), in increasing pivot order: where v[p] = f is nonzero
    and the row at p has the pivot c > 0, v becomes (c/g) v - (f/g) row,
    with g = gcd(c, f).  A pivot of 1 only subtracts f row: nothing is
    scaled, so nothing grows.  Any other step is followed at once by
    division by the content, so coefficients grow at most by one scaling
    step between two divisions; a run of pivot-1 steps leaves its content
    to the division after it, or to the one at the end.  So a result that
    took a step is primitive, and the one primitive row on its line with
    the same sign, whichever steps divided.  The form need not be reduced.
    Each row is zero left of its pivot, so the step at p changes v only at
    p and right of it; every earlier pivot of v is already zero and stays
    zero, and p becomes zero.  So the result is zero at every pivot, and
    every step scales v by a positive factor.  The result is zero exactly
    when v lies in the span of `rows`: it differs from a positive multiple
    of v by a vector of that span, and a nonzero vector of the span is
    nonzero at the pivot of the first row it takes (the later rows are zero
    there)."""
    unscaled = False
    for p, row in zip(pivots, rows):
        f = v[p]
        if f:
            c = row[p]
            if c == 1:
                v = [x - f * y for x, y in zip(v, row)]
                unscaled = True
            else:
                g = gcd(c, f)
                a, b = c // g, f // g
                v = _primitive([a * x - b * y for x, y in zip(v, row)])
                unscaled = False
    return _primitive(v) if unscaled else v


def _held(space: "Subspace", rows: Iterable[Sequence[int]]) -> bool:
    """Whether `space` holds every one of the integer `rows`, with no
    kernel: a full space holds everything, and otherwise each row must
    reduce to zero against the canonical rows of `space` (`_reduce`),
    which it does exactly when it lies in their span."""
    if len(space.rows) == space.ambient:
        return True
    pivots = space.pivots
    return not any(any(_reduce(pivots, space.rows, row)) for row in rows)


def _append(pivots: List[int], rows: List[Sequence[int]], v: Sequence[int]) -> Optional[int]:
    """Add v to the echelon form kept as the pivot columns `pivots` and the
    rows `rows` in pivot order: primitive integer rows with positive
    pivots, each zero left of its own.  Returns the position of the new
    row, or None when v adds no rank.

    v is reduced (`_reduce`).  If nothing is left, v lies in the span (zero
    and dependent vectors drop out); otherwise what is left is zero at
    every pivot, so its first nonzero column p is no pivot yet.  One pass
    finds p and the sign there; what is left is made primitive with a
    positive entry at p and placed in pivot order, and the rows are again
    an echelon form of the span with v added.  The other rows are not
    touched: they need not be zero at p.  Rows are placed, never mutated,
    so callers may pass rows they keep."""
    v = _reduce(pivots, rows, v)
    for lead, x in enumerate(v):
        if x:
            break
    else:
        return None
    v = _primitive([-y for y in v] if x < 0 else list(v))
    k = bisect_left(pivots, lead)
    pivots.insert(k, lead)
    rows.insert(k, v)
    return k


def _insert(pivots: List[int], rows: List[Sequence[int]], v: Sequence[int]) -> bool:
    """Add v to the reduced echelon form kept as `pivots` and `rows` (as in
    `_append`, with each row also zero at the others' pivots).  Returns
    whether the rank grew.

    v is placed by `_append`, at its pivot p; it is zero at every other
    pivot, so the rows after it, zero left of their pivots, and v itself
    stay reduced.  Then p is cleared from every earlier row that has it,
    inline, by the step of `_reduce` against v alone: row - f v when v's
    pivot c is 1, else (c/g) row - (f/g) v, and the result made primitive.
    Such a row has its pivot left of p, where v is zero, so the clearing
    keeps its first nonzero entry and, scaled by a positive factor, its
    sign; and v is zero at every other pivot, so none of them moves.  The
    rows are again in RREF, primitive with positive pivots: the canonical
    rows of the span.  Rows are replaced, never mutated, so callers may
    pass rows they keep."""
    k = _append(pivots, rows, v)
    if k is None:
        return False
    lead, v = pivots[k], rows[k]
    c = v[lead]
    for j in range(k):
        row = rows[j]
        f = row[lead]
        if f:
            if c == 1:
                rows[j] = _primitive([x - f * y for x, y in zip(row, v)])
            else:
                g = gcd(c, f)
                a, b = c // g, f // g
                rows[j] = _primitive([a * x - b * y for x, y in zip(row, v)])
    return True


def _eliminate(mat: List[List[int]], ncols: int) -> List[int]:
    """The reduced echelon form of the integer rows of `mat`, which have
    `ncols` columns, from inserting them (`_insert`) in order until the rank
    is `ncols`: returns its pivot columns, and the first len(pivots) rows of
    `mat` become its rows."""
    pivots: List[int] = []
    rows: List[Sequence[int]] = []
    for v in mat:
        if len(pivots) == ncols:
            break
        _insert(pivots, rows, v)
    mat[:len(rows)] = rows
    return pivots


def _space(ambient: int, mat: List[List[int]]) -> "Subspace":
    """The row space of integer rows: their reduced echelon form."""
    rank = len(_eliminate(mat, ambient))
    return Subspace(ambient, tuple(map(tuple, mat[:rank])))


@record
class Subspace:
    """A linear subspace of Q^ambient in canonical form: `rows` are the RREF
    of any spanning set, with zero rows dropped and each row scaled to a
    primitive integer row with a positive pivot."""

    ambient: int
    rows: Tuple[Tuple[int, ...], ...]

    @staticmethod
    def full(n: int) -> "Subspace":
        return Subspace(n, tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))

    @staticmethod
    def zero(n: int) -> "Subspace":
        return Subspace(n, ())

    @property
    def basis(self) -> Tuple[Vector, ...]:
        """The RREF rows over Q: each stored row divided by its pivot, which
        gives the unique RREF."""
        return tuple(tuple(Fraction(x, row[p]) if x else _ZERO for x in row)
                     for row, p in zip(self.rows, self.pivots))

    @property
    def dim(self) -> int:
        return len(self.rows)

    @property
    def pivots(self) -> Tuple[int, ...]:
        """The pivot column of each stored row: its first nonzero entry."""
        return tuple(map(_lead, self.rows))

    def contains(self, v: Sequence[Scalar]) -> bool:
        """v ∈ self, by the rule of `contains_subspace`: every row of the
        cached ann(self) vanishes on v."""
        w = _exact(v)
        if len(w) != self.ambient:
            raise ValueError("vector/ambient dimension mismatch")
        return not any(sum(map(mul, c, w)) for c in annihilator(self).rows)

    def contains_subspace(self, other: "Subspace") -> bool:
        """other ⊆ self, decided by annihilator products: every row of
        ann(self) vanishes on every row of `other`.  ann(self) is cached,
        so repeated tests against one subspace eliminate once."""
        if other.ambient != self.ambient:
            raise ValueError("ambient dimension mismatch")
        if other.dim > self.dim:
            return False
        if other.dim == 0 or self.dim == self.ambient:
            return True
        return not any(sum(map(mul, c, r))
                       for c in annihilator(self).rows for r in other.rows)


def integer_span(rows: Iterable[Sequence[int]], ambient: int) -> Subspace:
    """The canonical span of integer rows of length `ambient`, of any
    content: the rows are inserted (`_insert`) as they are, with no
    Fraction made and none of them changed."""
    mat = list(rows)
    for r in mat:
        if len(r) != ambient:
            raise ValueError("vector/ambient dimension mismatch")
    return _space(ambient, mat)


def rank(rows: Iterable[Sequence[int]], ambient: int) -> int:
    """The dimension of the span of integer rows of length `ambient`, of any
    content, with `integer_span`'s length check: the rows are placed
    (`_append`) into an echelon form, which is never reduced, until the
    rank is `ambient`."""
    mat = list(rows)
    for r in mat:
        if len(r) != ambient:
            raise ValueError("vector/ambient dimension mismatch")
    pivots: List[int] = []
    placed: List[Sequence[int]] = []
    for v in mat:
        if len(pivots) == ambient:
            break
        _append(pivots, placed, v)
    return len(pivots)


def span_canonical(vectors: Sequence[Sequence[Scalar]],
                   ambient: Optional[int] = None) -> Subspace:
    """Row space of the given int or Fraction vectors in canonical RREF form."""
    rows = [_exact(r) for r in vectors]
    if ambient is None:
        if not rows:
            raise ValueError("ambient dimension required for an empty span")
        ambient = len(rows[0])
    return integer_span(map(_integer_row, rows), ambient)


@cached_on_instance
def column_lines(m: QMatrix) -> Tuple[Subspace, ...]:
    """The span of each column of `m`, inside Q^nrows, with no elimination:
    a line's canonical row is the integer column made primitive with a
    positive pivot, and a zero column spans the zero space."""
    lines = []
    for col in zip(*m.rows):
        lead = next(filter(None, col), 0)
        row = _primitive([x if lead > 0 else -x for x in col])
        lines.append(Subspace(m.nrows, (tuple(row),) if lead else ()))
    return tuple(lines)


def column_chain(m: QMatrix, levels: Sequence[int]) -> List[Tuple[int, Subspace]]:
    """`levelled_spans` of the columns of `m`, column j at levels[j], inside
    Q^nrows: the chain whose value at i is spanned by the columns of level
    at least i.  The integer columns enter as they are: `_insert` takes
    rows of any content."""
    return levelled_spans(zip(levels, zip(*m.rows)), m.nrows)


def levelled_spans(levelled: Iterable[Tuple[int, Sequence[int]]],
                   ambient: int) -> List[Tuple[int, Subspace]]:
    """For each distinct level i of the (level, integer vector) pairs, in
    descending order, (i, the canonical span of the vectors of level at
    least i), from one incremental reduction with no elimination per level:
    the vectors are inserted (`_insert`) in descending level order into one
    reduced echelon form, whose rows after each level are the canonical rows
    of the span."""
    pivots: List[int] = []
    rows: List[Sequence[int]] = []
    chain: List[Tuple[int, Subspace]] = []
    ordered = sorted(levelled, key=itemgetter(0), reverse=True)
    for level, group in itertools.groupby(ordered, key=itemgetter(0)):
        for _, v in group:
            _insert(pivots, rows, v)
        chain.append((level, Subspace(ambient, tuple(map(tuple, rows)))))
    return chain


def levelled_meets(space: Subspace,
                   levelled: Iterable[Tuple[int, Sequence[int]]]) -> List[Tuple[int, Subspace]]:
    """For each distinct level i of the (level, integer vector) pairs, in
    descending order, (i, space ∩ V_i), where V_i is the span of the vectors
    of level at least i: the meets of `space` with the chain that
    `levelled_spans` would build, from one Zassenhaus reduction with no
    kernel.

    The reduction runs in Q^(2n), n = space.ambient.  It starts from the
    rows (v|v), v a canonical row of `space`, which already are an echelon
    form (the left halves are); the vectors then enter as (w|0) through
    `_append`, in descending level order, and the form is never reduced.
    After the vectors of level at least i the row space is
    {(u + w | u) : u in space, w in V_i}, and its vectors that vanish on
    the left half are the (0 | u) with u = -w, that is u in space ∩ V_i.
    A nonzero vector of the row space is nonzero at the pivot of the first
    row it takes, since every later row is zero there; so one that vanishes
    on the left half takes only the rows whose pivot is in the right half,
    which vanish on the left half themselves.  Their right halves are
    independent and span space ∩ V_i, and their number is its dimension.
    The meets only grow, so a level that adds no such row leaves the meet
    as it was; a meet that grows is spanned to its canonical rows
    (`_space`), unless its dimension is space.dim, when it is `space`
    itself, every lower level meets in `space` too, and nothing more is
    placed."""
    n = space.ambient
    pivots = list(space.pivots)
    rows: List[Sequence[int]] = [v + v for v in space.rows]
    pad = (0,) * n
    meet = Subspace.zero(n)
    meets: List[Tuple[int, Subspace]] = []
    ordered = sorted(levelled, key=itemgetter(0), reverse=True)
    for level, group in itertools.groupby(ordered, key=itemgetter(0)):
        if meet is not space:
            for _, w in group:
                _append(pivots, rows, tuple(w) + pad)
            right = rows[bisect_left(pivots, n):]
            if len(right) == space.dim:
                meet = space
            elif len(right) > meet.dim:
                meet = _space(n, [row[n:] for row in right])
        meets.append((level, meet))
    return meets


def _exact(row: Iterable[Scalar]) -> Tuple[Union[int, Fraction], ...]:
    """The row with every entry an int or a Fraction; only other entries
    go through `to_fraction`, which rejects them."""
    return tuple(x if type(x) is int or type(x) is Fraction else to_fraction(x)
                 for x in row)


def _image_rows(s: Subspace, phi: QMatrix) -> List[List[int]]:
    """The images phi v of the rows v of `s`, with phi acting on column
    vectors, times phi's denominator, which moves no span: each is the
    integer rows of phi times v, made primitive."""
    if phi.ncols != s.ambient:
        raise ValueError("matrix shapes do not compose")
    return [_primitive([sum(map(mul, row, v)) for row in phi.rows]) for v in s.rows]


def maps_into(s: Subspace, phi: QMatrix, target: Subspace) -> bool:
    """phi(s) ⊆ target, with phi acting on column vectors and no
    elimination of the image: the mapped rows of `s` are not reduced.  Zero
    rows drop out; a full target holds the rest and a zero target none of
    them; otherwise, by the rule of `Subspace.contains_subspace`, every row
    of the cached ann(target) must vanish on each of them."""
    if target.ambient != phi.nrows:
        raise ValueError("ambient dimension mismatch")
    rows = [r for r in _image_rows(s, phi) if any(r)]
    if not rows or target.dim == target.ambient:
        return True
    if not target.dim:
        return False
    conditions = annihilator(target).rows
    return not any(sum(map(mul, c, r)) for r in rows for c in conditions)


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    return sum_all((a, b), a.ambient)


def sum_all(spaces: Sequence[Subspace], ambient: int) -> Subspace:
    rows: List[List[int]] = []
    for s in spaces:
        if s.ambient != ambient:
            raise ValueError("ambient dimension mismatch")
        rows.extend(s.rows)
    return _space(ambient, rows)


def _kernel(mat: List[List[int]], n: int) -> Subspace:
    """{x : M x = 0} for the primitive integer rows of M, in one elimination.

    The rows are reduced with their columns in reverse order, so each pivot
    row is supported on its pivot and on free columns to the left of it.
    The generator of free column f (x_f = 1, solved for the pivots, scaled
    by the lcm of the pivots so that it stays integral) is then zero left of
    f and at every other free column: in the order of f, made primitive,
    the generators already are the canonical rows."""
    rev = [row[::-1] for row in mat]
    pivots = [n - 1 - c for c in _eliminate(rev, n)]
    scale = lcm(*[row[n - 1 - p] for row, p in zip(rev, pivots)])
    bound = set(pivots)
    gens: List[Tuple[int, ...]] = []
    for f in range(n):
        if f in bound:
            continue
        v = [0] * n
        v[f] = scale
        for row, p in zip(rev, pivots):
            x = row[n - 1 - f]
            if x:
                v[p] = -x * (scale // row[n - 1 - p])
        gens.append(tuple(_primitive(v)))
    return Subspace(n, tuple(gens))


@cached_on_instance
def annihilator(a: Subspace) -> Subspace:
    """Covectors vanishing on `a`, inside the dual of Q^ambient (identified with
    Q^ambient via the standard pairing).  dim = ambient - dim(a).  Cached per
    instance: hot paths intersect the same subspaces repeatedly."""
    return _kernel(list(a.rows), a.ambient)


def intersect(a: Subspace, b: Subspace) -> Subspace:
    """Intersection, computed as the kernel of the stacked dual conditions."""
    return intersect_all((a, b), a.ambient)


def intersect_all(spaces: Sequence[Subspace], ambient: int) -> Subspace:
    """The intersection of `spaces` in Q^ambient.  Full members are skipped,
    a zero member is the answer, and a single proper member is returned as
    it is; only two or more proper members go through the kernel of their
    stacked annihilators."""
    proper: List[Subspace] = []
    for s in spaces:
        if s.ambient != ambient:
            raise ValueError("ambient dimension mismatch")
        if s.dim < ambient:
            proper.append(s)
    zero = next((s for s in proper if not s.dim), None)
    if zero is not None:
        return zero
    if len(proper) <= 1:
        return proper[0] if proper else Subspace.full(ambient)
    conditions: List[Tuple[int, ...]] = []
    for s in proper:
        conditions.extend(annihilator(s).rows)
    return _kernel(conditions, ambient)


def complement_in(inners: Sequence[Subspace], outer: Subspace) -> Subspace:
    """A deterministic complement C with inner + C = outer, inner ∩ C = 0,
    where inner is the sum of the spaces `inners`.

    Greedy rule: walk the canonical basis of `outer` in order and keep each
    vector that is independent of `inner` plus the vectors before it.  The
    canonical rows of the first inner space are an echelon form; the rows
    of the other inner spaces, then each row of `outer` in turn, are placed
    into it (`_append`), and a row of `outer` is kept exactly when the rank
    grows.  Which rows add rank depends only on the spans, not on the
    echelon form, so the form is never reduced and no sum is spanned.  A
    subset of RREF rows is again in RREF, hence canonical.  The same pass
    decides containment, with no annihilator: the kept rows number
    dim(inner + outer) - dim(inner), and inner lies in outer exactly when
    dim(inner + outer) = dim(outer).
    """
    if any(s.ambient != outer.ambient for s in inners):
        raise ValueError("ambient dimension mismatch")
    pivots: List[int] = list(inners[0].pivots) if inners else []
    rows: List[Sequence[int]] = list(inners[0].rows) if inners else []
    for s in inners[1:]:
        for row in s.rows:
            _append(pivots, rows, row)
    rank_inner = len(rows)
    kept = tuple(row for row in outer.rows if _append(pivots, rows, row) is not None)
    if rank_inner + len(kept) != outer.dim:
        raise ValueError("inner subspace is not contained in outer")
    return Subspace(outer.ambient, kept)


def block_sum(a: Subspace, b: Subspace) -> Subspace:
    """a ⊕ b inside Q^(ra+rb): the rows of `a` padded with rb zeros on the
    right, then the rows of `b` padded with ra zeros on the left, with no
    elimination.

    These rows are canonical: the pivots of the rows of `a` lie in the first
    ra columns and those of `b` after them, in increasing order; each pivot
    column is zero in the other rows of its own block by RREF and in every
    row of the other block by the padding; and padding changes neither the
    content nor the pivot of a row."""
    pad_a, pad_b = (0,) * b.ambient, (0,) * a.ambient
    return Subspace(a.ambient + b.ambient,
                    tuple(u + pad_a for u in a.rows) + tuple(pad_b + v for v in b.rows))
