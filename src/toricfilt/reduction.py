"""Equivariant reduction of structure group for two concrete subgroups of
GL(n): SL(n) and the diagonal torus.

SL reduction asks for the determinant line bundle to be trivial.  Its
character on a maximal cone, the sum of that cone's characters, is unique
only modulo the characters perpendicular to the cone (Cox-Little-Schenck,
Toric Varieties, 4.2), so the bundle reduces exactly when every cone's sum
has class zero in the cone's character quotient.  A sum that is zero in
class but not as a vector is subtracted from the cone's first character:
its monomial is a unit on the chart and on every overlap, so the bundle is
the same up to isomorphism.  Frames are then rescaled into SL by dividing
one column by the determinant.  The verdict NO-IN-PRESENTATION is
definitive.

Torus reduction asks whether the associated filtration data splits into
rank-one summands whose level tuples are realized by integral characters on
every maximal cone.  The graded-piece engine of the compatibility checker
decides it over the universe R of all-ray tuples whose restriction to each
maximal cone is the level tuple of one of that cone's characters.  On each
cone the multiset of level tuples of an adapted splitting is an invariant
of the chains, so every line of any splitting has its tuple in R, and every
tuple in R is integral by construction: the verdict NONE-FOUND is
definitive.  The nonzero pieces over R split the data exactly when their
dimensions add up to n, they span the fiber (so they are a direct sum), and
`RayFiltration.reconstruction_failure` finds no failure on any chain, the
test of the certificate verifier (`compatibility._rebuild_failure`); the
rows of the pieces are then the splitting lines.  The chains are those of
the associated data, which record that they are valid when `bundles`
builds them, so the test decides no nesting and takes no kernel.

R is a join over the maximal cones, read off the level table of
`bundles`, in which each column level is paired once per bundle.  A
partial is a tuple over all rays, with None on the rays no cone has set
yet; each cone extends every partial by those of its distinct level
tuples that agree with it on the rays it has set.  The join has a budget:
a partial universe of more than MAX_UNIVERSE tuples, after any cone, is
refused with InputError, since R can grow as the product of the rays'
level counts (3^k on a k-ray surface carrying a split GL(9) bundle).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from .bundles import (CocharBundleData, GroupSpec, _level_table, associated_klyachko,
                      check_gluing)
from .compatibility import _rebuild_failure, graded_pieces
from .errors import InputError, PreconditionError
from .linalg import QMatrix, record

SL_REDUCES = "REDUCES"
SL_NO = "NO-IN-PRESENTATION"
TORUS_REDUCES = "REDUCES"
TORUS_NONE = "NONE-FOUND"
# budget on |R|, checked on the partial universe after each cone: 3^8, a
# split GL(9) bundle on an 8-ray surface; the tests and the benchmark
# corpora reach 16
MAX_UNIVERSE = 6561


@record
class SlReductionResult:
    verdict: str
    sl_presentation: Optional[CocharBundleData] = None
    failing_cone: Optional[int] = None
    character_sum: Optional[Tuple[int, ...]] = None


def check_sl_reduction(data: CocharBundleData) -> SlReductionResult:
    if data.group.kind != "GL":
        raise PreconditionError("SL reduction is decided for GL bundles")
    rank = data.fan.rank
    chars = []
    for k, cone_chars in enumerate(data.chars):
        total = tuple(sum(u[j] for u in cone_chars) for j in range(rank))
        if any(data.fan.maximal_cone(k).quotient().class_index(total)):
            return SlReductionResult(SL_NO, failing_cone=k, character_sum=total)
        first = tuple(x - p for x, p in zip(cone_chars[0], total))
        chars.append((first,) + tuple(cone_chars[1:]))
    # rescale the first column of each frame by 1/det = p/q to land in SL:
    # over den * q, column 0 times p and the others times q.  A diagonal
    # factor commutes with the character diagonal, so the presented
    # homomorphisms are unchanged
    frames = []
    for f in data.frames:
        p, q = (1 / f.det()).as_integer_ratio()
        rows = [(row[0] * p,) + tuple(x * q for x in row[1:]) for row in f.rows]
        frames.append(QMatrix.from_rows(rows, f.ncols, f.den * q))
    sl_data = CocharBundleData.make(
        GroupSpec("SL", data.group.n), data.fan, frames, chars
    )
    return SlReductionResult(SL_REDUCES, sl_presentation=sl_data)


@record
class TorusReductionResult:
    verdict: str
    lines: Optional[Tuple[Tuple[int, ...], ...]] = None
    line_levels: Optional[Tuple[Tuple[int, ...], ...]] = None  # per line, per ray
    universe_size: int = 0  # |R|, the realized all-ray level tuples


def _realized_tuples(data: CocharBundleData) -> List[Tuple[Optional[int], ...]]:
    """The universe R, sorted: all-ray level tuples whose restriction to
    every maximal cone is the level tuple of one of that cone's characters,
    joined cone by cone (module docstring).  A cone's level tuples are the
    columns of its rows in `bundles._level_table`; a cone that lists no ray
    has the empty one, and a ray that no cone lists keeps None.  Raises
    InputError when the partial universe after a cone, the last one's being
    R, has more than MAX_UNIVERSE tuples."""
    partial = [(None,) * len(data.fan.rays)]
    for cone_levels in _level_table(data):
        grown = []
        for option in set(zip(*cone_levels.values())) or {()}:
            for p in partial:
                t = list(p)
                for i, lv in zip(cone_levels, option):
                    if t[i] is None:
                        t[i] = lv
                    elif t[i] != lv:
                        break
                else:
                    grown.append(tuple(t))
        if len(grown) > MAX_UNIVERSE:
            raise InputError(f"torus universe is over budget: {len(grown)} "
                             f"level tuples > {MAX_UNIVERSE}")
        partial = grown
    return sorted(partial)


def check_torus_reduction(data: CocharBundleData) -> TorusReductionResult:
    """Split the associated filtration data into rank-one summands with
    integral characters on every maximal cone, or report that none exists.
    The nonzero graded pieces over the universe R are accepted when they are
    a direct sum of the fiber that rebuilds every chain; their rows are the
    lines, each levelled by its piece's tuple."""
    if data.group.kind != "GL":
        raise PreconditionError("torus reduction is decided for GL bundles")
    if not check_gluing(data).glues:
        raise PreconditionError("bundle data does not glue; reduction undefined")
    kly = associated_klyachko(data)
    n = kly.dim
    universe = _realized_tuples(data)
    pieces = graded_pieces(kly.filtrations, universe, n)
    nonzero = [t for t in universe if pieces[t].dim]
    parts = [pieces[t] for t in nonzero]
    if _rebuild_failure(parts, n, ((chain, [t[k] for t in nonzero])
                                   for k, chain in enumerate(kly.filtrations))) is not None:
        return TorusReductionResult(TORUS_NONE, universe_size=len(universe))
    return TorusReductionResult(
        TORUS_REDUCES,
        lines=tuple(v for t in nonzero for v in pieces[t].rows),
        line_levels=tuple(t for t in nonzero for _ in pieces[t].rows),
        universe_size=len(universe),
    )
