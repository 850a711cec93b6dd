"""Independent oracle for the compatibility checker: an exhaustive
backtracking search over decompositions adapted to all ray chains of a cone.
It shares no logic with the graded-piece construction, only the input
checks, the integral-character solver and the certificate re-verification."""

import itertools
from typing import Dict, List, Optional, Sequence, Tuple

from toricfilt.compatibility import (
    ConeDecomposition,
    _cone_of,
    _grid,
    _integral_character,
    _sorted_cone_rays,
    verify_cone_decomposition,
)
from toricfilt.filtrations import FiltrationData
from toricfilt.linalg import Eliminator, Subspace, intersect_all, span_canonical


def exhaustive_adapted_search(data: FiltrationData,
                              ray_indices: Sequence[int]) -> Optional[ConeDecomposition]:
    """Exhaustive search for a decomposition adapted to all ray chains of the
    cone, drawing candidate vectors from the canonical bases of the grid
    intersections.  Any result is re-verified before being returned."""
    idx = _sorted_cone_rays(data, ray_indices)
    cone = _cone_of(data, idx)
    quotient = cone.quotient()
    filts, tuples = _grid(data, idx)
    r = data.dim
    if r == 0:
        return ConeDecomposition(idx, ())

    w = {
        t: intersect_all([f.value(ti) for f, ti in zip(filts, t)], r) if t else Subspace.full(r)
        for t in tuples
    }

    def clone(elim: Eliminator) -> Eliminator:
        fresh = Eliminator(r)
        fresh.rows = list(elim.rows)
        return fresh

    def extend(pos: int, elim: Eliminator, chosen: List[Tuple[Tuple[int, ...], tuple]]):
        if pos == len(tuples):
            return chosen if elim.rank == r else None
        t = tuples[pos]
        rows = w[t].basis
        probe = clone(elim)
        deficiency = sum(1 for row in rows if probe.add(row))
        if deficiency == 0:
            return extend(pos + 1, elim, chosen)
        for subset in itertools.combinations(rows, deficiency):
            trial = clone(elim)
            if not all(trial.add(v) for v in subset):
                continue
            result = extend(pos + 1, trial, chosen + [(t, v) for v in subset])
            if result is not None:
                return result
        return None

    found = extend(0, Eliminator(r), [])
    if found is None:
        return None

    groups: Dict[Tuple[int, ...], List[tuple]] = {}
    for _, v in found:
        exact = tuple(f.level_of(v) for f in filts)
        groups.setdefault(exact, []).append(v)
    pieces = []
    for t in sorted(groups):
        char = _integral_character(data, idx, t)
        if char is None:
            return None
        rep = quotient.canonical_representative(char)
        pieces.append((rep, span_canonical(groups[t], r)))
    pieces.sort(key=lambda p: p[0])
    dec = ConeDecomposition(idx, tuple(pieces))
    if verify_cone_decomposition(data, idx, dec) is not None:
        return None
    return dec
