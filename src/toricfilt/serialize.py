"""File formats and JSON conversion.

Rational numbers serialize as "p/q" strings (q > 0, gcd(p, q) = 1, plain "p"
when q = 1) in every format.  JSON floats are rejected everywhere: the tool
is exact or nothing.  Serialization is canonical, so re-parsing any emitted
object yields an equal in-memory value.

One reader, `_literal`, turns each rational literal (a JSON int, or a "p"
or "p/q" string of ASCII digits; p/q need not be reduced) into an integer
pair (p, q).  A filtration basis row goes from its pairs straight to an
integer row, times the lcm of its q's, and the rows of a jump are spanned
by `linalg.integer_span`; a frame or morphism matrix goes to integer rows
times the one lcm of all its q's, over that lcm (`QMatrix.from_rows`).  No
Fraction is built between a literal and a canonical row or a matrix;
`matrix_to_obj` builds them only to print.

Reports are already JSON: every issue, witness and detail that reaches
`dump_report` is built from ints, strings, bools, None, lists, tuples and
dicts with string keys, and `json.dumps` writes a tuple as a list.  A
Fraction there would raise TypeError, never print a wrong value.
"""

from __future__ import annotations

import json
import os
import re
from fractions import Fraction
from math import lcm
from typing import Any, List, Optional, Tuple

from .bundles import CocharBundleData, GroupSpec
from .compatibility import ConeDecomposition
from .errors import InputError
from .fans import Fan
from .filtrations import FiltrationData, RayFiltration
from .linalg import QMatrix, Subspace, integer_span


def format_rational(x: Fraction) -> str:
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


def _literal(value: Any) -> Tuple[int, int]:
    """(p, q) with value = p/q and q > 0, not reduced, for a JSON int or a
    "p" or "p/q" string of ASCII digits.  The digits go through `int()`,
    numerator first, and a zero q through `Fraction(p, 0)`, which raise the
    digit-limit and zero-denominator errors that `Fraction(value)` would."""
    if isinstance(value, str):
        # int() alone would also take a plus sign, blanks, underscores and
        # non-ASCII digits
        if not _RATIONAL.fullmatch(value):
            raise InputError(f"bad rational literal {value!r}: expected 'p' or 'p/q'")
        num, _, den = value.partition("/")
        try:
            p = int(num)
            q = int(den) if den else 1
            if not q:
                Fraction(p, 0)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"bad rational literal {value!r}: {exc}") from exc
        return p, q
    if isinstance(value, bool):
        raise InputError("boolean is not a rational number")
    if isinstance(value, int):
        return value, 1
    raise InputError(f"expected rational as int or 'p/q' string, got {type(value).__name__}")


def parse_rational(value: Any) -> Fraction:
    return Fraction(*_literal(value))


def _scaled_row(pairs: List[Tuple[int, int]], scale: int) -> List[int]:
    """The literals (p, q) of a row times `scale`, a multiple of every q: an
    integer row, not made primitive (`linalg.integer_span` and
    `QMatrix.from_rows` take rows of any content)."""
    if scale == 1:
        return [p for p, _ in pairs]
    return [p * (scale // q) for p, q in pairs]


def _expect_int(value: Any, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError(f"{what} must be an integer")
    return value


def _expect_list(value: Any, what: str) -> list:
    if not isinstance(value, list):
        raise InputError(f"{what} must be a list")
    return value


def _expect_obj(value: Any, what: str) -> dict:
    if not isinstance(value, dict):
        raise InputError(f"{what} must be an object")
    return value


def load_json(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle, parse_float=_reject_float)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except InputError:
        raise
    except (ValueError, RecursionError) as exc:
        # malformed JSON, an integer literal past int()'s digit limit, or
        # nesting deeper than the parser's recursion limit
        raise InputError(f"invalid JSON in {path}: {exc}") from exc


def _reject_float(text: str):
    raise InputError(f"floating point literal {text!r} is not allowed; use 'p/q'")


# ---------------------------------------------------------------------------
# fans


def fan_from_obj(obj: Any) -> Fan:
    obj = _expect_obj(obj, "fan")
    rank = _expect_int(obj.get("rank"), "fan rank")
    rays = [
        [_expect_int(x, "ray entry") for x in _expect_list(r, "ray")]
        for r in _expect_list(obj.get("rays"), "rays")
    ]
    cones = [
        [_expect_int(i, "cone ray index") for i in _expect_list(c, "maximal cone")]
        for c in _expect_list(obj.get("maximal_cones"), "maximal_cones")
    ]
    return Fan.make(rank, rays, cones)


def fan_to_obj(fan: Fan) -> dict:
    return {
        "rank": fan.rank,
        "rays": [list(r) for r in fan.rays],
        "maximal_cones": [list(c) for c in fan.maximal_cones],
    }


def _resolve_fan(field: Any, base_dir: Optional[str]) -> Fan:
    if isinstance(field, str):
        path = field
        if base_dir is not None and not os.path.isabs(path):
            path = os.path.join(base_dir, path)
        return fan_from_obj(load_json(path))
    return fan_from_obj(field)


def load_fan(path: str) -> Fan:
    return fan_from_obj(load_json(path))


# ---------------------------------------------------------------------------
# matrices and subspaces


def matrix_from_obj(obj: Any, what: str = "matrix") -> QMatrix:
    rows = _expect_list(obj, what)
    if not rows:
        raise InputError(f"{what} must have at least one row")
    parsed = [[_literal(x) for x in _expect_list(r, f"{what} row")] for r in rows]
    widths = {len(r) for r in parsed}
    if len(widths) != 1:
        raise InputError(f"{what} rows have inconsistent lengths")
    scale = lcm(*[q for r in parsed for _, q in r])
    return QMatrix.from_rows([_scaled_row(r, scale) for r in parsed], widths.pop(), scale)


def matrix_to_obj(m: QMatrix) -> list:
    return [[format_rational(x) for x in row] for row in m.entries]


def subspace_to_obj(s: Subspace) -> list:
    return [[format_rational(x) for x in row] for row in s.basis]


def load_matrix(path: str) -> QMatrix:
    return matrix_from_obj(load_json(path))


# ---------------------------------------------------------------------------
# filtration data


def filtration_from_obj(obj: Any, base_dir: Optional[str] = None) -> FiltrationData:
    obj = _expect_obj(obj, "filtration data")
    fan = _resolve_fan(obj.get("fan"), base_dir)
    dim = _expect_int(obj.get("dim"), "dim")
    filts_obj = _expect_obj(obj.get("filtrations"), "filtrations")
    rays: List[RayFiltration] = []
    for idx in range(len(fan.rays)):
        key = str(idx)
        if key not in filts_obj:
            raise InputError(f"missing filtration for ray {idx}")
        jumps = []
        for item in _expect_list(filts_obj[key], f"filtration of ray {idx}"):
            item = _expect_obj(item, "jump")
            i = _expect_int(item.get("i"), "jump index")
            basis_rows = [
                [_literal(x) for x in _expect_list(r, "basis row")]
                for r in _expect_list(item.get("basis"), "jump basis")
            ]
            for r in basis_rows:
                if len(r) != dim:
                    raise InputError("basis row length does not match dim")
            jumps.append((i, integer_span([_scaled_row(r, lcm(*[q for _, q in r]))
                                            for r in basis_rows], dim)))
        rays.append(RayFiltration.make(dim, jumps))
    unknown = set(filts_obj) - {str(i) for i in range(len(fan.rays))}
    if unknown:
        raise InputError(f"filtrations mention unknown ray keys: {sorted(unknown)}")
    return FiltrationData.make(fan, dim, rays)


def filtration_to_obj(data: FiltrationData) -> dict:
    return {
        "fan": fan_to_obj(data.fan),
        "dim": data.dim,
        "filtrations": {
            str(idx): [
                {"i": i, "basis": subspace_to_obj(s)} for i, s in f.jumps
            ]
            for idx, f in enumerate(data.filtrations)
        },
    }


def load_filtration(path: str) -> FiltrationData:
    return filtration_from_obj(load_json(path), base_dir=os.path.dirname(os.path.abspath(path)))


# ---------------------------------------------------------------------------
# bundle data


def bundle_from_obj(obj: Any, base_dir: Optional[str] = None) -> CocharBundleData:
    obj = _expect_obj(obj, "bundle data")
    group_obj = _expect_obj(obj.get("group"), "group")
    kind = group_obj.get("kind")
    if kind not in ("GL", "SL", "DT"):
        raise InputError("group kind must be one of 'GL', 'SL', 'DT'")
    group = GroupSpec(kind, _expect_int(group_obj.get("n"), "group size"))
    fan = _resolve_fan(obj.get("fan"), base_dir)
    cones = _expect_list(obj.get("cones"), "cones")
    if len(cones) != len(fan.maximal_cones):
        raise InputError("need exactly one entry per maximal cone")
    frames: List[Optional[QMatrix]] = [None] * len(fan.maximal_cones)
    chars: List[Optional[list]] = [None] * len(fan.maximal_cones)
    for entry in cones:
        entry = _expect_obj(entry, "cone entry")
        k = _expect_int(entry.get("cone"), "cone index")
        if not 0 <= k < len(fan.maximal_cones):
            raise InputError(f"cone index {k} out of range")
        if frames[k] is not None:
            raise InputError(f"duplicate entry for maximal cone {k}")
        frames[k] = matrix_from_obj(entry.get("frame"), "frame")
        chars[k] = [
            [_expect_int(x, "character entry") for x in _expect_list(u, "character")]
            for u in _expect_list(entry.get("chars"), "chars")
        ]
    return CocharBundleData.make(group, fan, frames, chars)  # type: ignore[arg-type]


def bundle_to_obj(data: CocharBundleData) -> dict:
    return {
        "group": {"kind": data.group.kind, "n": data.group.n},
        "fan": fan_to_obj(data.fan),
        "cones": [
            {
                "cone": k,
                "frame": matrix_to_obj(data.frames[k]),
                "chars": [list(u) for u in data.chars[k]],
            }
            for k in range(len(data.fan.maximal_cones))
        ],
    }


def load_bundle(path: str) -> CocharBundleData:
    return bundle_from_obj(load_json(path), base_dir=os.path.dirname(os.path.abspath(path)))


# ---------------------------------------------------------------------------
# certificates and reports


def decomposition_to_obj(dec: ConeDecomposition) -> dict:
    return {
        "rays": list(dec.ray_indices),
        "pieces": [
            {"character": list(char), "basis": subspace_to_obj(piece)}
            for char, piece in dec.pieces
        ],
    }


def dump_report(obj: Any) -> str:
    return json.dumps(obj, indent=2) + "\n"
