"""Seeded corpus generator for the benchmark.

Everything here is plain Python over `fractions.Fraction`; it never imports
`toricfilt`, so a change to the library (or to `toricfilt.sampling`) cannot
change the inputs a given seed produces.  Files are written in the formats
documented in the repository README: fans, filtration data, bundle data and
matrices, with rationals as "p/q" strings.

`build(workload, seed)` returns a corpus: a dict of JSON files keyed by file
name and a list of operations with the outcome each is expected to have.
Expected outcomes come from the construction wherever the mathematics fixes
them:

* split data (a common frame with levels given by integral characters) and
  sums of tangent bundles are compatible, glue, and their associated data is
  known in closed form;
* three distinct lines in one plane on three rays of a cone make the
  generated subspace lattice non-distributive, so the data is incompatible;
* on the square cone, levels with l0 + l3 != l1 + l2 admit no integral
  character, so the data is incompatible;
* on P^2 every cone has two rays, and two flags always have a common adapted
  basis, so random flags there are compatible;
* split bundles reduce to the torus; T_P2 and T_P3 sums give NONE-FOUND;
* the SL verdict is read off the character sums.

Operations whose outcome is not fixed by construction carry `None` and are
compared against verdicts recorded for the default seed (see golden.json).
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from typing import Dict, List, Sequence

FANS = {
    "p1": {"rank": 1, "rays": [[1], [-1]], "maximal_cones": [[0], [1]]},
    "p2": {"rank": 2, "rays": [[1, 0], [0, 1], [-1, -1]],
           "maximal_cones": [[0, 1], [1, 2], [0, 2]]},
    "p3": {"rank": 3, "rays": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1]],
           "maximal_cones": [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]]},
    # one non-simplicial cone over the unit square: r0 + r3 = r1 + r2
    "square": {"rank": 3, "rays": [[0, 0, 1], [1, 0, 1], [0, 1, 1], [1, 1, 1]],
               "maximal_cones": [[0, 1, 2, 3]]},
}

WORKLOADS = ("compat", "calculus", "bundle", "cli")


# ---------------------------------------------------------------------------
# exact helpers


def q(x) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def qrows(vectors) -> List[List[str]]:
    return [[q(x) for x in v] for v in vectors]


def dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def kron(u, v) -> list:
    return [a * b for a in u for b in v]


def det(m) -> Fraction:
    a = [[Fraction(x) for x in row] for row in m]
    n = len(a)
    result = Fraction(1)
    for c in range(n):
        p = next((r for r in range(c, n) if a[r][c] != 0), None)
        if p is None:
            return Fraction(0)
        if p != c:
            a[c], a[p] = a[p], a[c]
            result = -result
        result *= a[c][c]
        for r in range(c + 1, n):
            f = a[r][c] / a[c][c]
            a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return result


def inverse(m) -> List[List[Fraction]]:
    n = len(m)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(m)]
    for c in range(n):
        p = next(r for r in range(c, n) if aug[r][c] != 0)
        aug[c], aug[p] = aug[p], aug[c]
        aug[c] = [x / aug[c][c] for x in aug[c]]
        for r in range(n):
            if r != c and aug[r][c] != 0:
                f = aug[r][c]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[c])]
    return [row[n:] for row in aug]


def matmul(a, b) -> list:
    return [[sum(x * b[k][j] for k, x in enumerate(row)) for j in range(len(b[0]))]
            for row in a]


def apply(m, v) -> list:
    return [dot(row, v) for row in m]


def columns(m) -> List[list]:
    return [[row[k] for row in m] for k in range(len(m[0]))]


def block_diag(a, b) -> list:
    na, nb = len(a), len(b)
    return ([list(r) + [0] * nb for r in a]
            + [[0] * na + list(r) for r in b])


def invertible(rng: random.Random, n: int, lo: int = -2, hi: int = 2) -> list:
    while True:
        m = [[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)]
        if det(m) != 0:
            return m


def random_chars(rng: random.Random, n: int, rank: int):
    return [[rng.randint(-2, 2) for _ in range(rank)] for _ in range(n)]


def levels_from_chars(fan: dict, chars) -> List[List[int]]:
    """Per ray, the level <u_k, ray> of each frame column k."""
    return [[dot(u, ray) for u in chars] for ray in fan["rays"]]


# The strata fix the shape of every instance (fiber dimension, number of
# jumps per ray, which columns share a level); the seed draws the numbers.
# The cost of an operation follows its shape, so this keeps the mix of work
# in a run the same on every seed.


def jumps(dim: int) -> int:
    """Number of distinct levels (chain jumps) per ray at a fiber dimension."""
    return min(dim, 1 + dim // 2)


def surjection(rng: random.Random, n: int, values: list) -> list:
    """n picks from `values`, each used n // len(values) or one more times."""
    picks = [values[k % len(values)] for k in range(n)]
    rng.shuffle(picks)
    return picks


def distinct_levels(rng: random.Random, n: int, count: int) -> List[int]:
    return surjection(rng, n, rng.sample(range(-3, 4), count))


ALL_CHARS3 = [[a, b, c] for a in range(-2, 3) for b in range(-2, 3) for c in range(-2, 3)]


def split_levels(rng: random.Random, fan_name: str, dim: int) -> List[List[int]]:
    """Per-ray levels of `dim` frame columns with jumps(dim) distinct values.
    Smooth fans realize any levels by characters; on the square cone the
    columns take one of jumps(dim) distinct characters."""
    fan = FANS[fan_name]
    if fan_name == "square":
        chars = surjection(rng, dim, rng.sample(ALL_CHARS3, jumps(dim)))
        return levels_from_chars(fan, chars)
    return [distinct_levels(rng, dim, jumps(dim)) for _ in fan["rays"]]


# ---------------------------------------------------------------------------
# filtration data


def split_chain(vectors, levels) -> list:
    """Chain whose value at i is spanned by the vectors of level >= i."""
    return [
        {"i": v, "basis": qrows(w for w, l in zip(vectors, levels) if l >= v)}
        for v in sorted(set(levels))
    ]


def filt_obj(fan_name: str, dim: int, chains: Sequence[list]) -> dict:
    return {"fan": f"fan_{fan_name}.json", "dim": dim,
            "filtrations": {str(r): c for r, c in enumerate(chains)}}


def split_data(fan_name: str, vectors, levels_by_ray) -> dict:
    return filt_obj(fan_name, len(vectors),
                    [split_chain(vectors, lv) for lv in levels_by_ray])


def random_split(rng, fan_name: str, dim: int):
    """(data, frame columns, levels) for a common frame with character levels."""
    vectors = columns(invertible(rng, dim))
    levels = split_levels(rng, fan_name, dim)
    return split_data(fan_name, vectors, levels), vectors, levels


def tangent_vectors(fan_name: str, summands: str, ray) -> list:
    """Vectors spanning the chain at index 1 on `ray` for T, T+O or T+T."""
    rank = FANS[fan_name]["rank"]
    if summands == "T":
        return [list(ray)]
    if summands == "T+O":
        return [list(ray) + [0]]
    return [list(ray) + [0] * rank, [0] * rank + list(ray)]


def tangent_dim(fan_name: str, summands: str) -> int:
    rank = FANS[fan_name]["rank"]
    return {"T": rank, "T+O": rank + 1, "T+T": 2 * rank}[summands]


def tangent_data(fan_name: str, summands: str, g) -> dict:
    """Klyachko data of a tangent sum, in the coordinates v -> g v: the full
    space through 0 and the ray's own line(s) at 1."""
    dim = len(g)
    full = columns(g)
    chains = [
        [{"i": 0, "basis": qrows(full)},
         {"i": 1, "basis": qrows(apply(g, w)
                                 for w in tangent_vectors(fan_name, summands, ray))}]
        for ray in FANS[fan_name]["rays"]
    ]
    return filt_obj(fan_name, dim, chains)


def flag_chain(rng: random.Random, dim: int) -> list:
    """A chain from a random flag: jumps(dim) consecutive indices from a
    random start, subspace dimensions evenly spaced down from `dim`."""
    g = invertible(rng, dim, -3, 3)
    count = jumps(dim)
    start = rng.randint(-2, 2)
    return [{"i": start + k, "basis": qrows(g[:dim - k * dim // count])}
            for k in range(count)]


def generic_data(rng, fan_name: str, dim: int) -> dict:
    return filt_obj(fan_name, dim, [flag_chain(rng, dim) for _ in FANS[fan_name]["rays"]])


def planted_distributivity(rng, fan_name: str, dim: int) -> dict:
    """Three distinct lines of one plane P, each plus a common U, on three rays
    of one cone: A∩(B+C) = A but (A∩B)+(A∩C) = U.  The other rays carry split
    chains in the same frame that treat P as a block."""
    fan = FANS[fan_name]
    g = columns(invertible(rng, dim))
    cone = rng.choice([c for c in fan["maximal_cones"] if len(c) >= 3])
    planted = rng.sample(cone, 3)
    du = (dim - 2) // 2
    u = g[2:2 + du]
    c = rng.choice([-2, -1, 1, 2])
    lines = [g[0], g[1], [a + c * b for a, b in zip(g[0], g[1])]]
    rng.shuffle(lines)
    chains = []
    for r in range(len(fan["rays"])):
        if r in planted:
            chain = [{"i": 0, "basis": qrows(g)},
                     {"i": 1, "basis": qrows([lines[planted.index(r)]] + u)}]
            if du:
                chain.append({"i": 2, "basis": qrows(u)})
        else:
            levels = distinct_levels(rng, dim - 1, jumps(dim - 1))
            chain = split_chain(g, levels[:1] + levels)
        chains.append(chain)
    return filt_obj(fan_name, dim, chains)


def square_integrality(rng, dim: int) -> dict:
    """Common frame on the square cone with character levels, then ray 3 of
    one column shifted by +-1 so that l0 + l3 != l1 + l2 for it."""
    vectors = columns(invertible(rng, dim))
    levels = split_levels(rng, "square", dim)
    levels[3][rng.randrange(dim)] += rng.choice([-1, 1])
    return split_data("square", vectors, levels)


# ---------------------------------------------------------------------------
# bundle data


def bundle_obj(fan_name: str, frames, chars) -> dict:
    return {
        "group": {"kind": "GL", "n": len(frames[0])},
        "fan": f"fan_{fan_name}.json",
        "cones": [{"cone": k, "frame": qrows(f), "chars": [list(u) for u in c]}
                  for k, (f, c) in enumerate(zip(frames, chars))],
    }


def cone_chars(fan: dict, levels_by_ray) -> List[list]:
    """Per maximal cone of a smooth fan, the characters u_k with <u_k, ray> =
    level of column k on every ray of the cone."""
    out = []
    for cone in fan["maximal_cones"]:
        inv = inverse([fan["rays"][r] for r in cone])
        n = len(levels_by_ray[0])
        chars = []
        for k in range(n):
            target = [levels_by_ray[r][k] for r in cone]
            u = [sum(inv[i][j] * target[j] for j in range(len(cone)))
                 for i in range(len(cone))]
            chars.append([int(x) for x in u])
        out.append(chars)
    return out


def split_bundle(rng, fan_name: str, n: int, zero_sum: bool = False):
    """(bundle, expected associated data, chars) of a sum of line bundles.
    With `zero_sum` the levels on every ray add up to 0, so the characters of
    every cone do too and the bundle reduces to SL."""
    fan = FANS[fan_name]
    frame = invertible(rng, n)
    levels = split_levels(rng, fan_name, n)
    if zero_sum:
        for lv in levels:
            lv[-1] = -sum(lv[:-1])
    chars = cone_chars(fan, levels)
    bundle = bundle_obj(fan_name, [frame] * len(chars), chars)
    return bundle, split_data(fan_name, columns(frame), levels), chars


def tangent_bundle(rng, fan_name: str, summands: str):
    """Frames are the cone's rays (and identity blocks), characters the dual
    basis (and zeros), all moved by one global change of frame g."""
    fan = FANS[fan_name]
    rank = fan["rank"]
    dim = tangent_dim(fan_name, summands)
    g = invertible(rng, dim)
    frames, chars = [], []
    for cone in fan["maximal_cones"]:
        rays = [fan["rays"][r] for r in cone]
        ray_cols = [[rays[k][i] for k in range(rank)] for i in range(rank)]
        dual = [list(map(int, row)) for row in inverse(ray_cols)]
        if summands == "T":
            f, c = ray_cols, dual
        elif summands == "T+O":
            f, c = block_diag(ray_cols, [[1]]), dual + [[0] * rank]
        else:
            f, c = block_diag(ray_cols, ray_cols), dual + dual
        frames.append(matmul(g, f))
        chars.append(c)
    return bundle_obj(fan_name, frames, chars), tangent_data(fan_name, summands, g), chars


def random_bundle(rng, fan_name: str, n: int):
    fan = FANS[fan_name]
    frames = [invertible(rng, n) for _ in fan["maximal_cones"]]
    chars = [random_chars(rng, n, fan["rank"]) for _ in fan["maximal_cones"]]
    return bundle_obj(fan_name, frames, chars), None, chars


def sl_verdict(chars) -> str:
    sums_zero = all(all(sum(col) == 0 for col in zip(*c)) for c in chars)
    return "REDUCES" if sums_zero else "NO-IN-PRESENTATION"


# ---------------------------------------------------------------------------
# workloads


class Corpus:
    """Files keyed by name plus the operations run on them."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.files: Dict[str, object] = {f"fan_{k}.json": v for k, v in FANS.items()}
        self.ops: List[dict] = []

    def add(self, name: str, obj) -> str:
        self.files[name] = obj
        return name

    def digest(self) -> str:
        blob = json.dumps({"files": self.files, "ops": self.ops},
                          sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()


def spread(strata: List[List[dict]]) -> List[dict]:
    """Order the operations so that the instances of each stratum sit evenly
    over the pass: every stretch of the list has nearly the corpus-wide mix
    on every seed."""
    keyed = [((j + 0.5) / len(ops), k, op)
             for k, ops in enumerate(strata) for j, op in enumerate(ops)]
    keyed.sort(key=lambda x: x[:2])
    return [op for _, _, op in keyed]


def _mark_warm(ops: List[dict]) -> None:
    """Flag the first operation on each fan; set-up runs these once so that
    the per-fan cone caches are filled before timing."""
    seen = set()
    for op in ops:
        op["warm"] = op["fan"] not in seen
        seen.add(op["fan"])


# ---------------------------------------------------------------------------
# compat: validate + global_compatibility on one filtration-data instance

# (fan, kind, dim or tangent summands, count); more instances at small dims.
# Random flags on P^3 and the square cone stay at dim <= 4, where the checker
# is complete today, so that no operation depends on the "inconclusive" gap
# (on P^3, dim 3: at dim 4 one instance costs as much as forty others).
COMPAT_STRATA = [
    ("p2", "split", 2, 12), ("p2", "split", 3, 8), ("p2", "split", 4, 3),
    ("p2", "split", 5, 2), ("p2", "split", 6, 2), ("p2", "split", 7, 1),
    ("p2", "split", 8, 1),
    ("p2", "generic", 2, 12), ("p2", "generic", 3, 8), ("p2", "generic", 4, 3),
    ("p2", "generic", 5, 2), ("p2", "generic", 6, 2), ("p2", "generic", 7, 1),
    ("p2", "generic", 8, 1),
    ("p2", "tangent", "T", 4), ("p2", "tangent", "T+O", 4), ("p2", "tangent", "T+T", 2),
    ("p3", "split", 2, 8), ("p3", "split", 3, 4), ("p3", "split", 4, 2),
    ("p3", "split", 5, 1),
    ("p3", "tangent", "T", 4), ("p3", "tangent", "T+O", 4), ("p3", "tangent", "T+T", 2),
    ("p3", "planted", 2, 8), ("p3", "planted", 3, 4), ("p3", "planted", 4, 2),
    ("p3", "planted", 5, 1), ("p3", "planted", 6, 1),
    ("p3", "generic", 2, 6), ("p3", "generic", 3, 6),
    ("square", "split", 2, 8), ("square", "split", 3, 4), ("square", "split", 4, 2),
    ("square", "split", 5, 1),
    ("square", "planted", 2, 8), ("square", "planted", 3, 4), ("square", "planted", 4, 2),
    ("square", "planted", 5, 1), ("square", "planted", 6, 1),
    ("square", "integrality", 2, 8), ("square", "integrality", 3, 4),
    ("square", "integrality", 4, 2), ("square", "integrality", 5, 1),
    ("square", "generic", 2, 6), ("square", "generic", 3, 6), ("square", "generic", 4, 1),
]


def _compat_instance(rng, fan_name: str, kind: str, dim):
    if kind == "split":
        return random_split(rng, fan_name, dim)[0], "compatible"
    if kind == "tangent":
        g = invertible(rng, tangent_dim(fan_name, dim))
        return tangent_data(fan_name, dim, g), "compatible"
    if kind == "planted":
        return planted_distributivity(rng, fan_name, dim), "incompatible"
    if kind == "integrality":
        return square_integrality(rng, dim), "incompatible"
    return generic_data(rng, fan_name, dim), ("compatible" if fan_name == "p2" else None)


def build_compat(seed: int) -> Corpus:
    corpus = Corpus("compat", seed)
    rng = random.Random(f"compat/{seed}")
    groups = []
    for fan_name, kind, dim, count in COMPAT_STRATA:
        group = []
        for j in range(count):
            data, expect = _compat_instance(rng, fan_name, kind, dim)
            name = corpus.add(f"{fan_name}_{kind}_{dim}_{j}.json", data)
            group.append({"op": "compat", "fan": fan_name, "data": name,
                          "expect": expect})
        groups.append(group)
    corpus.ops = spread(groups)
    _mark_warm(corpus.ops)
    return corpus


# ---------------------------------------------------------------------------
# calculus: one tensor / dual / direct_sum / check_morphism call

CALCULUS_FANS = ("p1", "p2", "p3", "square")
SPLIT_PAIRS = [((2, 2), 3), ((2, 3), 3), ((3, 3), 2), ((2, 4), 2), ((3, 4), 2), ((4, 4), 1)]
GENERIC_PAIRS = [((2, 2), 2), ((2, 3), 2), ((3, 3), 1), ((4, 4), 1)]
TANGENT_OPERANDS = [("p2", "T"), ("p2", "T+O"), ("p3", "T"), ("p3", "T+O")]


def _split_tensor(fan_name, a, b) -> dict:
    (va, la), (vb, lb) = a, b
    vectors = [kron(x, y) for x in va for y in vb]
    levels = [[p + r for p in pa for r in pb] for pa, pb in zip(la, lb)]
    return split_data(fan_name, vectors, levels)


def _split_dual(fan_name, a) -> dict:
    """The dual chain at i annihilates the primal chain at 1 - i: the dual
    basis vectors, at the negated levels."""
    va, la = a
    dual_basis = inverse(columns(va))  # rows pair with the frame columns to delta
    return split_data(fan_name, dual_basis, [[-x for x in lv] for lv in la])


def _split_sum(fan_name, a, b) -> dict:
    (va, la), (vb, lb) = a, b
    na, nb = len(va), len(vb)
    vectors = [list(v) + [0] * nb for v in va] + [[0] * na + list(v) for v in vb]
    return split_data(fan_name, vectors, [pa + pb for pa, pb in zip(la, lb)])


def _morphism_matrix(rng, a, b, planted: bool):
    """phi = G M F^-1 maps frame column k of `a` onto the columns l of `b`
    with M[l][k] != 0; it respects every chain exactly when each such l has a
    level at least that of k on every ray.  Returns (phi rows, is_morphism)."""
    (va, la), (vb, lb) = a, b
    ok = [[all(lvb[l] >= lva[k] for lva, lvb in zip(la, lb)) for k in range(len(va))]
          for l in range(len(vb))]
    m = [[rng.choice([1, 2, -1]) if ok[l][k] and rng.random() < 0.7 else 0
          for k in range(len(va))] for l in range(len(vb))]
    bad = [(l, k) for l in range(len(vb)) for k in range(len(va)) if not ok[l][k]]
    if planted and bad:
        l, k = rng.choice(bad)
        m[l][k] = 1
    g = [[vb[l][i] for l in range(len(vb))] for i in range(len(vb[0]))]  # frame of b
    phi = matmul(matmul(g, m), inverse([[va[k][i] for k in range(len(va))]
                                         for i in range(len(va[0]))]))
    return phi, not (planted and bad)


def build_calculus(seed: int) -> Corpus:
    corpus = Corpus("calculus", seed)
    rng = random.Random(f"calculus/{seed}")
    groups: Dict[str, List[dict]] = {}
    n = [0]

    def operand(fan_name, dim, kind="split"):
        n[0] += 1
        name = f"{fan_name}_{kind}_{dim}_{n[0]}.json"
        if kind == "split":
            data, vectors, levels = random_split(rng, fan_name, dim)
            corpus.add(name, data)
            return name, (vectors, levels)
        if kind == "generic":
            corpus.add(name, generic_data(rng, fan_name, dim))
        else:
            corpus.add(name, tangent_data(fan_name, kind, invertible(rng, tangent_dim(fan_name, kind))))
        return name, None

    def op(stratum, **fields):
        n[0] += 1
        if "result" in fields:
            fields["expect"] = corpus.add(f"expect_{n[0]}.json", fields.pop("result"))
        groups.setdefault(stratum, []).append(fields)

    # the ops on one operand pair share its files; only `dual` has operands
    # of its own, since it caches annihilators on them
    for fan_name in CALCULUS_FANS:
        for (da, db), count in SPLIT_PAIRS:
            for _ in range(count):
                (fa, a), (fb, b) = operand(fan_name, da), operand(fan_name, db)
                pair = f"{fan_name}/{da}x{db}"
                op(f"tensor/{pair}", op="tensor", fan=fan_name, a=fa, b=fb,
                   result=_split_tensor(fan_name, a, b))
                op(f"dsum/{pair}", op="direct_sum", fan=fan_name, a=fa, b=fb,
                   result=_split_sum(fan_name, a, b))
                for planted in (False, True):
                    phi, holds = _morphism_matrix(rng, a, b, planted)
                    fp = corpus.add(f"phi_{n[0]}_{planted}.json", qrows(phi))
                    op(f"morphism/{pair}/{planted}", op="morphism", fan=fan_name,
                       a=fa, b=fb, phi=fp, expect=holds)
        for dim in (2, 3, 4):
            for _ in range(2):
                fa, a = operand(fan_name, dim)
                op(f"dual/{fan_name}/{dim}", op="dual", fan=fan_name, a=fa,
                   result=_split_dual(fan_name, a))
    for fan_name in ("p2", "p3"):
        for (da, db), count in GENERIC_PAIRS:
            for _ in range(count):
                fa, _ = operand(fan_name, da, "generic")
                fb, _ = operand(fan_name, db, "generic")
                for kind in ("tensor", "direct_sum"):
                    op(f"{kind}/{fan_name}/generic/{da}x{db}", op=kind, fan=fan_name,
                       a=fa, b=fb, expect=None)
                fa, _ = operand(fan_name, da, "generic")
                op(f"dual/{fan_name}/generic/{da}", op="dual", fan=fan_name, a=fa, expect=None)
    for fan_name, summands in TANGENT_OPERANDS:
        fa, _ = operand(fan_name, 0, summands)
        fb, _ = operand(fan_name, 0, summands)
        op(f"tensor/{fan_name}/{summands}", op="tensor", fan=fan_name, a=fa, b=fb, expect=None)
        fc, _ = operand(fan_name, 0, summands)
        op(f"dual/{fan_name}/{summands}", op="dual", fan=fan_name, a=fc, expect=None)
    corpus.ops = spread(list(groups.values()))
    _mark_warm(corpus.ops)
    return corpus


# ---------------------------------------------------------------------------
# bundle: gluing, associated data, SL and torus reduction, algebra checks

# (fan, kind, n or tangent summands, count).  Random bundles on P^1 stay at
# n <= 3: from n = 4 on, the torus search costs several times more when it
# finds no splitting, so a few instances would swing a run.  T+T on P^3 has
# n = 6.
BUNDLE_STRATA = [
    ("p1", "split", 2, 5), ("p1", "split", 3, 10), ("p1", "split", 4, 8), ("p1", "split", 5, 6),
    ("p2", "split", 2, 10), ("p2", "split", 3, 5), ("p2", "split", 4, 4), ("p2", "split", 5, 3),
    ("p3", "split", 2, 4), ("p3", "split", 3, 4), ("p3", "split", 4, 3), ("p3", "split", 5, 2),
    ("p1", "random", 2, 5), ("p1", "random", 3, 10),
    ("p2", "random", 2, 8), ("p2", "random", 3, 4), ("p2", "random", 4, 3), ("p2", "random", 5, 3),
    ("p3", "random", 2, 8), ("p3", "random", 3, 4), ("p3", "random", 4, 3), ("p3", "random", 5, 3),
    ("p2", "tangent", "T", 8), ("p2", "tangent", "T+O", 4), ("p2", "tangent", "T+T", 4),
    ("p3", "tangent", "T", 3), ("p3", "tangent", "T+O", 2), ("p3", "tangent", "T+T", 1),
]

ALGEBRA_DEGREE = {2: 3, 3: 2}  # no algebra checks for n >= 4


def build_bundle(seed: int) -> Corpus:
    corpus = Corpus("bundle", seed)
    rng = random.Random(f"bundle/{seed}")
    groups = []
    for fan_name, kind, n, count in BUNDLE_STRATA:
        group = []
        for j in range(count):
            if kind == "split":
                bundle, assoc, chars = split_bundle(rng, fan_name, n, zero_sum=j % 2 == 1)
                glues, torus = True, "REDUCES"
            elif kind == "tangent":
                bundle, assoc, chars = tangent_bundle(rng, fan_name, n)
                glues, torus = True, "NONE-FOUND"
            else:
                bundle, assoc, chars = random_bundle(rng, fan_name, n)
                # every bundle on P^1 glues: the two cones meet only in 0
                glues, torus = (True if fan_name == "p1" else None), None
            name = corpus.add(f"{fan_name}_{kind}_{n}_{j}.json", bundle)
            expect_assoc = corpus.add(f"assoc_{name}", assoc) if assoc else None
            size = len(bundle["cones"][0]["frame"])
            group.append({"op": "bundle", "fan": fan_name, "bundle": name,
                          "degree": ALGEBRA_DEGREE.get(size),
                          "expect": {"glues": glues, "assoc": expect_assoc,
                                     "sl": sl_verdict(chars), "torus": torus}})
        groups.append(group)
    corpus.ops = spread(groups)
    _mark_warm(corpus.ops)
    return corpus


# ---------------------------------------------------------------------------
# cli: one `python -m toricfilt.cli ...` process per operation

HUGE_INT = "1" + "0" * 4400  # beyond Python's 4300-digit int parsing limit


def build_cli(seed: int) -> Corpus:
    corpus = Corpus("cli", seed)
    rng = random.Random(f"cli/{seed}")
    ops = corpus.ops

    def cmd(argv, code, **check):
        ops.append({"op": "cli", "argv": argv, "exit": code, **check})

    def add_split(fan_name, dim):
        data, vectors, levels = random_split(rng, fan_name, dim)
        return corpus.add(f"split_{fan_name}_{dim}_{len(corpus.files)}.json", data), (vectors, levels)

    corpus.add("bad_fan.json", {"rank": 2, "rays": [[2, 0], [0, 1]], "maximal_cones": [[0, 1]]})
    for fan_name in ("p2", "p3", "square"):
        cmd(["validate-fan", f"fan_{fan_name}.json"], 0)
    cmd(["validate-fan", "bad_fan.json"], 1)

    split_p2, _ = add_split("p2", 3)
    cmd(["validate-filt", split_p2], 0)
    g = columns(invertible(rng, 2))
    tangled = filt_obj("p2", 2, [[{"i": 0, "basis": qrows(g)}, {"i": 1, "basis": qrows(g[:1])},
                                  {"i": 2, "basis": qrows(g[1:])}]] * 3)
    cmd(["validate-filt", corpus.add("not_nested.json", tangled)], 1)

    cmd(["compat", add_split("p3", 3)[0]], 0, verdict="compatible")
    cmd(["compat", corpus.add("planted_p3.json", planted_distributivity(rng, "p3", 3))], 1,
        verdict="incompatible")
    cmd(["compat", corpus.add("tangent_p3.json", tangent_data("p3", "T", invertible(rng, 3)))], 0,
        verdict="compatible")
    cmd(["compat", corpus.add("integrality.json", square_integrality(rng, 3))], 1,
        verdict="incompatible")
    cmd(["compat", corpus.add("generic_p2.json", generic_data(rng, "p2", 4))], 0,
        verdict="compatible")
    cmd(["compat", corpus.add("planted_sq.json", planted_distributivity(rng, "square", 3)),
         "--cone", "0"], 1, verdict="refutation")

    (fa, a), (fb, b) = add_split("p2", 2), add_split("p2", 3)
    cmd(["tensor", fa, fb], 0, expect=corpus.add("expect_tensor.json", _split_tensor("p2", a, b)))
    cmd(["dsum", fa, fb], 0, expect=corpus.add("expect_dsum.json", _split_sum("p2", a, b)))
    fc, c = add_split("p3", 3)
    cmd(["dual", fc], 0, expect=corpus.add("expect_dual.json", _split_dual("p3", c)))
    for planted in (False, True):
        (fa, a), (fb, b) = add_split("p2", 3), add_split("p2", 3)
        phi, holds = _morphism_matrix(rng, a, b, planted)
        cmd(["morphism", corpus.add(f"phi_{planted}.json", qrows(phi)), fa, fb],
            0 if holds else 1)

    split2, assoc2, _ = split_bundle(rng, "p2", 3)
    s2 = corpus.add("bundle_split.json", split2)
    broken = json.loads(json.dumps(split2))
    broken["cones"][0]["chars"][0][0] += 1  # disagrees with cone 2 on ray 0
    bad = corpus.add("bundle_broken.json", broken)
    tan = corpus.add("bundle_tangent.json", tangent_bundle(rng, "p2", "T")[0])
    cmd(["validate-bundle", s2], 0)
    singular = json.loads(json.dumps(split2))
    singular["cones"][1]["frame"] = [["1", "2", "3"], ["2", "4", "6"], ["0", "0", "1"]]
    cmd(["validate-bundle", corpus.add("bundle_singular.json", singular)], 1)
    cmd(["glue", s2], 0)
    cmd(["glue", bad], 1)
    cmd(["glue", corpus.add("bundle_tangent_p3.json", tangent_bundle(rng, "p3", "T")[0])], 0)
    cmd(["assoc", s2], 0, expect=corpus.add("expect_assoc.json", assoc2))
    cmd(["assoc", bad], 1)
    cmd(["algebra-check", corpus.add("bundle_p1.json", split_bundle(rng, "p1", 2)[0])], 0)
    cmd(["algebra-check", tan, "--cone", "1"], 0)
    cmd(["algebra-check", s2, "--degree", "2"], 0)
    sl = corpus.add("bundle_sl.json", split_bundle(rng, "p2", 2, zero_sum=True)[0])
    cmd(["reduce", sl, "--to", "sl"], 0, verdict="REDUCES")
    cmd(["reduce", tan, "--to", "sl"], 1, verdict="NO-IN-PRESENTATION")
    cmd(["reduce", s2, "--to", "torus"], 0, verdict="REDUCES")
    cmd(["reduce", tan, "--to", "torus"], 1, verdict="NONE-FOUND")

    # malformed input: the CLI contract is exit 2 for each of these
    def malformed(name, literal):
        obj = json.loads(json.dumps(corpus.files[split_p2]))
        obj["filtrations"]["0"][0]["basis"][0][0] = "@"
        return corpus.add(name, json.dumps(obj).replace('"@"', literal))

    cmd(["validate-filt", malformed("float.json", "0.5")], 2)
    cmd(["compat", "missing.json"], 2)
    cmd(["reduce", bad, "--to", "torus"], 2)
    cmd(["validate-filt", malformed("decimal.json", '"1.5"')], 2, defect="lenient-rational")
    cmd(["validate-filt", malformed("huge_int.json", HUGE_INT)], 2, defect="huge-integer")
    return corpus


def build(workload: str, seed: int) -> Corpus:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    generate = {"compat": build_compat, "calculus": build_calculus,
                "bundle": build_bundle, "cli": build_cli}[workload]
    return generate(seed)
