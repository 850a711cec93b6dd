import itertools
import random
from fractions import Fraction

import pytest

from builders import (
    P3,
    blown_up_p2,
    identity,
    parity_split_bundle,
    random_split_bundle,
    solve_integer,
    tangent_bundle,
)
from oracle import (
    bundle_dual,
    bundle_sum,
    bundle_tensor,
    change_basis,
    reference_inverse,
    reference_product,
    reference_splitting_reconstructs,
    reference_universe,
)
from toricfilt.bundles import (
    CocharBundleData,
    GroupSpec,
    associated_klyachko,
    check_gluing,
    determinant_data,
    validate_bundle,
)
from toricfilt.compatibility import graded_pieces
from toricfilt.errors import PreconditionError
from toricfilt.fans import Fan
from toricfilt.filtrations import direct_sum
from toricfilt.linalg import QMatrix, span_canonical
from toricfilt.reduction import (
    SL_NO,
    SL_REDUCES,
    TORUS_NONE,
    TORUS_REDUCES,
    _realized_tuples,
    check_sl_reduction,
    check_torus_reduction,
)
from toricfilt.sampling import (
    p1_fan,
    p2_fan,
    random_bundle,
    random_invertible_matrix,
)
from toricfilt.serialize import filtration_to_obj

I2 = identity(2)


def test_sl_zero_sum_reduces(p1):
    data = CocharBundleData.make(
        GroupSpec("GL", 2), p1,
        [QMatrix.from_rows([[2, 1], [1, 1]]), QMatrix.from_rows([[3, 0], [0, 1]])],
        [[(1,), (-1,)], [(2,), (-2,)]],
    )
    res = check_sl_reduction(data)
    assert res.verdict == SL_REDUCES
    assert validate_bundle(res.sl_presentation).valid
    assert all(f.det() == 1 for f in res.sl_presentation.frames)


def test_sl_rescaling_preserves_homomorphism(p1):
    data = CocharBundleData.make(
        GroupSpec("GL", 2), p1,
        [QMatrix.from_rows([[2, 1], [1, 1]]), I2],
        [[(1,), (-1,)], [(0,), (0,)]],
    )
    res = check_sl_reduction(data)
    assert associated_klyachko(res.sl_presentation) == associated_klyachko(data)


def test_sl_nonzero_sum_witness(p1):
    data = CocharBundleData.make(
        GroupSpec("GL", 2), p1, [I2, I2],
        [[(1,), (0,)], [(0,), (0,)]],
    )
    res = check_sl_reduction(data)
    assert res.verdict == SL_NO
    assert res.failing_cone == 0
    assert res.character_sum == (1,)


def test_sl_cross_check_determinant(p1):
    data = CocharBundleData.make(
        GroupSpec("GL", 2), p1, [I2, I2],
        [[(3,), (-3,)], [(1,), (-1,)]],
    )
    assert check_sl_reduction(data).verdict == SL_REDUCES
    det = determinant_data(data)
    assert all(all(x == 0 for x in u[0]) for u in det.chars)


def test_sl_requires_gl(p1):
    data = CocharBundleData.make(GroupSpec("DT", 1), p1, [identity(1)] * 2,
                                 [[(0,)], [(0,)]])
    with pytest.raises(PreconditionError):
        check_sl_reduction(data)


def test_sl_decided_modulo_perpendicular_characters():
    """On the rank-2 fan with the one ray (1,0), the GL(1) bundles with
    character (0,1) and (0,0) are isomorphic through the unit monomial of
    (0,1); both reduce, and the first presentation moves its sum off the
    character."""
    fan = Fan.make(2, [[1, 0]], [[0]])
    for u in ((0, 1), (0, 0)):
        data = CocharBundleData.make(GroupSpec("GL", 1), fan, [identity(1)], [[u]])
        res = check_sl_reduction(data)
        assert res.verdict == SL_REDUCES
        assert validate_bundle(res.sl_presentation).valid
        assert res.sl_presentation.chars == (((0, 0),),)
        assert associated_klyachko(res.sl_presentation) == associated_klyachko(data)


def test_sl_verdict_invariant_under_perpendicular_shifts():
    """Shifting characters by characters perpendicular to their cone keeps
    the verdict, which is REDUCES exactly when every cone's character sum
    pairs to zero with the cone's rays."""
    fans = [Fan.make(2, [[1, 0], [-1, 0]], [[0], [1]]),
            Fan.make(3, [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1]], [[0, 1], [2], [3]])]
    rng = random.Random(23)
    verdicts = set()
    for fan in fans:
        cones = [fan.maximal_cone(k) for k in range(len(fan.maximal_cones))]

        def shift(cone, u):
            coeffs = [rng.randint(-3, 3) for _ in cone.perp_basis]
            return tuple(x + sum(c * p[j] for c, p in zip(coeffs, cone.perp_basis))
                         for j, x in enumerate(u))

        def shifted(chars):
            return [[shift(cone, u) for u in cone_chars]
                    for cone, cone_chars in zip(cones, chars)]

        for trial in range(30):
            n = rng.randint(1, 3)
            data = random_bundle(rng, fan, n)
            chars = [list(c) for c in data.chars]
            if trial % 2:
                for cone_chars in chars:
                    rest = [sum(u[j] for u in cone_chars[1:]) for j in range(fan.rank)]
                    cone_chars[0] = tuple(-x for x in rest)
                chars = shifted(chars)
            base = CocharBundleData.make(data.group, fan, data.frames, chars)
            verdict = check_sl_reduction(base).verdict
            sums = [[sum(u[j] for u in c) for j in range(fan.rank)] for c in chars]
            expected = all(sum(x * y for x, y in zip(s, g)) == 0
                           for s, cone in zip(sums, cones) for g in cone.generators)
            assert verdict == (SL_REDUCES if expected else SL_NO)
            verdicts.add(verdict)
            for _ in range(3):
                moved = CocharBundleData.make(data.group, fan, data.frames, shifted(chars))
                res = check_sl_reduction(moved)
                assert res.verdict == verdict
                if verdict == SL_REDUCES:
                    assert validate_bundle(res.sl_presentation).valid
                    assert associated_klyachko(res.sl_presentation) == associated_klyachko(moved)
    assert verdicts == {SL_REDUCES, SL_NO}


def test_torus_dt_embedded_reduces(p2):
    """Diagonal-torus data embedded in GL splits along the coordinate axes."""
    frames = [QMatrix.from_rows([[2, 0], [0, 3]])] * 3
    rng = random.Random(1)
    data = random_split_bundle(rng, p2, 2, frame=frames[0])
    res = check_torus_reduction(data)
    assert res.verdict == TORUS_REDUCES
    assert set(res.lines) == {(1, 0), (0, 1)}


def test_torus_common_frame_reduces(p2):
    rng = random.Random(14)
    for _ in range(5):
        frame = random_invertible_matrix(rng, 2)
        data = random_split_bundle(rng, p2, 2, frame=frame)
        res = check_torus_reduction(data)
        assert res.verdict == TORUS_REDUCES
        # the splitting re-validates: lines are independent and reproduce the data
        kly = associated_klyachko(data)
        lines = [span_canonical([list(l)], 2) for l in res.lines]
        for ray_idx, chain in enumerate(kly.filtrations):
            for i, expected in chain.jumps:
                got = span_canonical(
                    [list(l) for l, lv in zip(res.lines, res.line_levels)
                     if lv[ray_idx] >= i], 2,
                )
                assert got == expected


def test_torus_splitting_matches_direct_sum(p2):
    """Change basis by the splitting lines: the data becomes the direct sum
    of the induced rank-one data."""
    rng = random.Random(3)
    data = random_split_bundle(rng, p2, 2)
    res = check_torus_reduction(data)
    assert res.verdict == TORUS_REDUCES
    kly = associated_klyachko(data)
    from toricfilt.filtrations import FiltrationData, RayFiltration
    from toricfilt.linalg import Subspace

    line_data = [
        FiltrationData.make(p2, 1, [
            RayFiltration.make(1, [(lv[ray_idx], Subspace.full(1))])
            for ray_idx in range(3)
        ])
        for lv in res.line_levels
    ]
    blocks = direct_sum(line_data[0], line_data[1])
    m = reference_inverse(QMatrix.from_rows([list(l) for l in res.lines]))
    assert change_basis(kly, m) == blocks


def test_torus_tangent_p2_none_found(tangent_p2_bundle):
    """No all-ray tuple restricts to character levels on all three cones of
    T_P2, so the universe is empty and NONE-FOUND is definitive."""
    res = check_torus_reduction(tangent_p2_bundle)
    assert res.verdict == TORUS_NONE
    assert res.universe_size == 0
    assert res.lines is None


def test_torus_invariant_under_global_frame_change(p2, tangent_p2_bundle):
    h = QMatrix.from_rows([[1, 2], [1, 1]])
    moved = CocharBundleData.make(
        tangent_p2_bundle.group, p2,
        [reference_product(h, f) for f in tangent_p2_bundle.frames],
        tangent_p2_bundle.chars,
    )
    assert check_torus_reduction(moved).verdict == TORUS_NONE

    rng = random.Random(5)
    split = random_split_bundle(rng, p2, 2)
    moved_split = CocharBundleData.make(
        split.group, p2, [reference_product(h, f) for f in split.frames], split.chars,
    )
    assert check_torus_reduction(moved_split).verdict == TORUS_REDUCES


def test_torus_requires_gluing(p2):
    data = CocharBundleData.make(
        GroupSpec("GL", 1), p2, [identity(1)] * 3,
        [[(0, 1)], [(0, 0)], [(0, 0)]],
    )
    with pytest.raises(PreconditionError):
        check_torus_reduction(data)


def _full_grid_torus_verdict(data):
    """Reference verdict: graded pieces over the full all-ray product grid
    must have total dimension n, and every nonzero piece's tuple must admit an
    integral character on every maximal cone."""
    kly = associated_klyachko(data)
    fan = data.fan
    grid = list(itertools.product(*[f.jump_indices() for f in kly.filtrations]))
    pieces = graded_pieces(kly.filtrations, grid, kly.dim)
    nonzero = [t for t in grid if pieces[t].dim > 0]
    splits = sum(pieces[t].dim for t in nonzero) == kly.dim
    integral = all(
        solve_integer([fan.rays[i] for i in idx], [t[i] for i in idx]) is not None
        for t in nonzero for idx in fan.maximal_cones
    )
    return TORUS_REDUCES if splits and integral else TORUS_NONE


def _twist(data, line):
    """`data` tensored with the line bundle `line` on P^2: each cone's
    characters shifted by the line's character there."""
    return CocharBundleData.make(data.group, data.fan, data.frames, [
        [tuple(a + b for a, b in zip(u, lu[0])) for u in cone_chars]
        for cone_chars, lu in zip(data.chars, line.chars)
    ])


def _plus_line(data, line, h):
    """The rank-2 `data` plus the line bundle `line`, in the frame h."""
    frames = [
        reference_product(h, QMatrix.from_rows([list(r) + [0] for r in f.entries]
                                               + [[0, 0, g.entries[0][0]]]))
        for f, g in zip(data.frames, line.frames)
    ]
    chars = [tuple(a) + tuple(b) for a, b in zip(data.chars, line.chars)]
    return CocharBundleData.make(GroupSpec("GL", 3), data.fan, frames, chars)


def _torus_instances(rng, p2, tangent_p2_bundle):
    """Random bundles over P^1 and P^2 (n <= 3), split bundles, and twisted,
    moved and extended tangent bundles of P^2."""
    instances = []
    for _ in range(8):
        for fan in (p1_fan(), p2):
            instances.append(random_bundle(rng, fan, rng.randint(1, 3), -1, 1))
        instances.append(random_split_bundle(rng, p2, rng.randint(1, 3)))
        t = _twist(tangent_p2_bundle, random_split_bundle(rng, p2, 1))
        h = random_invertible_matrix(rng, 2)
        instances.append(CocharBundleData.make(t.group, p2, [reference_product(h, f) for f in t.frames], t.chars))
        instances.append(_plus_line(t, random_split_bundle(rng, p2, 1),
                                    random_invertible_matrix(rng, 3)))
    return instances


def test_torus_universe_matches_full_grid(p2, tangent_p2_bundle):
    """The realized-tuple universe loses no splitting: its verdict equals the
    full-grid reference on random bundles over P^1 and P^2 (n <= 3), split
    bundles, and twisted, moved and extended tangent bundles of P^2."""
    verdicts = set()
    for data in _torus_instances(random.Random(8), p2, tangent_p2_bundle):
        if not check_gluing(data).glues:
            continue
        res = check_torus_reduction(data)
        assert res.verdict == _full_grid_torus_verdict(data)
        verdicts.add(res.verdict)
    assert verdicts == {TORUS_REDUCES, TORUS_NONE}


def test_torus_check_matches_reference_splitting(p2, tangent_p2_bundle):
    """The direct-sum test plus `reconstruction_failure` gives the verdict,
    lines and levels of the reference, which spans the lines of each level
    at every probe, on the instances above and on tangent bundles of P^2
    twisted by line bundles and extended by them in the identity frame."""
    rng = random.Random(8)
    instances = _torus_instances(rng, p2, tangent_p2_bundle)
    for _ in range(8):
        t = _twist(tangent_p2_bundle, random_split_bundle(rng, p2, 1))
        instances += [t, _plus_line(t, random_split_bundle(rng, p2, 1), identity(3))]
    verdicts = {TORUS_REDUCES: 0, TORUS_NONE: 0}
    nonempty_none = 0
    for data in instances:
        if not check_gluing(data).glues:
            continue
        kly = associated_klyachko(data)
        universe = _realized_tuples(data)
        pieces = graded_pieces(kly.filtrations, universe, kly.dim)
        lines = tuple(v for t in universe for v in pieces[t].rows)
        levels = tuple(t for t in universe for _ in pieces[t].rows)
        res = check_torus_reduction(data)
        if reference_splitting_reconstructs(kly, lines, levels):
            assert (res.verdict, res.lines, res.line_levels) == (TORUS_REDUCES, lines, levels)
        else:
            assert (res.verdict, res.lines, res.line_levels) == (TORUS_NONE, None, None)
            nonempty_none += bool(lines)
        verdicts[res.verdict] += 1
    assert all(verdicts.values()) and nonempty_none, (verdicts, nonempty_none)


def _gauge(rng, data):
    """The same bundle in another frame on every cone: the frame columns
    are permuted together with the characters and scaled by nonzero
    rationals."""
    n = data.group.n
    frames, chars = [], []
    for frame, cone_chars in zip(data.frames, data.chars):
        perm = rng.sample(range(n), n)
        scale = [Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 4)) for _ in perm]
        frames.append(QMatrix.from_rows(
            [[row[p] * c for p, c in zip(perm, scale)] for row in frame.entries], n))
        chars.append([cone_chars[p] for p in perm])
    return CocharBundleData.make(data.group, data.fan, frames, chars)


def test_sl_verdict_and_assoc_invariant_under_frame_gauge(p2, tangent_p2_bundle):
    """Permuting and rescaling the frame columns of each cone, characters
    along, changes neither the SL verdict nor the associated filtration
    data that `assoc` prints."""
    rng = random.Random(31)
    instances = [tangent_p2_bundle]
    for _ in range(6):
        for fan in (p1_fan(), p2):
            instances.append(random_split_bundle(rng, fan, rng.randint(1, 3)))
            data = random_bundle(rng, fan, rng.randint(1, 3))
            if rng.random() < 0.5:
                chars = [list(c) for c in data.chars]
                for cone_chars in chars:
                    rest = [sum(u[j] for u in cone_chars[1:]) for j in range(fan.rank)]
                    cone_chars[0] = tuple(-x for x in rest)
                data = CocharBundleData.make(data.group, fan, data.frames, chars)
            instances.append(data)

    def assoc(data):
        if not check_gluing(data).glues:
            return None
        return filtration_to_obj(associated_klyachko(data))

    verdicts, glued = set(), 0
    for data in instances:
        verdict, printed = check_sl_reduction(data).verdict, assoc(data)
        verdicts.add(verdict)
        glued += printed is not None
        for _ in range(3):
            moved = _gauge(rng, data)
            assert check_sl_reduction(moved).verdict == verdict
            assert assoc(moved) == printed
    assert verdicts == {SL_REDUCES, SL_NO}
    assert glued >= 12


def _shifted(rng, data):
    """`data` with one character of one cone moved by ±1 in every
    coordinate, which mostly breaks gluing but keeps some level tuples."""
    chars = [list(cone_chars) for cone_chars in data.chars]
    k, c = rng.randrange(len(chars)), rng.randrange(data.group.n)
    chars[k][c] = tuple(x + rng.choice([-1, 1]) for x in chars[k][c])
    return CocharBundleData.make(data.group, data.fan, data.frames, chars)


def test_realized_tuples_match_reference_universe():
    """The cone-by-cone join gives the list of `reference_universe`, which
    filters the product of each ray's candidate levels, in the same order,
    on seeded glued (split) and non-glued (split with one character moved,
    and independent per cone) bundles of P^1, P^2, the 4-cone P^3 fan and
    the 6-ray surface, and on the 729-tuple parity bundle of that surface."""
    rng = random.Random(71)
    cases = [parity_split_bundle(6)]
    for fan in (p1_fan(), p2_fan(), P3, blown_up_p2(6)):
        for i in range(12):
            split = random_split_bundle(rng, fan, 1 + i % 4, -1, 1)
            cases += [split, _shifted(rng, split), random_bundle(rng, fan, 1 + i % 4, -1, 1)]
    nonempty = {True: 0, False: 0}
    for data in cases:
        universe = _realized_tuples(data)
        assert universe == reference_universe(data), data
        nonempty[check_gluing(data).glues] += bool(universe)
    assert len(_realized_tuples(cases[0])) == 3 ** 6
    assert nonempty[True] >= 60 and nonempty[False] >= 30, nonempty


def test_torus_and_sl_verdicts_respect_the_calculus():
    """On seeded glued bundles of P^1, P^2 and the 4-cone P^3 fan, E ⊕ F,
    built frame by frame in the oracle, reduces to the torus exactly when E
    and F do, and E ⊗ E* reduces to SL.  Every bundle on P^1 and every
    split bundle reduces; the tangent bundles of P^2 and P^3 do not, and
    neither does a sum with one of them as a summand (Krull-Schmidt).  The
    determinant of E ⊗ E* has the character sum n·Σu − n·Σu = 0 on every
    cone."""
    rng = random.Random(13)
    verdicts = {TORUS_REDUCES: 0, TORUS_NONE: 0}
    for fan in (p1_fan(), p2_fan(), P3):
        # (bundle, whether it reduces to the torus by construction)
        glued = [(tangent_bundle(fan), False)] if fan.rank > 1 else []
        for i in range(8):
            sample = random_bundle if fan.rank == 1 else random_split_bundle
            glued.append((sample(rng, fan, 1 + i % 2), True))
        for e, reduces in glued:
            assert check_torus_reduction(e).verdict == (TORUS_REDUCES if reduces else TORUS_NONE)
            assert check_sl_reduction(bundle_tensor(e, bundle_dual(e))).verdict == SL_REDUCES
        for _ in range(12):
            (e, e_reduces), (f, f_reduces) = rng.choice(glued), rng.choice(glued)
            verdict = check_torus_reduction(bundle_sum(e, f)).verdict
            assert verdict == (TORUS_REDUCES if e_reduces and f_reduces else TORUS_NONE)
            verdicts[verdict] += 1
    assert min(verdicts.values()) >= 5, verdicts
