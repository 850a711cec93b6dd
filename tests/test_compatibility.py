import itertools
import random

import pytest

from builders import random_split_bundle, solve_integer, square_cone_fan, transpose
from oracle import (
    exhaustive_adapted_search,
    graded_decomposition,
    reference_graded_pieces,
    reference_product,
    reference_verify_cone_decomposition,
    tensor_certificate,
)
from toricfilt import compatibility, fans, filtrations, lattice, linalg
from toricfilt.bundles import CocharBundleData, associated_klyachko, check_gluing
from toricfilt.compatibility import (
    VERDICT_CERTIFICATE,
    VERDICT_REFUTATION,
    ConeDecomposition,
    _character_solver,
    _grid,
    cone_compatibility,
    graded_pieces,
    global_compatibility,
    verify_cone_decomposition,
)
from toricfilt.errors import InputError
from toricfilt.fans import Fan
from toricfilt.filtrations import (
    FiltrationData,
    RayFiltration,
    check_morphism,
    dual,
    tensor,
    validate,
)
from toricfilt.lattice import smith_normal_form
from toricfilt.linalg import QMatrix, Subspace, levelled_meets, span_canonical
from toricfilt.reduction import _realized_tuples
from toricfilt.sampling import (
    p1_fan,
    p2_fan,
    random_bundle,
    random_filtration_data,
    random_invertible_matrix,
    random_subspace,
)
from toricfilt.serialize import filtration_from_obj, filtration_to_obj

P3 = Fan.make(3, [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1]],
              [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]])


def test_trivial_data_single_zero_class(p2):
    data = FiltrationData.trivial(p2, 3)
    for idx in p2.maximal_cones:
        res = cone_compatibility(data, idx)
        assert res.verdict == VERDICT_CERTIFICATE
        assert res.certificate.pieces == (((0, 0), Subspace.full(3)),)


def test_zero_cone_certificate(p2):
    data = FiltrationData.trivial(p2, 2)
    res = cone_compatibility(data, ())
    assert res.verdict == VERDICT_CERTIFICATE
    assert res.certificate.pieces == (((0, 0), Subspace.full(2)),)


def test_rank_zero_data_certificate(p2):
    data = FiltrationData.make(p2, 0, [RayFiltration.make(0, [])] * 3)
    res = cone_compatibility(data, (0, 1))
    assert res.verdict == VERDICT_CERTIFICATE
    assert res.certificate.pieces == ()


def test_spec_two_line_certificate(p2):
    full = Subspace.full(2)
    f0 = RayFiltration.make(2, [(0, full), (1, span_canonical([[1, 0]]))])
    f1 = RayFiltration.make(2, [(0, full), (1, span_canonical([[1, 1]]))])
    data = FiltrationData.make(p2, 2, [f0, f1, RayFiltration.trivial(2)])
    res = cone_compatibility(data, (0, 1))
    assert res.verdict == VERDICT_CERTIFICATE
    pieces = dict(res.certificate.pieces)
    assert pieces[(1, 0)] == span_canonical([[1, 0]])
    assert pieces[(0, 1)] == span_canonical([[1, 1]])


def test_four_lines_refuted(four_lines):
    res = cone_compatibility(four_lines, (0, 1, 2, 3))
    assert res.verdict == VERDICT_REFUTATION
    assert res.refutation.kind == "reconstruction"
    assert res.refutation.detail == {"rays": [0, 1, 2, 3], "graded_dim": 4, "fiber_dim": 2}
    # oracle: exhaustive search over adapted decompositions finds none
    assert exhaustive_adapted_search(four_lines, (0, 1, 2, 3)) is None


def test_reconstruction_refutation_agrees_with_oracle():
    """Three distinct lines in Q^2 on a smooth cone: every tuple is integral,
    and the dimension count refutes."""
    fan = Fan.make(3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[0, 1, 2]])
    full = Subspace.full(2)
    data = FiltrationData.make(fan, 2, [
        RayFiltration.make(2, [(0, full), (1, span_canonical([l], 2))])
        for l in ([1, 0], [0, 1], [1, 1])
    ])
    res = cone_compatibility(data, (0, 1, 2))
    assert res.verdict == VERDICT_REFUTATION
    assert res.refutation.kind == "reconstruction"
    assert res.refutation.detail == {"rays": [0, 1, 2], "graded_dim": 3, "fiber_dim": 2}
    assert exhaustive_adapted_search(data, (0, 1, 2)) is None


def test_reconstruction_decided_before_integrality(square_fan):
    """Three distinct lines and a trivial chain on the square cone: the
    pieces overfill the fiber, and the line tuple (1, 0, 0, 0) has no
    integral character (a + d != b + c).  The dimension count is the
    refutation; no integral character is consulted first."""
    full = Subspace.full(2)
    data = FiltrationData.make(square_fan, 2, [
        RayFiltration.make(2, [(0, full), (1, span_canonical([l], 2))])
        for l in ([1, 0], [0, 1], [1, 1])
    ] + [RayFiltration.trivial(2)])
    idx = (0, 1, 2, 3)
    filts, tuples = _grid(data, idx)
    pieces = graded_pieces(filts, tuples, 2)
    assert pieces[(1, 0, 0, 0)].dim == 1
    assert _character_solver(data, idx)((1, 0, 0, 0)) is None
    res = cone_compatibility(data, idx)
    assert res.verdict == VERDICT_REFUTATION
    assert res.refutation.kind == "reconstruction"
    assert res.refutation.detail == {"rays": [0, 1, 2, 3], "graded_dim": 3, "fiber_dim": 2}
    assert exhaustive_adapted_search(data, idx) is None


def test_refutation_kind_names_the_deciding_stage():
    """On random data over P^3 and the square cone, `reconstruction` is
    reported exactly when the piece dimensions exceed the fiber dimension,
    `integrality` only for direct pieces whose witness tuple has no integral
    character, and the exhaustive search confirms every refutation."""
    rng = random.Random(2024)
    kinds = set()
    for n in range(24):
        fan = (P3, square_cone_fan())[n % 2]
        dim = 2 + n % 3
        data = random_filtration_data(rng, fan, dim, index_lo=-1, index_hi=1)
        for idx in fan.maximal_cones:
            res = cone_compatibility(data, idx)
            filts, tuples = _grid(data, idx)
            graded_dim = sum(p.dim for p in graded_pieces(filts, tuples, dim).values())
            kind = res.refutation.kind if res.refutation else None
            kinds.add(kind)
            assert (kind == "reconstruction") == (graded_dim > dim)
            if kind == "integrality":
                assert graded_dim == dim
                t = tuple(res.refutation.detail["tuple"])
                assert _character_solver(data, idx)(t) is None
            if res.verdict == VERDICT_REFUTATION:
                assert exhaustive_adapted_search(data, idx) is None
    assert kinds == {None, "reconstruction", "integrality"}


def test_four_lines_global_names_cone(four_lines):
    report = global_compatibility(four_lines)
    assert report.verdict == "incompatible"
    assert report.cones[0].ray_indices == (0, 1, 2, 3)


def test_tangent_p2_certified_on_every_cone(tangent_p2):
    report = global_compatibility(tangent_p2)
    assert report.verdict == "compatible"
    for res in report.cones:
        assert res.verdict == VERDICT_CERTIFICATE
        assert verify_cone_decomposition(tangent_p2, res.ray_indices, res.certificate) is None


def test_two_smooth_rays_never_refute():
    """Two filtrations always admit a common adapted basis; on a smooth
    two-ray cone the checker must certify every instance."""
    fan = Fan.make(2, [[1, 0], [0, 1]], [[0, 1]])
    rng = random.Random(23)
    for _ in range(40):
        data = random_filtration_data(rng, fan, rng.randint(1, 3))
        res = cone_compatibility(data, (0, 1))
        assert res.verdict == VERDICT_CERTIFICATE


def test_quadric_cone_integrality_refutation():
    """On the singular cone <(1,1),(1,-1)> a rank-one chain with odd level
    sum admits no integral character; the checker and oracle agree."""
    fan = Fan.make(2, [[1, 1], [1, -1]], [[0, 1]])
    odd = FiltrationData.make(fan, 1, [
        RayFiltration.make(1, [(1, Subspace.full(1))]),
        RayFiltration.make(1, [(0, Subspace.full(1))]),
    ])
    res = cone_compatibility(odd, (0, 1))
    assert res.verdict == VERDICT_REFUTATION
    assert res.refutation.kind == "integrality"
    assert exhaustive_adapted_search(odd, (0, 1)) is None
    even = FiltrationData.make(fan, 1, [
        RayFiltration.make(1, [(1, Subspace.full(1))]),
        RayFiltration.make(1, [(1, Subspace.full(1))]),
    ])
    assert cone_compatibility(even, (0, 1)).verdict == VERDICT_CERTIFICATE


def test_cone_not_in_fan_rejected(p2):
    data = FiltrationData.trivial(p2, 1)
    with pytest.raises(InputError):
        cone_compatibility(data, (0, 7))
    with pytest.raises(InputError):
        cone_compatibility(data, (0, 0))
    # listed rays must be the extreme rays of the cone they span
    fan = Fan.make(2, [[1, 0], [0, 1], [1, 1]], [[0, 1]])
    padded = FiltrationData.trivial(fan, 1)
    with pytest.raises(InputError):
        cone_compatibility(padded, (0, 1, 2))


def test_square_refutation_embedded_in_larger_fan(square_fan):
    """The refuting cone is named even when the fan has other, compatible
    cones."""
    fan = Fan.make(
        3,
        [[0, 0, 1], [1, 0, 1], [0, 1, 1], [1, 1, 1], [0, 0, -1]],
        [[0, 1, 2, 3], [4]],
    )
    from toricfilt.fans import validate_fan

    assert validate_fan(fan).valid
    full = Subspace.full(2)
    lines = [[1, 0], [0, 1], [1, 1], [1, 2]]
    filts = [
        RayFiltration.make(2, [(0, full), (1, span_canonical([l], 2))])
        for l in lines
    ] + [RayFiltration.trivial(2)]
    data = FiltrationData.make(fan, 2, filts)
    report = global_compatibility(data)
    assert report.verdict == "incompatible"
    assert report.cones[0].verdict == VERDICT_REFUTATION
    assert report.cones[0].ray_indices == (0, 1, 2, 3)
    assert report.cones[1].verdict == VERDICT_CERTIFICATE


def test_cube_cone_line_data_integrality():
    """Rank-one data on the 8-ray cone over the 3-cube in Z^4: the level
    assignment is realizable iff it is affine in the cube vertices."""
    verts = [(x, y, z, 1) for x in (0, 1) for y in (0, 1) for z in (0, 1)]
    fan = Fan.make(4, [list(v) for v in verts], [list(range(8))])
    assert tf_validate(fan)

    def line(levels):
        return FiltrationData.make(fan, 1, [
            RayFiltration.make(1, [(l, Subspace.full(1))]) for l in levels
        ])

    affine = [x + 2 * y + 4 * z for (x, y, z, _) in verts]
    res = cone_compatibility(line(affine), tuple(range(8)))
    assert res.verdict == VERDICT_CERTIFICATE

    warped = list(affine)
    warped[-1] += 1  # break affineness at one vertex
    res = cone_compatibility(line(warped), tuple(range(8)))
    assert res.verdict == VERDICT_REFUTATION
    assert res.refutation.kind == "integrality"


def tf_validate(fan):
    from toricfilt.fans import validate_fan

    return validate_fan(fan).valid


def test_checker_matches_oracle_randomized():
    """Verdict agreement between the two-valued checker and the exhaustive
    search on small instances, including the non-simplicial square cone."""
    fans = [
        (Fan.make(2, [[1, 0]], [[0]]), (0,)),
        (Fan.make(2, [[1, 0], [0, 1]], [[0, 1]]), (0, 1)),
        (Fan.make(2, [[1, 1], [1, -1]], [[0, 1]]), (0, 1)),
        (Fan.make(3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[0, 1, 2]]), (0, 1, 2)),
        (square_cone_fan(), (0, 1, 2, 3)),
    ]
    rng = random.Random(99)
    refuted = 0
    for _ in range(12):
        for fan, idx in fans:
            dim = rng.randint(1, 3)
            data = random_filtration_data(rng, fan, dim, index_lo=-1, index_hi=1)
            res = cone_compatibility(data, idx)
            oracle = exhaustive_adapted_search(data, idx)
            assert res.verdict in (VERDICT_CERTIFICATE, VERDICT_REFUTATION)
            if res.verdict == VERDICT_CERTIFICATE:
                assert oracle is not None
            else:
                refuted += 1
                assert oracle is None
    assert refuted > 0  # the sweep exercised both outcomes


def test_certificates_are_sound(p2):
    rng = random.Random(3)
    for _ in range(10):
        data = random_filtration_data(rng, p2, 2)
        report = global_compatibility(data)
        for res in report.cones:
            if res.certificate is not None:
                assert verify_cone_decomposition(data, res.ray_indices, res.certificate) is None


def test_verify_rejects_corrupted_certificate(tangent_p2):
    res = cone_compatibility(tangent_p2, (0, 1))
    cert = res.certificate
    # swap one piece for a wrong line
    from toricfilt.compatibility import ConeDecomposition

    broken = ConeDecomposition(cert.ray_indices, (
        (cert.pieces[0][0], span_canonical([[1, 7]])),
        cert.pieces[1],
    ))
    assert verify_cone_decomposition(tangent_p2, cert.ray_indices, broken) is not None


def test_verify_rejects_an_extra_zero_piece(tangent_p2):
    """A certificate with one more piece, the zero space of the right
    ambient under a character of a class no other piece has, is refused,
    though its nonzero pieces still rebuild every chain."""
    cert = cone_compatibility(tangent_p2, (0, 1)).certificate
    fresh = (1 + max(char[0] for char, _ in cert.pieces), 0)
    padded = ConeDecomposition(cert.ray_indices, cert.pieces + ((fresh, Subspace.zero(2)),))
    assert verify_cone_decomposition(tangent_p2, cert.ray_indices, cert) is None
    assert (verify_cone_decomposition(tangent_p2, cert.ray_indices, padded)
            == "certificate contains an empty or mismatched piece")


def test_tensor_compatibility_closure(p2):
    """Tensor of compatible data is compatible, and the merged certificate
    with summed classes verifies on every maximal cone."""
    rng = random.Random(7)
    from toricfilt.bundles import associated_klyachko

    for _ in range(5):
        a = associated_klyachko(random_split_bundle(rng, p2, 2))
        b = associated_klyachko(random_split_bundle(rng, p2, 2))
        t = tensor(a, b)
        rep_a = global_compatibility(a)
        rep_b = global_compatibility(b)
        assert rep_a.verdict == rep_b.verdict == "compatible"
        for k, idx in enumerate(p2.maximal_cones):
            merged = tensor_certificate(
                rep_a.cones[k].certificate,
                rep_b.cones[k].certificate,
                p2.cone(idx).quotient(),
            )
            assert verify_cone_decomposition(t, idx, merged) is None
        assert global_compatibility(t).verdict == "compatible"


def test_graded_decomposition_merges_repeated_characters(p2):
    """Equal characters on one cone give one piece, the sum of their
    subspaces; the pieces come sorted by character."""
    quotient = p2.maximal_cone(0).quotient()
    e1, e2, e3 = ([int(i == j) for j in range(3)] for i in range(3))
    parts = [((1, 0), span_canonical([e1], 3)), ((0, 1), span_canonical([e2], 3)),
             ((1, 0), span_canonical([e3], 3))]
    dec = graded_decomposition((0, 1), quotient, parts, 3)
    assert dec == ConeDecomposition((0, 1), (
        ((0, 1), span_canonical([e2], 3)), ((1, 0), span_canonical([e1, e3], 3))))


def test_graded_decomposition_keys_by_class_on_a_lower_cone():
    """On a one-ray maximal cone of a rank-2 fan, (1, 0) and (1, 3) differ
    by the perpendicular lattice: one piece, keyed by the canonical
    representative of their class; the tensor certificate of two such
    decompositions merges the same way."""
    fan = Fan.make(2, [[1, 0]], [[0]])
    quotient = fan.maximal_cone(0).quotient()
    rep = quotient.canonical_representative((1, 3))
    assert rep == quotient.canonical_representative((1, 0))
    lines = [span_canonical([[1, 0]], 2), span_canonical([[0, 1]], 2)]
    dec = graded_decomposition((0,), quotient, zip([(1, 0), (1, 3)], lines), 2)
    assert dec == ConeDecomposition((0,), ((rep, Subspace.full(2)),))
    split = ConeDecomposition((0,), tuple(zip([(0, 0), (0, 5)], lines)))
    merged = tensor_certificate(split, dec, quotient)
    assert merged.pieces == ((rep, Subspace.full(4)),)


def test_direct_sum_certificates_merge(p2):
    """Certificates of the summands merge: block-embedding the graded pieces
    of a and b (collecting equal classes) is itself a verified certificate of
    the direct sum."""
    from toricfilt.bundles import associated_klyachko
    from toricfilt.compatibility import ConeDecomposition
    from toricfilt.filtrations import direct_sum

    rng = random.Random(41)
    a = associated_klyachko(random_split_bundle(rng, p2, 2))
    b = associated_klyachko(random_split_bundle(rng, p2, 1))
    s = direct_sum(a, b)
    rep_a, rep_b = global_compatibility(a), global_compatibility(b)
    assert rep_a.verdict == rep_b.verdict == "compatible"

    def embed(piece, offset, total):
        rows = []
        for r in piece.basis:
            row = [0] * total
            row[offset:offset + len(r)] = list(r)
            rows.append(row)
        return rows

    for k, idx in enumerate(p2.maximal_cones):
        merged = {}
        for char, piece in rep_a.cones[k].certificate.pieces:
            merged.setdefault(char, []).extend(embed(piece, 0, 3))
        for char, piece in rep_b.cones[k].certificate.pieces:
            merged.setdefault(char, []).extend(embed(piece, 2, 3))
        dec = ConeDecomposition(tuple(idx), tuple(sorted(
            (char, span_canonical(rows, 3)) for char, rows in merged.items()
        )))
        assert verify_cone_decomposition(s, idx, dec) is None


def test_morphism_duality(p2):
    rng = random.Random(31)
    from toricfilt.bundles import associated_klyachko

    for _ in range(8):
        a = associated_klyachko(random_split_bundle(rng, p2, 2))
        b = associated_klyachko(random_split_bundle(rng, p2, 2))
        phi = QMatrix.from_rows(
            [[rng.randint(-2, 2) for _ in range(2)] for _ in range(2)]
        )
        forward = check_morphism(phi, a, b)
        backward = check_morphism(transpose(phi), dual(b), dual(a))
        assert forward == backward


def _full_flag(rng, basis):
    """The full flag at indices 0..dim-1 whose value at i is spanned by the
    first dim - i rows of `basis`, taken in a random order."""
    rows = [list(row) for row in basis]
    rng.shuffle(rows)
    dim = len(rows)
    return RayFiltration.make(dim, [(i, span_canonical(rows[:dim - i], dim))
                                    for i in range(dim)])


def _full_flag_data(rng, fan, dim, shared):
    """Full flags on every ray: generic ones, or, when `shared`, flags of
    one common basis in a different order on each ray, whose pieces have
    successors to sum."""
    common = random_invertible_matrix(rng, dim, -3, 3).entries
    return FiltrationData.make(fan, dim, [
        _full_flag(rng, common if shared else random_invertible_matrix(rng, dim, -3, 3).entries)
        for _ in fan.rays])


def _spied_fallback(monkeypatch):
    """Spies on the complements of `graded_pieces`, each of which also
    sums its inner spaces when there are two or more: the log gets
    ("sum", number of inner spaces) for such a sum, then ("complement",
    dimension of the piece)."""
    log = []

    def complemented(inners, outer):
        if len(inners) >= 2:
            log.append(("sum", len(inners)))
        piece = linalg.complement_in(inners, outer)
        log.append(("complement", piece.dim))
        return piece

    monkeypatch.setattr(compatibility, "complement_in", complemented)
    return log


def test_graded_pieces_match_reference(monkeypatch):
    """The dimension shortcuts change no piece: on P^2, P^3 and the square
    cone at fiber dimensions 2-10, on full flags on P^3 and the square cone,
    and on the torus universe of random and split bundles, the pieces equal
    those of the reference engine, which sums and complements at every
    tuple.  The grids of three and four rays reach the fallback after the
    pair count, with sums of up to four successors, and with zero pieces
    that no pair spans."""
    log = _spied_fallback(monkeypatch)
    rng = random.Random(31)
    nonzero = 0
    for fan in (p2_fan(), P3, square_cone_fan()):
        for dim in range(2, 11):
            data = random_filtration_data(rng, fan, dim)
            for idx in fan.maximal_cones:
                filts, tuples = _grid(data, idx)
                pieces = graded_pieces(filts, tuples, dim)
                assert pieces == reference_graded_pieces(filts, tuples, dim)
                nonzero += sum(p.dim > 0 for p in pieces.values())
    assert nonzero > 0
    for fan, dims in ((P3, range(2, 7)), (square_cone_fan(), range(2, 6))):
        for dim in dims:
            for shared in (False, True):
                data = _full_flag_data(rng, fan, dim, shared)
                for idx in fan.maximal_cones:
                    filts, tuples = _grid(data, idx)
                    assert (graded_pieces(filts, tuples, dim)
                            == reference_graded_pieces(filts, tuples, dim))
    assert ("complement", 0) in log
    assert max(n for kind, n in log if kind == "sum") >= 3
    universes = 0
    for _ in range(12):
        for fan in (p1_fan(), p2_fan()):
            for data in (random_bundle(rng, fan, rng.randint(1, 3), -1, 1),
                         random_split_bundle(rng, fan, rng.randint(1, 3))):
                if not check_gluing(data).glues:
                    continue
                kly = associated_klyachko(data)
                universe = _realized_tuples(data)
                assert (graded_pieces(kly.filtrations, universe, kly.dim)
                        == reference_graded_pieces(kly.filtrations, universe, kly.dim))
                universes += bool(universe)
    assert universes > 0


def test_graded_pieces_sum_and_complement_only_nonzero_pieces(monkeypatch):
    """On two rays the pair count decides every zero piece: on generic and
    shared-basis full flags on P^2 at fiber dimensions 4-8, `graded_pieces`
    takes one complement exactly for each nonzero piece smaller than W(t),
    none for a zero piece, and a sum only right before such a complement."""
    log = _spied_fallback(monkeypatch)
    rng = random.Random(97)
    fan = p2_fan()
    zero = sums = 0
    for dim in range(4, 9):
        for shared in (False, True):
            data = _full_flag_data(rng, fan, dim, shared)
            for idx in fan.maximal_cones:
                filts, tuples = _grid(data, idx)
                del log[:]
                pieces = graded_pieces(filts, tuples, dim)
                wholes = {t: linalg.intersect_all([f.value(i) for f, i in zip(filts, t)], dim)
                          for t in tuples}
                assert sorted(n for kind, n in log if kind == "complement") == sorted(
                    pieces[t].dim for t in tuples if 0 < pieces[t].dim < wholes[t].dim)
                kinds = [kind for kind, _ in log]
                assert all(kinds[i + 1:i + 2] == ["complement"]
                           for i, kind in enumerate(kinds) if kind == "sum")
                sums += kinds.count("sum")
                zero += sum(pieces[t].dim == 0 < wholes[t].dim for t in tuples)
    assert zero > 100 and sums > 10


def _corruptions(rng, cert, dim):
    """Certificates broken in the five ways the verifier must name."""
    pieces = list(cert.pieces)
    k = rng.randrange(len(pieces))
    l = (k + 1) % len(pieces)
    char, piece = pieces[k]
    j0, step = rng.randrange(len(char)), rng.choice([-1, 1])
    moved = tuple(c + step * (j == j0) for j, c in enumerate(char))
    yield "moved", pieces[:k] + [(moved, piece)] + pieces[k + 1:]
    yield "swapped", (pieces[:k] + [(char, random_subspace(rng, dim, piece.dim))]
                      + pieces[k + 1:])
    exchanged = list(pieces)
    exchanged[k], exchanged[l] = (pieces[k][0], pieces[l][1]), (pieces[l][0], pieces[k][1])
    yield "exchanged", exchanged
    yield "dropped", pieces[:k] + pieces[k + 1:]
    yield "duplicated", pieces[:l] + [(char, pieces[l][1])] + pieces[l + 1:]


def test_verifier_reasons_match_reference_on_corrupted_certificates():
    """Each corrupted certificate gets the same reason (or None) from the
    count-and-product verifier as from the reference, which rebuilds every
    chain as a sum of pieces."""
    rng = random.Random(37)
    reasons = {}
    checked = 0
    for n in range(40):
        fan = (p2_fan(), P3, square_cone_fan())[n % 3]
        dim = 2 + n % 4
        data = (random_filtration_data(rng, fan, dim, index_lo=-1, index_hi=1)
                if n % 2 else associated_klyachko(random_split_bundle(rng, p2_fan(), dim)))
        for res in global_compatibility(data).cones:
            cert = res.certificate
            if cert is None or len(cert.pieces) < 2:
                continue
            for kind, pieces in _corruptions(rng, cert, data.dim):
                dec = ConeDecomposition(cert.ray_indices, tuple(pieces))
                got = verify_cone_decomposition(data, cert.ray_indices, dec)
                assert got == reference_verify_cone_decomposition(data, cert.ray_indices, dec)
                reasons.setdefault(kind, set()).add(got.split(" on ray")[0] if got else None)
                checked += 1
    assert checked > 100
    assert "reconstruction fails" in reasons["swapped"] & reasons["exchanged"]
    assert reasons["dropped"] == {"piece dimensions do not add up to the fiber dimension"}
    assert reasons["duplicated"] == {"character classes are not pairwise distinct"}


def _not_nested_data(fan):
    """Data of dimension 3 whose chain on ray 1 jumps from a plane to a line
    outside it."""
    full = Subspace.full(3)
    bad = RayFiltration.make(3, [(0, full), (1, span_canonical([[1, 0, 0], [0, 1, 0]])),
                                 (2, span_canonical([[0, 0, 1]]))])
    return FiltrationData.make(fan, 3, [RayFiltration.trivial(3), bad]
                               + [RayFiltration.trivial(3)] * (len(fan.rays) - 2))


def test_not_nested_chain_raises_input_error(p2):
    data = _not_nested_data(p2)
    with pytest.raises(InputError, match="not nested"):
        cone_compatibility(data, (0, 1))
    with pytest.raises(InputError, match="not nested"):
        global_compatibility(data)


def test_not_nested_chain_names_its_fan_ray(p2):
    """The refusal names the fan ray of the chain, not its position in the
    cone, with the message of the calculus: on the cone of rays 1 and 2 of
    P^2 the bad chain is the second, on fan ray 2."""
    bad = _not_nested_data(p2).ray(1)
    data = FiltrationData.make(p2, 3, [RayFiltration.trivial(3)] * 2 + [bad])
    with pytest.raises(InputError, match="^the chain on ray 2 is not nested: its subspace at "
                                         "index 2 does not lie in the one at 1$"):
        cone_compatibility(data, (1, 2))


def test_not_nested_chain_cli_exits_two(p2, tmp_path, capsys):
    """The CLI validates before it decides, so `compat` keeps its message."""
    import json

    from toricfilt.cli import main
    from toricfilt.serialize import filtration_to_obj

    path = tmp_path / "data.json"
    path.write_text(json.dumps(filtration_to_obj(_not_nested_data(p2))), encoding="utf-8")
    code = main(["compat", str(path)])
    out = capsys.readouterr().out
    assert code == 2
    assert json.loads(out)["error"] == "filtration data fails validation; run validate-filt"


def test_associated_chains_are_nested():
    rng = random.Random(43)
    checked = 0
    for _ in range(20):
        for fan in (p1_fan(), p2_fan()):
            data = random_bundle(rng, fan, rng.randint(1, 4))
            if check_gluing(data).glues:
                for i, f in enumerate(associated_klyachko(data).filtrations):
                    f.require_valid(i)
                checked += 1
            for i, f in enumerate(associated_klyachko(random_split_bundle(rng, fan, 3)).filtrations):
                f.require_valid(i)
    assert checked > 0


def test_graded_pieces_take_no_kernel(monkeypatch):
    """Once `validate` has cached the annihilators that the nesting check
    reads, the pieces of P^2, P^3 and square-cone grids take no kernel:
    every meet comes from a line sweep, and every complement from the
    insertion pass of `complement_in`.  The pieces are computed here for
    the first time, so no cache left by an earlier run hides a kernel;
    `test_graded_pieces_match_reference` checks their values."""
    rng = random.Random(73)
    grids = []
    for fan in (p2_fan(), P3, square_cone_fan()):
        for dim in range(2, 9):
            data = random_filtration_data(rng, fan, dim)
            assert validate(data).valid
            grids += [(_grid(data, idx), dim) for idx in fan.maximal_cones]
    kernels, sweeps = [], []

    def no_kernel(mat, n):
        kernels.append(n)
        raise AssertionError("kernel taken")

    def counted(space, levelled):
        sweeps.append(space.dim)
        return levelled_meets(space, levelled)

    monkeypatch.setattr(linalg, "_kernel", no_kernel)
    monkeypatch.setattr(compatibility, "levelled_meets", counted)
    nonzero = sum(piece.dim > 0 for (filts, tuples), dim in grids
                  for piece in graded_pieces(filts, tuples, dim).values())
    assert kernels == [] and len(sweeps) > 50 and nonzero > 50


def test_line_prefixes_take_no_sweep(monkeypatch, tangent_p2_bundle):
    """A prefix meet that is a line is settled by reducing its row against
    the chain's values (`linalg._held`), with no sweep: on generic flags
    on P^2 at fiber dimensions 2-8, on split data on P^3 and on the torus
    universes of split and moved tangent bundles, the pieces equal those
    of the reference engine, and `levelled_meets` never gets a
    one-dimensional space."""
    swept, reduced = [], []

    def counted_meets(space, levelled):
        swept.append(space.dim)
        return levelled_meets(space, levelled)

    def counted_held(space, rows):
        reduced.append(space.dim)
        return linalg._held(space, rows)

    monkeypatch.setattr(compatibility, "levelled_meets", counted_meets)
    monkeypatch.setattr(compatibility, "_held", counted_held)
    rng = random.Random(53)
    fan = p2_fan()
    grids = []
    for dim in range(2, 9):
        data = random_filtration_data(rng, fan, dim)
        grids += [(*_grid(data, idx), dim) for idx in fan.maximal_cones]
    split = associated_klyachko(random_split_bundle(rng, P3, 4))
    grids += [(*_grid(split, idx), 4) for idx in P3.maximal_cones]
    h = random_invertible_matrix(rng, 2)
    moved = CocharBundleData.make(tangent_p2_bundle.group, tangent_p2_bundle.fan,
                                  [reference_product(h, f) for f in tangent_p2_bundle.frames],
                                  tangent_p2_bundle.chars)
    for bundle in (random_split_bundle(rng, fan, 3), random_split_bundle(rng, P3, 3), moved):
        kly = associated_klyachko(bundle)
        grids.append((kly.filtrations, _realized_tuples(bundle), kly.dim))
    for filts, tuples, dim in grids:
        assert graded_pieces(filts, tuples, dim) == reference_graded_pieces(filts, tuples, dim)
    assert 1 not in swept and len(swept) > 20 and len(reduced) > 20


def test_character_solver_permutes_to_the_cone_generators():
    """The cone's cached solver, whose rows are its generators sorted by
    value, answers for the rays in cone order: a returned character pairs
    to t_k with ray k, and None comes exactly when the rays' own system has
    no integral solution.  A cone that repeats a ray is solved as listed."""
    rng = random.Random(79)
    twice = Fan.make(2, [[1, 0], [0, 1], [1, 0]], [[0, 1, 2]])
    data = {fan: FiltrationData.trivial(fan, 1) for fan in (P3, square_cone_fan(), twice)}
    answered = unsolvable = 0
    for fan, d in data.items():
        for idx in fan.maximal_cones:
            rows = [fan.rays[i] for i in idx]
            solve = _character_solver(d, idx)
            for _ in range(40):
                t = tuple(rng.randint(-3, 3) for _ in idx)
                u = solve(t)
                assert (u is None) == (solve_integer(rows, t) is None)
                if u is None:
                    unsolvable += 1
                else:
                    assert tuple(sum(a * b for a, b in zip(u, r)) for r in rows) == t
                    answered += 1
    assert answered > 50 and unsolvable > 50


def test_second_run_on_reloaded_fan_takes_no_smith_form(monkeypatch):
    """Each cone's quotient and integer solver are cached on the cone, which
    `fans.cone_from_generators` caches by value: a second
    `global_compatibility` on a freshly loaded copy of the same data runs
    no Smith form, and its report is the same."""
    obj = filtration_to_obj(random_filtration_data(random.Random(83), P3, 3))
    first = global_compatibility(filtration_from_obj(obj))
    forms = []

    def counted(a):
        forms.append(a)
        return smith_normal_form(a)

    monkeypatch.setattr(lattice, "smith_normal_form", counted)
    monkeypatch.setattr(fans, "smith_normal_form", counted)
    assert global_compatibility(filtration_from_obj(obj)) == first
    assert forms == []
    cone = P3.maximal_cone(0)
    assert cone.quotient() is cone.quotient()
    assert cone.integer_solver() is cone.integer_solver()


def test_chains_and_cones_are_set_up_once_per_check(monkeypatch):
    """On P^3 every ray lies in three maximal cones.  Each chain's issues
    are decided at most once: for loaded data by `FiltrationData.make`,
    and for the chains of bundle data, which record when they are built
    that they are valid and so pass the reconstruction test of the ray
    consistency deciding none, by the first cone set-up that asks for
    them.  After one `global_compatibility` run every chain's issues are
    decided, and the run has built each chain's sweep rows once, kept on
    the chain, and looked each cone up once (`Fan.cone`); a second run on
    the same data decides no issue and builds no rows.  A chain that is
    not nested is refused with the same `_not_nested` text, ray and pair
    on every call, from every cone that lists its ray and from `dual`, and
    its issues are decided once."""
    walks, sweeps, lookups = [], [], []
    walk = RayFiltration.__dict__["issues"].__wrapped__
    adapted_rows, cone = RayFiltration.adapted_rows, Fan.cone

    def issues(f):
        walks.append(id(f))
        return walk(f)

    def counted_rows(f):
        sweeps.append(id(f))
        return adapted_rows(f)

    def counted_cone(fan, idx):
        lookups.append(tuple(idx))
        return cone(fan, idx)

    monkeypatch.setattr(RayFiltration, "issues", linalg.cached_on_instance(issues))
    monkeypatch.setattr(RayFiltration, "adapted_rows", counted_rows)
    monkeypatch.setattr(Fan, "cone", counted_cone)
    rng = random.Random(97)
    for build, verdict, loaded in (
            (lambda: random_filtration_data(rng, P3, 4), "incompatible", True),
            (lambda: associated_klyachko(random_split_bundle(rng, P3, 4)), "compatible", False)):
        walks.clear(), sweeps.clear(), lookups.clear()
        data = build()
        chains = sorted(id(f) for f in data.filtrations)
        assert sorted(walks) == (chains if loaded else [])
        report = global_compatibility(data)
        assert report.verdict == verdict
        assert sorted(walks) == chains
        assert len(sweeps) > 1 and len(set(sweeps)) == len(sweeps) and set(sweeps) <= set(chains)
        assert lookups == list(P3.maximal_cones)
        walks.clear(), sweeps.clear(), lookups.clear()
        assert global_compatibility(data) == report
        assert walks == [] and sweeps == [] and lookups == list(P3.maximal_cones)

    bad = _not_nested_data(P3)
    message = ("^the chain on ray 1 is not nested: its subspace at index 2 does not lie "
               "in the one at 1$")
    for idx in ((0, 1, 2), (0, 1, 3), (1, 2, 3), (0, 1, 2)):
        with pytest.raises(InputError, match=message):
            cone_compatibility(bad, idx)
    with pytest.raises(InputError, match=message):
        dual(bad)
    assert walks.count(id(bad.ray(1))) == 1


def test_verifier_tests_each_piece_once_per_ray(monkeypatch):
    """On the seeded P^3 split data of
    `test_chains_and_cones_are_set_up_once_per_check`, a second
    `global_compatibility` run tests each certificate piece for
    containment once per ray of its cone: each ray's reconstruction test
    hands every row of the cone's pieces to the one containment rule
    (`linalg._held`, spied on where `filtrations` binds it) exactly once,
    since the counted pass tests a piece only in the value at its own
    level and no probe scan follows."""
    rng = random.Random(97)
    random_filtration_data(rng, P3, 4)
    data = associated_klyachko(random_split_bundle(rng, P3, 4))
    report = global_compatibility(data)
    assert report.verdict == "compatible"
    tested = []
    held, rebuild = filtrations._held, RayFiltration.reconstruction_failure

    def counted(value, rows):
        tested[-1].extend(rows)
        return held(value, rows)

    def per_ray(chain, pieces, levels):
        tested.append([])
        return rebuild(chain, pieces, levels)

    monkeypatch.setattr(filtrations, "_held", counted)
    monkeypatch.setattr(RayFiltration, "reconstruction_failure", per_ray)
    assert global_compatibility(data) == report
    expected = [sorted(row for _, piece in c.certificate.pieces for row in piece.rows)
                for c in report.cones for _ in c.ray_indices]
    assert [sorted(rows) for rows in tested] == expected
    assert sum(len(c.certificate.pieces) * len(c.ray_indices) for c in report.cones) == 48


def test_graded_pieces_of_chains_that_are_not_full():
    """A chain whose first value is a proper subspace (which `validate`
    rejects) is swept over all of its values: with the first jump of every
    chain dropped, the pieces still equal those of the reference engine."""
    rng = random.Random(89)
    swept = 0
    for fan in (p2_fan(), P3, square_cone_fan()):
        for dim in range(2, 7):
            data = random_filtration_data(rng, fan, dim)
            cut = [RayFiltration.make(dim, f.jumps[1:]) for f in data.filtrations]
            for idx in fan.maximal_cones:
                filts = [cut[i] for i in idx]
                if not all(f.jumps for f in filts):
                    continue
                tuples = sorted(itertools.product(*[f.jump_indices() for f in filts]))
                assert (graded_pieces(filts, tuples, dim)
                        == reference_graded_pieces(filts, tuples, dim))
                swept += 1
    assert swept > 10
