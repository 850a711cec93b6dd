import random

import pytest

from oracle import exhaustive_adapted_search
from toricfilt import compatibility
from toricfilt.compatibility import (
    VERDICT_CERTIFICATE,
    VERDICT_REFUTATION,
    cone_compatibility,
    global_compatibility,
    tensor_certificate,
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
)
from toricfilt.linalg import QMatrix, Subspace, span_canonical
from toricfilt.sampling import (
    random_filtration_data,
    random_split_bundle,
    square_cone_fan,
)


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
    assert res.refutation.kind == "distributivity"
    # oracle: exhaustive search over adapted decompositions finds none
    assert exhaustive_adapted_search(four_lines, (0, 1, 2, 3)) is None


def test_reconstruction_refutation_agrees_with_oracle(monkeypatch):
    """Three distinct lines in Q^2 on a smooth cone: every tuple is integral,
    so with the distributivity scan silenced the dimension count refutes."""
    fan = Fan.make(3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[0, 1, 2]])
    full = Subspace.full(2)
    data = FiltrationData.make(fan, 2, [
        RayFiltration.make(2, [(0, full), (1, span_canonical([l], 2))])
        for l in ([1, 0], [0, 1], [1, 1])
    ])
    assert cone_compatibility(data, (0, 1, 2)).refutation.kind == "distributivity"
    monkeypatch.setattr(compatibility, "_distributivity_witness", lambda *args: None)
    res = cone_compatibility(data, (0, 1, 2))
    assert res.verdict == VERDICT_REFUTATION
    assert res.refutation.kind == "reconstruction"
    assert res.refutation.detail == {"rays": [0, 1, 2], "graded_dim": 3, "fiber_dim": 2}
    assert exhaustive_adapted_search(data, (0, 1, 2)) is None


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
        backward = check_morphism(phi.transpose(), dual(b), dual(a))
        assert forward == backward
