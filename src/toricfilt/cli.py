"""Command-line front end.

All machine-readable output goes to standard output as JSON with a fixed key
order; one-line human summaries go to standard error.  Exit codes:

    0  check passed / operation succeeded
    1  check failed (negative mathematical verdict, witness included)
    2  malformed input or violated operation precondition
   70  internal error (an unexpected exception; traceback on stderr)

Every verdict is definitive: the compatibility checker answers with a
certificate or a refutation, and torus reduction with a splitting or
NONE-FOUND.
"""

from __future__ import annotations

import argparse
import random
import sys
import traceback
from typing import List, Optional

from . import algebras, bundles, compatibility, filtrations, reduction, sampling
from .errors import InputError, PreconditionError
from .fans import validate_fan
from .serialize import (
    bundle_to_obj,
    decomposition_to_obj,
    dump_report,
    filtration_to_obj,
    jsonable,
    load_bundle,
    load_fan,
    load_filtration,
    load_matrix,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_BAD_INPUT = 2
EXIT_INTERNAL = 70  # sysexits EX_SOFTWARE


def _emit(report: dict, summary: str, code: int) -> int:
    sys.stdout.write(dump_report(report))
    sys.stderr.write(summary + "\n")
    return code


def cmd_validate_fan(args) -> int:
    report = validate_fan(load_fan(args.fan))
    obj = {
        "command": "validate-fan",
        "valid": report.valid,
        "top_dimensional": report.top_dimensional,
        "issues": [jsonable(i) for i in report.issues],
    }
    summary = "fan valid" if report.valid else "fan INVALID"
    summary += ", all maximal cones top-dimensional" if report.top_dimensional \
        else ", some maximal cone is not top-dimensional"
    return _emit(obj, summary, EXIT_OK if report.valid else EXIT_FAIL)


def cmd_validate_filt(args) -> int:
    report = filtrations.validate(load_filtration(args.data))
    obj = {
        "command": "validate-filt",
        "valid": report.valid,
        "issues": [jsonable(i) for i in report.issues],
    }
    return _emit(obj, "filtration data valid" if report.valid else "filtration data INVALID",
                 EXIT_OK if report.valid else EXIT_FAIL)


def _cone_result_obj(res: compatibility.ConeCompatibility) -> dict:
    obj = {
        "rays": list(res.ray_indices),
        "verdict": res.verdict,
        "certificate": decomposition_to_obj(res.certificate) if res.certificate else None,
        "refutation": None,
    }
    if res.refutation is not None:
        obj["refutation"] = {"kind": res.refutation.kind,
                             "detail": jsonable(res.refutation.detail)}
    return obj


_COMPAT_EXIT = {
    compatibility.VERDICT_CERTIFICATE: EXIT_OK,
    compatibility.VERDICT_REFUTATION: EXIT_FAIL,
}


def cmd_compat(args) -> int:
    data = load_filtration(args.data)
    report = filtrations.validate(data)
    if not report.valid:
        raise PreconditionError("filtration data fails validation; run validate-filt")
    if args.cone is not None:
        if not 0 <= args.cone < len(data.fan.maximal_cones):
            raise InputError("maximal cone index out of range")
        res = compatibility.cone_compatibility(data, data.fan.maximal_cones[args.cone])
        obj = {"command": "compat", "verdict": res.verdict,
               "cones": [{"cone": args.cone, **_cone_result_obj(res)}]}
        return _emit(obj, f"cone {args.cone}: {res.verdict}", _COMPAT_EXIT[res.verdict])
    glob = compatibility.global_compatibility(data)
    obj = {
        "command": "compat",
        "verdict": glob.verdict,
        "cones": [
            {"cone": k, **_cone_result_obj(res)} for k, res in enumerate(glob.cones)
        ],
    }
    return _emit(obj, f"global compatibility: {glob.verdict}",
                 EXIT_OK if glob.verdict == "compatible" else EXIT_FAIL)


def cmd_tensor(args) -> int:
    result = filtrations.tensor(load_filtration(args.a), load_filtration(args.b))
    return _emit(filtration_to_obj(result), "tensor product computed", EXIT_OK)


def cmd_dual(args) -> int:
    result = filtrations.dual(load_filtration(args.a))
    return _emit(filtration_to_obj(result), "dual computed", EXIT_OK)


def cmd_dsum(args) -> int:
    result = filtrations.direct_sum(load_filtration(args.a), load_filtration(args.b))
    return _emit(filtration_to_obj(result), "direct sum computed", EXIT_OK)


def cmd_morphism(args) -> int:
    phi = load_matrix(args.matrix)
    a = load_filtration(args.a)
    b = load_filtration(args.b)
    failure = filtrations.morphism_failure(phi, a, b)
    obj = {"command": "morphism", "is_morphism": failure is None,
           "witness": jsonable(failure)}
    return _emit(obj, "morphism respects filtrations" if failure is None
                 else "NOT a morphism of filtered data",
                 EXIT_OK if failure is None else EXIT_FAIL)


def cmd_validate_bundle(args) -> int:
    report = bundles.validate_bundle(load_bundle(args.bundle))
    obj = {
        "command": "validate-bundle",
        "valid": report.valid,
        "issues": [jsonable(i) for i in report.issues],
    }
    return _emit(obj, "bundle data valid" if report.valid else "bundle data INVALID",
                 EXIT_OK if report.valid else EXIT_FAIL)


def _require_valid_bundle(path: str) -> bundles.CocharBundleData:
    data = load_bundle(path)
    report = bundles.validate_bundle(data)
    if not report.valid:
        raise PreconditionError("bundle data fails validation; run validate-bundle")
    # a maximal cone containing a line keeps the cone factory's own message
    for k in range(len(data.fan.maximal_cones)):
        data.fan.maximal_cone(k)
    if not validate_fan(data.fan).valid:
        raise PreconditionError("bundle fan fails validation; run validate-fan")
    return data


def cmd_glue(args) -> int:
    data = _require_valid_bundle(args.bundle)
    report = bundles.check_gluing(data)
    obj = {"command": "glue", "glues": report.glues,
           "witness": jsonable(report.witness)}
    return _emit(obj, "transitions glue" if report.glues else "gluing FAILS",
                 EXIT_OK if report.glues else EXIT_FAIL)


def cmd_assoc(args) -> int:
    data = _require_valid_bundle(args.bundle)
    try:
        result = bundles.associated_klyachko(data)
    except bundles.RayConsistencyError as exc:
        obj = {"command": "assoc", "error": "ray-consistency",
               "witness": jsonable(exc.witness)}
        return _emit(obj, "ray chains inconsistent across cones", EXIT_FAIL)
    return _emit(filtration_to_obj(result), "associated filtration data computed", EXIT_OK)


def cmd_algebra_check(args) -> int:
    data = _require_valid_bundle(args.bundle)
    if args.cone is not None:
        if not 0 <= args.cone < len(data.fan.maximal_cones):
            raise InputError("maximal cone index out of range")
        indices = [args.cone]
    else:
        indices = list(range(len(data.fan.maximal_cones)))
    cones = []
    all_ok = True
    for k in indices:
        alg = algebras.build_truncation(data, k, args.degree)
        mult_ok, mult_wit = algebras.check_multiplicative(alg)
        comp_ok, comp_wit, dims = algebras.check_compatible_algebra(alg)
        coact_ok, coact_wit = algebras.check_coaction_commutes(alg)
        all_ok = all_ok and mult_ok and comp_ok and coact_ok
        cones.append({
            "cone": k,
            "degree": args.degree,
            "multiplicative": mult_ok,
            "compatible": comp_ok,
            "coaction_commutes": coact_ok,
            "piece_dimensions": [
                {"class": list(c), "dim": d} for c, d in sorted(dims.items())
            ],
            "witness": jsonable(mult_wit or comp_wit or coact_wit),
        })
    obj = {"command": "algebra-check", "ok": all_ok, "cones": cones}
    return _emit(obj, "algebra axioms hold" if all_ok else "algebra axioms FAIL",
                 EXIT_OK if all_ok else EXIT_FAIL)


def cmd_reduce(args) -> int:
    data = _require_valid_bundle(args.bundle)
    if args.to == "sl":
        res = reduction.check_sl_reduction(data)
        obj = {
            "command": "reduce",
            "target": "sl",
            "verdict": res.verdict,
            "witness": None,
            "sl_presentation": bundle_to_obj(res.sl_presentation)
            if res.sl_presentation else None,
        }
        if res.verdict != reduction.SL_REDUCES:
            obj["witness"] = {"cone": res.failing_cone,
                              "character_sum": list(res.character_sum)}
        return _emit(obj, f"SL reduction: {res.verdict}",
                     EXIT_OK if res.verdict == reduction.SL_REDUCES else EXIT_FAIL)
    res = reduction.check_torus_reduction(data)
    obj = {
        "command": "reduce",
        "target": "torus",
        "verdict": res.verdict,
        "lines": [list(l) for l in res.lines] if res.lines else None,
        "line_levels": [list(l) for l in res.line_levels] if res.line_levels else None,
        "universe_size": res.universe_size,
        "note": "complete: the universe holds every all-ray level tuple that "
                "restricts to a character's levels on each maximal cone, and "
                "so the level tuples of any splitting into rank-one summands",
    }
    return _emit(obj, f"torus reduction: {res.verdict}",
                 EXIT_OK if res.verdict == reduction.TORUS_REDUCES else EXIT_FAIL)


def _selftest_checks(seed: int) -> dict:
    from .filtrations import dual
    from .linalg import intersect, subspace_sum
    from .serialize import bundle_from_obj, filtration_from_obj

    rng = random.Random(seed)
    results = {}

    ok = True
    for _ in range(25):
        dim = rng.randint(1, 4)
        a = sampling.random_subspace(rng, dim, rng.randint(0, dim))
        b = sampling.random_subspace(rng, dim, rng.randint(0, dim))
        ok = ok and (a.dim + b.dim ==
                     subspace_sum(a, b).dim + intersect(a, b).dim)
    results["dimension_formula"] = ok

    ok = True
    for _ in range(10):
        data = sampling.random_filtration_data(rng, sampling.p2_fan(), rng.randint(1, 3))
        ok = ok and dual(dual(data)) == data
    results["dual_involution"] = ok

    ok = True
    for _ in range(5):
        data = sampling.random_filtration_data(rng, sampling.p2_fan(), 2)
        ok = ok and filtration_from_obj(filtration_to_obj(data)) == data
        bdl = sampling.random_bundle(rng, sampling.p1_fan(), 2)
        ok = ok and bundle_from_obj(bundle_to_obj(bdl)) == bdl
    results["serialization_round_trip"] = ok

    return results


def cmd_selftest(args) -> int:
    checks = _selftest_checks(args.seed)
    ok = all(checks.values())
    obj = {"command": "selftest", "seed": args.seed, "checks": checks, "ok": ok}
    return _emit(obj, "selftest passed" if ok else "selftest FAILED",
                 EXIT_OK if ok else EXIT_FAIL)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toricfilt",
        description="Exact checks for equivariant principal-bundle data on toric fans",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate-fan", help="validate a fan file")
    p.add_argument("fan")
    p.set_defaults(func=cmd_validate_fan)

    p = sub.add_parser("validate-filt", help="validate filtration data")
    p.add_argument("data")
    p.set_defaults(func=cmd_validate_filt)

    p = sub.add_parser("compat", help="per-cone compatibility with certificates")
    p.add_argument("data")
    p.add_argument("--cone", type=int, default=None,
                   help="check a single maximal cone (by index)")
    p.set_defaults(func=cmd_compat)

    p = sub.add_parser("tensor", help="tensor product of two filtration files")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(func=cmd_tensor)

    p = sub.add_parser("dual", help="dual filtration data")
    p.add_argument("a")
    p.set_defaults(func=cmd_dual)

    p = sub.add_parser("dsum", help="direct sum of two filtration files")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(func=cmd_dsum)

    p = sub.add_parser("morphism", help="check a matrix is a morphism of filtered data")
    p.add_argument("matrix")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(func=cmd_morphism)

    p = sub.add_parser("validate-bundle", help="validate bundle data")
    p.add_argument("bundle")
    p.set_defaults(func=cmd_validate_bundle)

    p = sub.add_parser("glue", help="check that both transition directions are regular on "
                                    "every overlap, decided on the frame changes")
    p.add_argument("bundle")
    p.set_defaults(func=cmd_glue)

    p = sub.add_parser("assoc", help="associated filtration data of the standard representation")
    p.add_argument("bundle")
    p.set_defaults(func=cmd_assoc)

    p = sub.add_parser("algebra-check", help="truncated coordinate-algebra axioms")
    p.add_argument("bundle")
    p.add_argument("--degree", type=int, default=algebras.DEFAULT_DEGREE)
    p.add_argument("--cone", type=int, default=None)
    p.set_defaults(func=cmd_algebra_check)

    p = sub.add_parser("reduce", help="equivariant reduction of structure group")
    p.add_argument("bundle")
    p.add_argument("--to", choices=["sl", "torus"], required=True)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("selftest", help="randomized property self-checks")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, PreconditionError) as exc:
        sys.stdout.write(dump_report({"command": args.command, "error": str(exc)}))
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_BAD_INPUT
    except Exception as exc:
        # a crash must never read as exit 1, the negative-verdict code
        sys.stdout.write(dump_report({
            "command": args.command,
            "error": f"internal error: {type(exc).__name__}: {exc}",
        }))
        traceback.print_exc()
        return EXIT_INTERNAL


def _script() -> None:
    sys.exit(main())


if __name__ == "__main__":
    _script()
