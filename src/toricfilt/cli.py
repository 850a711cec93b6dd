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

One table, `COMMANDS`, drives both the parser and dispatch: each row gives a
subcommand's name, help, handler, positional names and options.  `main` calls
the handler with the parsed arguments and the values of the row's
positionals, in order.  `validate-fan`, `validate-filt` and `validate-bundle`
share `cmd_validate` (a loader, a validator and a noun per row), and `tensor`,
`dual` and `dsum` share `cmd_calculus` (an operation and a summary per row).
Every verdict reaches its exit code through `_verdict`, and `--cone` is
range-checked by `Fan.maximal_cone`.
"""

from __future__ import annotations

import argparse
import sys
from functools import partial
from typing import List, Optional

from . import algebras, bundles, compatibility, filtrations, reduction
from .errors import InputError, PreconditionError
from .fans import validate_fan
from .serialize import (
    bundle_to_obj,
    decomposition_to_obj,
    dump_report,
    filtration_to_obj,
    load_bundle,
    load_fan,
    load_filtration,
    load_matrix,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_BAD_INPUT = 2
EXIT_INTERNAL = 70  # sysexits EX_SOFTWARE


def _emit(report: dict, summary: str, code: int = EXIT_OK) -> int:
    sys.stdout.write(dump_report(report))
    sys.stderr.write(summary + "\n")
    return code


def _verdict(report: dict, ok: bool, passed: str, failed: str) -> int:
    """Emit a checking command's report: exit 0 with the `passed` summary
    when the check holds, exit 1 with `failed` when it does not."""
    return _emit(report, passed if ok else failed, EXIT_OK if ok else EXIT_FAIL)


def _fields(rec) -> dict:
    """A record's fields, in declaration order, as report entries."""
    return {f: getattr(rec, f) for f in rec._fields}


def _cone_indices(fan, cone: Optional[int]) -> List[int]:
    """The maximal cones a command runs on: every one, or the one `--cone`
    names, which `Fan.maximal_cone` range-checks."""
    if cone is None:
        return list(range(len(fan.maximal_cones)))
    fan.maximal_cone(cone)
    return [cone]


def cmd_validate(load, validate, noun: str, args, path: str) -> int:
    report = validate(load(path))
    top = getattr(report, "top_dimensional", None)
    clause = "" if top is None else ", all maximal cones top-dimensional" if top \
        else ", some maximal cone is not top-dimensional"
    return _verdict({"command": args.command, **_fields(report)}, report.valid,
                    f"{noun} valid{clause}", f"{noun} INVALID{clause}")


def _cone_result_obj(res: compatibility.ConeCompatibility) -> dict:
    return {
        "rays": list(res.ray_indices),
        "verdict": res.verdict,
        "certificate": decomposition_to_obj(res.certificate) if res.certificate else None,
        "refutation": _fields(res.refutation) if res.refutation else None,
    }


def cmd_compat(args, path: str) -> int:
    data = load_filtration(path)
    if not filtrations.validate(data).valid:
        raise PreconditionError("filtration data fails validation; run validate-filt")
    indices = _cone_indices(data.fan, args.cone)
    if args.cone is None:
        glob = compatibility.global_compatibility(data)
        verdict, results, summary = glob.verdict, glob.cones, "global compatibility"
        ok = verdict == "compatible"
    else:
        res = compatibility.cone_compatibility(data, data.fan.maximal_cones[args.cone])
        verdict, results, summary = res.verdict, [res], f"cone {args.cone}"
        ok = verdict == compatibility.VERDICT_CERTIFICATE
    obj = {"command": "compat", "verdict": verdict,
           "cones": [{"cone": k, **_cone_result_obj(r)} for k, r in zip(indices, results)]}
    summary += f": {verdict}"
    return _verdict(obj, ok, summary, summary)


def cmd_calculus(operation, summary: str, args, *paths: str) -> int:
    result = operation(*[load_filtration(p) for p in paths])
    return _emit(filtration_to_obj(result), summary)


def cmd_morphism(args, matrix: str, a: str, b: str) -> int:
    failure = filtrations.morphism_failure(load_matrix(matrix), load_filtration(a),
                                           load_filtration(b))
    obj = {"command": "morphism", "is_morphism": failure is None,
           "witness": failure}
    return _verdict(obj, failure is None, "morphism respects filtrations",
                    "NOT a morphism of filtered data")


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


def cmd_glue(args, path: str) -> int:
    report = bundles.check_gluing(_require_valid_bundle(path))
    return _verdict({"command": "glue", **_fields(report)}, report.glues,
                    "transitions glue", "gluing FAILS")


def cmd_assoc(args, path: str) -> int:
    data = _require_valid_bundle(path)
    try:
        result = bundles.associated_klyachko(data)
    except bundles.RayConsistencyError as exc:
        obj = {"command": "assoc", "error": "ray-consistency",
               "witness": exc.witness}
        return _emit(obj, "ray chains inconsistent across cones", EXIT_FAIL)
    return _emit(filtration_to_obj(result), "associated filtration data computed")


def cmd_algebra_check(args, path: str) -> int:
    data = _require_valid_bundle(path)
    cones = []
    for k in _cone_indices(data.fan, args.cone):
        alg = algebras.build_truncation(data, k, args.degree)
        mult_ok, mult_wit = algebras.check_multiplicative(alg)
        comp_ok, comp_wit, dims = algebras.check_compatible_algebra(alg)
        coact_ok, coact_wit = algebras.check_coaction_commutes(alg)
        cones.append({
            "cone": k,
            "degree": args.degree,
            "multiplicative": mult_ok,
            "compatible": comp_ok,
            "coaction_commutes": coact_ok,
            "piece_dimensions": [
                {"class": list(c), "dim": d} for c, d in sorted(dims.items())
            ],
            "witness": mult_wit or comp_wit or coact_wit,
        })
    ok = all(c["multiplicative"] and c["compatible"] and c["coaction_commutes"]
             for c in cones)
    return _verdict({"command": "algebra-check", "ok": ok, "cones": cones}, ok,
                    "algebra axioms hold", "algebra axioms FAIL")


def cmd_reduce(args, path: str) -> int:
    data = _require_valid_bundle(path)
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
        ok = res.verdict == reduction.SL_REDUCES
        if not ok:
            obj["witness"] = {"cone": res.failing_cone,
                              "character_sum": list(res.character_sum)}
        summary = f"SL reduction: {res.verdict}"
        return _verdict(obj, ok, summary, summary)
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
    summary = f"torus reduction: {res.verdict}"
    return _verdict(obj, res.verdict == reduction.TORUS_REDUCES, summary, summary)


def _selftest_checks(seed: int) -> dict:
    # imported here: no other command needs them at start-up
    import random

    from . import sampling
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
    return _verdict(obj, ok, "selftest passed", "selftest FAILED")


# (name, help, handler, positional names, options as (flag, add_argument keywords))
COMMANDS = (
    ("validate-fan", "validate a fan file",
     partial(cmd_validate, load_fan, validate_fan, "fan"), ("fan",), ()),
    ("validate-filt", "validate filtration data",
     partial(cmd_validate, load_filtration, filtrations.validate, "filtration data"),
     ("data",), ()),
    ("compat", "per-cone compatibility with certificates", cmd_compat, ("data",),
     (("--cone", {"type": int, "default": None,
                  "help": "check a single maximal cone (by index)"}),)),
    ("tensor", "tensor product of two filtration files",
     partial(cmd_calculus, filtrations.tensor, "tensor product computed"), ("a", "b"), ()),
    ("dual", "dual filtration data",
     partial(cmd_calculus, filtrations.dual, "dual computed"), ("a",), ()),
    ("dsum", "direct sum of two filtration files",
     partial(cmd_calculus, filtrations.direct_sum, "direct sum computed"), ("a", "b"), ()),
    ("morphism", "check a matrix is a morphism of filtered data", cmd_morphism,
     ("matrix", "a", "b"), ()),
    ("validate-bundle", "validate bundle data",
     partial(cmd_validate, load_bundle, bundles.validate_bundle, "bundle data"), ("bundle",), ()),
    ("glue", "check that both transition directions are regular on "
             "every overlap, decided by ray consistency", cmd_glue, ("bundle",), ()),
    ("assoc", "associated filtration data of the standard representation", cmd_assoc,
     ("bundle",), ()),
    ("algebra-check", "truncated coordinate-algebra axioms", cmd_algebra_check, ("bundle",),
     (("--degree", {"type": int, "default": algebras.DEFAULT_DEGREE}),
      ("--cone", {"type": int, "default": None}))),
    ("reduce", "equivariant reduction of structure group", cmd_reduce, ("bundle",),
     (("--to", {"choices": ["sl", "torus"], "required": True}),)),
    ("selftest", "randomized property self-checks", cmd_selftest, (),
     (("--seed", {"type": int, "default": 0}),)),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toricfilt",
        description="Exact checks for equivariant principal-bundle data on toric fans",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, handler, positionals, options in COMMANDS:
        p = sub.add_parser(name, help=help_text)
        for positional in positionals:
            p.add_argument(positional)
        for flag, keywords in options:
            p.add_argument(flag, **keywords)
        p.set_defaults(func=handler, operands=positionals)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args, *[getattr(args, name) for name in args.operands])
    except (InputError, PreconditionError) as exc:
        sys.stdout.write(dump_report({"command": args.command, "error": str(exc)}))
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_BAD_INPUT
    except Exception as exc:
        # a crash must never read as exit 1, the negative-verdict code; the
        # traceback module is imported only here, off the start-up path
        import traceback

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
