import json
import time

import pytest

from toricfilt.cli import main
from toricfilt.serialize import (
    dump_report,
    filtration_from_obj,
    filtration_to_obj,
)

P2_FAN_OBJ = {
    "rank": 2,
    "rays": [[1, 0], [0, 1], [-1, -1]],
    "maximal_cones": [[0, 1], [1, 2], [0, 2]],
}


def write_json(path, obj):
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def line_data_obj(fan_obj, jumps):
    return {
        "fan": fan_obj,
        "dim": 1,
        "filtrations": {
            str(i): [{"i": j, "basis": [["1"]]}] for i, j in enumerate(jumps)
        },
    }


def test_validate_fan_ok(tmp_path, capsys):
    path = write_json(tmp_path / "fan.json", P2_FAN_OBJ)
    code, out, err = run(capsys, "validate-fan", path)
    assert code == 0
    report = json.loads(out)
    assert report["valid"] and report["top_dimensional"]


def test_validate_fan_bad_ray(tmp_path, capsys):
    obj = {"rank": 2, "rays": [[2, 0]], "maximal_cones": [[0]]}
    path = write_json(tmp_path / "fan.json", obj)
    code, out, _ = run(capsys, "validate-fan", path)
    assert code == 1
    assert json.loads(out)["issues"][0]["kind"] == "non_primitive_ray"


def test_malformed_input_exits_two(tmp_path, capsys):
    path = tmp_path / "fan.json"
    path.write_text("{not json", encoding="utf-8")
    code, out, _ = run(capsys, "validate-fan", str(path))
    assert code == 2
    assert "error" in json.loads(out)


def test_float_rejected(tmp_path, capsys):
    obj = {"fan": P2_FAN_OBJ, "dim": 1,
           "filtrations": {"0": [{"i": 0, "basis": [[0.5]]}],
                           "1": [], "2": []}}
    path = write_json(tmp_path / "filt.json", obj)
    code, out, _ = run(capsys, "validate-filt", str(path))
    assert code == 2


def test_compat_trivial_exit_zero(tmp_path, capsys):
    path = write_json(tmp_path / "filt.json", line_data_obj(P2_FAN_OBJ, [0, 0, 0]))
    code, out, _ = run(capsys, "compat", path)
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "compatible"
    for cone in report["cones"]:
        assert cone["certificate"]["pieces"][0]["character"] == [0, 0]


def test_compat_single_cone_flag(tmp_path, capsys):
    path = write_json(tmp_path / "filt.json", line_data_obj(P2_FAN_OBJ, [1, 0, 0]))
    code, out, _ = run(capsys, "compat", path, "--cone", "1")
    assert code == 0
    assert json.loads(out)["cones"][0]["cone"] == 1


def test_glue_witness_matches_spec_example(tmp_path, capsys):
    fan_path = write_json(tmp_path / "fan.json", P2_FAN_OBJ)
    bundle = {
        "group": {"kind": "GL", "n": 1},
        "fan": "fan.json",
        "cones": [
            {"cone": 0, "frame": [["1"]], "chars": [[0, 1]]},
            {"cone": 1, "frame": [["1"]], "chars": [[0, 0]]},
            {"cone": 2, "frame": [["1"]], "chars": [[0, 0]]},
        ],
    }
    path = write_json(tmp_path / "bundle.json", bundle)
    code, out, _ = run(capsys, "glue", path)
    assert code == 1
    witness = json.loads(out)["witness"]
    assert witness["pair"] == [0, 1]
    assert witness["exponent"] == [0, -1]
    assert witness["ray"] == [0, 1]


def test_tensor_dual_dual_byte_identical(tmp_path, capsys):
    a = write_json(tmp_path / "a.json", line_data_obj(P2_FAN_OBJ, [2, 0, -1]))
    b = write_json(tmp_path / "b.json", line_data_obj(P2_FAN_OBJ, [-1, 1, 0]))
    code, tensor_out, _ = run(capsys, "tensor", a, b)
    assert code == 0
    t_path = tmp_path / "t.json"
    t_path.write_text(tensor_out, encoding="utf-8")
    code, dual_once, _ = run(capsys, "dual", str(t_path))
    assert code == 0
    d_path = tmp_path / "d.json"
    d_path.write_text(dual_once, encoding="utf-8")
    code, dual_twice, _ = run(capsys, "dual", str(d_path))
    assert code == 0
    assert dual_twice == tensor_out


def test_outputs_reparse_to_equal_values(tmp_path, capsys):
    a = write_json(tmp_path / "a.json", line_data_obj(P2_FAN_OBJ, [2, 0, -1]))
    code, out, _ = run(capsys, "dual", a)
    assert code == 0
    parsed = filtration_from_obj(json.loads(out))
    assert json.loads(dump_report(filtration_to_obj(parsed))) == json.loads(out)


def test_determinism_across_runs(tmp_path, capsys):
    path = write_json(tmp_path / "filt.json", line_data_obj(P2_FAN_OBJ, [1, 0, 0]))
    _, out1, _ = run(capsys, "compat", path)
    _, out2, _ = run(capsys, "compat", path)
    assert out1 == out2


def test_morphism_command(tmp_path, capsys):
    a = write_json(tmp_path / "a.json", line_data_obj(P2_FAN_OBJ, [1, 1, 1]))
    b = write_json(tmp_path / "b.json", line_data_obj(P2_FAN_OBJ, [0, 0, 0]))
    m = write_json(tmp_path / "m.json", [["1"]])
    code, out, _ = run(capsys, "morphism", m, b, a)
    assert code == 0 and json.loads(out)["is_morphism"]
    code, out, _ = run(capsys, "morphism", m, a, b)
    assert code == 1
    assert json.loads(out)["witness"] is not None


def test_assoc_and_cocycle_and_validate_bundle(tmp_path, capsys):
    bundle = {
        "group": {"kind": "GL", "n": 1},
        "fan": P2_FAN_OBJ,
        "cones": [
            {"cone": 0, "frame": [["1"]], "chars": [[1, 0]]},
            {"cone": 1, "frame": [["1"]], "chars": [[0, 0]]},
            {"cone": 2, "frame": [["1"]], "chars": [[1, -1]]},
        ],
    }
    path = write_json(tmp_path / "bundle.json", bundle)
    code, out, _ = run(capsys, "validate-bundle", path)
    assert code == 0 and json.loads(out)["valid"]
    # the cocycle identity holds by construction; the command is gone
    with pytest.raises(SystemExit) as exc:
        main(["cocycle", path])
    assert exc.value.code == 2
    code, out, _ = run(capsys, "assoc", path)
    assert code == 0
    data = filtration_from_obj(json.loads(out))
    assert data.dim == 1


def test_assoc_inconsistent_exit_one(tmp_path, capsys):
    bundle = {
        "group": {"kind": "GL", "n": 1},
        "fan": P2_FAN_OBJ,
        "cones": [
            {"cone": 0, "frame": [["1"]], "chars": [[0, 1]]},
            {"cone": 1, "frame": [["1"]], "chars": [[0, 0]]},
            {"cone": 2, "frame": [["1"]], "chars": [[0, 0]]},
        ],
    }
    path = write_json(tmp_path / "bundle.json", bundle)
    code, out, _ = run(capsys, "assoc", path)
    assert code == 1
    assert json.loads(out)["error"] == "ray-consistency"


def test_algebra_check_command(tmp_path, capsys):
    bundle = {
        "group": {"kind": "GL", "n": 2},
        "fan": P2_FAN_OBJ,
        "cones": [
            {"cone": 0, "frame": [["1", "0"], ["0", "1"]], "chars": [[1, 0], [0, 1]]},
            {"cone": 1, "frame": [["1", "0"], ["0", "1"]], "chars": [[0, 0], [0, 0]]},
            {"cone": 2, "frame": [["1", "0"], ["0", "1"]], "chars": [[0, 0], [0, 0]]},
        ],
    }
    path = write_json(tmp_path / "bundle.json", bundle)
    code, out, _ = run(capsys, "algebra-check", path, "--degree", "2", "--cone", "0")
    assert code == 0
    report = json.loads(out)
    assert report["ok"]
    cone = report["cones"][0]
    assert cone["multiplicative"] and cone["compatible"] and cone["coaction_commutes"]
    assert sum(p["dim"] for p in cone["piece_dimensions"]) == 15  # monomials, deg <= 2


def test_algebra_degree_budget(tmp_path, capsys):
    bundle = {
        "group": {"kind": "GL", "n": 2},
        "fan": {"rank": 1, "rays": [[1], [-1]], "maximal_cones": [[0], [1]]},
        "cones": [
            {"cone": 0, "frame": [["1", "0"], ["0", "1"]], "chars": [[1], [0]]},
            {"cone": 1, "frame": [["1", "0"], ["0", "1"]], "chars": [[0], [2]]},
        ],
    }
    path = write_json(tmp_path / "bundle.json", bundle)
    start = time.perf_counter()
    code, out, _ = run(capsys, "algebra-check", path, "--degree", "100")
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert "over budget" in json.loads(out)["error"]


def test_reduce_commands(tmp_path, capsys):
    sl_ok = {
        "group": {"kind": "GL", "n": 2},
        "fan": {"rank": 1, "rays": [[1], [-1]], "maximal_cones": [[0], [1]]},
        "cones": [
            {"cone": 0, "frame": [["2", "1"], ["1", "1"]], "chars": [[1], [-1]]},
            {"cone": 1, "frame": [["1", "0"], ["0", "1"]], "chars": [[2], [-2]]},
        ],
    }
    path = write_json(tmp_path / "sl.json", sl_ok)
    code, out, _ = run(capsys, "reduce", path, "--to", "sl")
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "REDUCES"
    assert report["sl_presentation"]["group"]["kind"] == "SL"

    sl_bad = dict(sl_ok)
    sl_bad["cones"] = [
        {"cone": 0, "frame": [["1", "0"], ["0", "1"]], "chars": [[1], [0]]},
        {"cone": 1, "frame": [["1", "0"], ["0", "1"]], "chars": [[0], [0]]},
    ]
    path = write_json(tmp_path / "slbad.json", sl_bad)
    code, out, _ = run(capsys, "reduce", path, "--to", "sl")
    assert code == 1
    assert json.loads(out)["witness"] == {"cone": 0, "character_sum": [1]}

    code, out, _ = run(capsys, "reduce", write_json(tmp_path / "t.json", sl_ok),
                       "--to", "torus")
    assert code == 0
    assert json.loads(out)["lines"] is not None


def test_reduce_torus_precondition_violation(tmp_path, capsys):
    bundle = {
        "group": {"kind": "GL", "n": 1},
        "fan": P2_FAN_OBJ,
        "cones": [
            {"cone": 0, "frame": [["1"]], "chars": [[0, 1]]},
            {"cone": 1, "frame": [["1"]], "chars": [[0, 0]]},
            {"cone": 2, "frame": [["1"]], "chars": [[0, 0]]},
        ],
    }
    path = write_json(tmp_path / "bundle.json", bundle)
    code, out, _ = run(capsys, "reduce", path, "--to", "torus")
    assert code == 2


def test_selftest(capsys):
    code, out, _ = run(capsys, "selftest", "--seed", "123")
    assert code == 0
    report = json.loads(out)
    assert report["ok"] and all(report["checks"].values())


def test_exit_code_table(tmp_path):
    from toricfilt.cli import _COMPAT_EXIT, EXIT_FAIL, EXIT_OK
    from toricfilt.compatibility import VERDICT_CERTIFICATE, VERDICT_REFUTATION

    assert _COMPAT_EXIT == {VERDICT_CERTIFICATE: EXIT_OK, VERDICT_REFUTATION: EXIT_FAIL}
    assert (EXIT_OK, EXIT_FAIL) == (0, 1)
    # the retired exhaustive-search cap is an unknown option
    path = write_json(tmp_path / "filt.json", line_data_obj(P2_FAN_OBJ, [0, 0, 0]))
    with pytest.raises(SystemExit) as exc:
        main(["compat", path, "--dim-cap", "4"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["compat", "filt.json"],
    ["glue", "bundle.json"],
    ["algebra-check", "bundle.json"],
    ["reduce", "bundle.json", "--to", "torus"],
])
def test_non_pointed_cone_exits_two(tmp_path, capsys, argv):
    # the maximal cone spans the whole line; validate-fan reports it and
    # every command that builds the cone rejects the input
    fan = {"rank": 1, "rays": [[1], [-1]], "maximal_cones": [[0, 1]]}
    write_json(tmp_path / "fan.json", fan)
    write_json(tmp_path / "filt.json", {
        "fan": "fan.json", "dim": 1,
        "filtrations": {"0": [{"i": 0, "basis": [["1"]]}],
                        "1": [{"i": 0, "basis": [["1"]]}]}})
    write_json(tmp_path / "bundle.json", {
        "group": {"kind": "GL", "n": 1}, "fan": "fan.json",
        "cones": [{"cone": 0, "frame": [["1"]], "chars": [[0]]}]})
    code, out, _ = run(capsys, "validate-fan", str(tmp_path / "fan.json"))
    assert code == 1
    assert json.loads(out)["issues"] == [{"kind": "not_pointed", "cone": 0}]
    argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert "containing a line" in json.loads(out)["error"]
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["glue", "bundle.json"],
    ["assoc", "bundle.json"],
    ["algebra-check", "bundle.json"],
    ["reduce", "bundle.json", "--to", "torus"],
    ["reduce", "bundle.json", "--to", "sl"],
])
def test_bundle_commands_reject_invalid_fan(tmp_path, capsys, argv):
    # the two maximal cones overlap in their interiors; every cone is
    # pointed, so only the fan validator sees the defect
    fan = {"rank": 2, "rays": [[1, 0], [0, 1], [1, 1], [-1, 1]],
           "maximal_cones": [[0, 1], [2, 3]]}
    write_json(tmp_path / "fan.json", fan)
    write_json(tmp_path / "bundle.json", {
        "group": {"kind": "GL", "n": 1}, "fan": "fan.json",
        "cones": [{"cone": k, "frame": [["1"]], "chars": [[0, 0]]} for k in (0, 1)]})
    code, out, _ = run(capsys, "validate-fan", str(tmp_path / "fan.json"))
    assert code == 1
    assert json.loads(out)["issues"] == [{"kind": "intersection_not_a_face", "cones": [0, 1]}]
    argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert json.loads(out)["error"] == "bundle fan fails validation; run validate-fan"
    assert "Traceback" not in err


def test_internal_error_exits_70(tmp_path, capsys, monkeypatch):
    import toricfilt.cli as cli

    def crash(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_validate_filt", crash)
    path = write_json(tmp_path / "filt.json", line_data_obj(P2_FAN_OBJ, [0, 0, 0]))
    code, out, err = run(capsys, "validate-filt", path)
    assert code == cli.EXIT_INTERNAL == 70
    assert json.loads(out) == {"command": "validate-filt",
                               "error": "internal error: RuntimeError: boom"}
    assert "Traceback" in err and "RuntimeError: boom" in err


@pytest.mark.parametrize("literal", [
    '"1.5"', '"1e5"', '" 3/4 "', '"1_000"', '"1e2000000"', '"+3"', '"1/0"',
    pytest.param("1" * 4400, id="int-past-digit-limit"),  # JSON integer, not a string
    pytest.param("[" * 100000, id="nesting-past-recursion-limit"),
])
def test_malformed_rationals_exit_two(tmp_path, capsys, literal):
    obj = line_data_obj(P2_FAN_OBJ, [0, 0, 0])
    obj["filtrations"]["0"][0]["basis"] = [["@"]]
    path = tmp_path / "filt.json"
    path.write_text(json.dumps(obj).replace('"@"', literal), encoding="utf-8")
    code, out, _ = run(capsys, "validate-filt", str(path))
    assert code == 2
    assert "error" in json.loads(out)


def test_rational_format_normalized():
    from fractions import Fraction

    from toricfilt.serialize import format_rational, parse_rational

    assert format_rational(Fraction(2, 4)) == "1/2"
    assert format_rational(Fraction(-3, 1)) == "-3"
    assert format_rational(Fraction(5, -10)) == "-1/2"  # denominator kept positive
    assert parse_rational("-7/3") == Fraction(-7, 3)
    assert parse_rational(4) == Fraction(4)


def test_dsum_command(tmp_path, capsys):
    a = write_json(tmp_path / "a.json", line_data_obj(P2_FAN_OBJ, [1, 0, 0]))
    b = write_json(tmp_path / "b.json", line_data_obj(P2_FAN_OBJ, [0, 0, 0]))
    code, out, _ = run(capsys, "dsum", a, b)
    assert code == 0
    assert filtration_from_obj(json.loads(out)).dim == 2
