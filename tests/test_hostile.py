"""Hostile inputs for the CLI: each row must finish within a fixed budget
with the expected exit code.

The fans below have six or seven small rays in rank 5 whose supporting
covectors carry entries up to 296.  The tensor row multiplies two random
dimension-9 filtrations on P^1 into an 81-dimensional ambient space, where
elimination with unchecked coefficient growth runs for several seconds.  The
algebra-check rows run on a P^1 bundle at the largest truncation degree
inside the budget, so the degree budget must bound the time as well.  The
torus rows run on split GL(9) bundles whose universe R has 3^k tuples on a
rank-2 fan of k rays: at the budget on its boundary, and over it, where
the join stops at the first partial universe over the budget.
Each command runs in its own process with a 5 s timeout.
"""

import json
import os
import random
import subprocess
import sys

import pytest

import toricfilt
from builders import parity_split_bundle
from toricfilt.reduction import MAX_UNIVERSE
from toricfilt.sampling import p1_fan, random_filtration_data
from toricfilt.serialize import bundle_to_obj, filtration_to_obj

BUDGET_S = 5

HOSTILE_RAYS = [[1, -3, -3, -2, -2], [0, -1, -3, 3, 1], [-1, 3, -1, 0, -3],
                [-3, -3, -2, 1, 2], [-2, -3, 1, -1, -1], [1, 0, -2, 1, 0],
                [1, -3, 3, 0, -1]]

HOSTILE_FANS = {
    "six_rays": {"rank": 5, "rays": HOSTILE_RAYS[:6],
                 "maximal_cones": [[0, 1, 2, 3, 4, 5]]},
    "two_cones": {"rank": 5, "rays": HOSTILE_RAYS,
                  "maximal_cones": [[0, 1, 2, 3, 4, 5], [0, 1, 3, 4, 6]]},
}


def _trivial_data(fan):
    full = [["1", "0"], ["0", "1"]]
    return {"fan": fan, "dim": 2,
            "filtrations": {str(i): [{"i": 0, "basis": full}] for i in range(len(fan["rays"]))}}


def _line_bundle(fan):
    return {"group": {"kind": "GL", "n": 1}, "fan": fan,
            "cones": [{"cone": k, "frame": [["1"]], "chars": [[0] * fan["rank"]]}
                      for k in range(len(fan["maximal_cones"]))]}


# (command, input builder, extra arguments, expected exit code)
HOSTILE_COMMANDS = [
    ("validate-fan", lambda fan: fan, [], 0),
    ("compat", _trivial_data, [], 0),
    ("glue", _line_bundle, [], 0),
    ("reduce", _line_bundle, ["--to", "torus"], 0),
]


@pytest.mark.parametrize("fan_name", sorted(HOSTILE_FANS))
@pytest.mark.parametrize("command,build,extra,code", HOSTILE_COMMANDS,
                         ids=[row[0] for row in HOSTILE_COMMANDS])
def test_hostile_fan_within_budget(tmp_path, fan_name, command, build, extra, code):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(build(HOSTILE_FANS[fan_name])), encoding="utf-8")
    proc = _run_cli(command, str(path), *extra)
    assert proc.returncode == code, proc.stderr.decode()


def test_tensor_within_budget(tmp_path):
    rng = random.Random(9)
    paths = []
    for name in ("a", "b"):
        data = random_filtration_data(rng, p1_fan(), 9)
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(filtration_to_obj(data)), encoding="utf-8")
    proc = _run_cli("tensor", *map(str, paths))
    assert proc.returncode == 0, proc.stderr.decode()


P1_FAN = {"rank": 1, "rays": [[1], [-1]], "maximal_cones": [[0], [1]]}


@pytest.mark.parametrize("n,degree", [(1, 445), (2, 11)])
def test_algebra_check_at_degree_budget(tmp_path, n, degree):
    """The largest in-budget truncation degree also finishes in time."""
    frame = [[str(int(i == j)) for j in range(n)] for i in range(n)]
    bundle = {"group": {"kind": "GL", "n": n}, "fan": P1_FAN,
              "cones": [{"cone": k, "frame": frame, "chars": [[i + 2 * k - 1] for i in range(n)]}
                        for k in range(2)]}
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps(bundle), encoding="utf-8")
    proc = _run_cli("algebra-check", str(path), "--degree", str(degree))
    assert proc.returncode == 0, proc.stderr.decode()
    over = _run_cli("algebra-check", str(path), "--degree", str(degree + 1))
    assert over.returncode == 2, over.stderr.decode()


@pytest.mark.parametrize("rays,code", [(8, 0), (10, 2)])
def test_torus_universe_at_budget(tmp_path, rays, code):
    """|R| = 3^8 is the budget itself and decides; 3^10 is refused."""
    assert 3 ** 8 == MAX_UNIVERSE
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps(bundle_to_obj(parity_split_bundle(rays))), encoding="utf-8")
    proc = _run_cli("reduce", str(path), "--to", "torus")
    assert proc.returncode == code, proc.stderr.decode()
    if code:
        assert f"> {MAX_UNIVERSE}" in proc.stderr.decode()
    else:
        assert json.loads(proc.stdout)["universe_size"] == MAX_UNIVERSE


def _run_cli(*argv):
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(toricfilt.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "toricfilt.cli", *argv],
                          capture_output=True, env=env, timeout=BUDGET_S)
