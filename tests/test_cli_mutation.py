"""The CLI contract under seeded mutation of the benchmark's `cli` corpus.

The corpus of one seed is generated by `perfbench/corpus.py` into a
temporary directory, as in `test_outcome_snapshot.py`.  Each case takes one
corpus command (every command but `selftest` has one), mutates one of its
JSON operands with a seeded `random.Random` and runs `cli.main` in-process
under a `SIGALRM`.  The mutations delete keys and list entries, change
types, duplicate list entries, double integers and shorten lists.  Half of
the time, a file that names its fan by path has the fan inlined first, so
that fan mutations reach every command.

The contract: the exit code is 0, 1 or 2, never 70, and no case runs out
of time.  Exits 0 and 1 print a JSON report, and a report with exit 1
carries its witness, so a crash cannot pass as a negative verdict.  Exit 2
prints a JSON error report and a one-line message on stderr, with no
traceback.
"""

import contextlib
import io
import json
import pathlib
import random
import signal
import sys

BENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import corpus  # noqa: E402
from toricfilt import cli  # noqa: E402

SEED = 0
CASES = 300
ALARM_S = 3
OTHER_VALUES = (None, "x", "1/0", "", 1.5, True, -1, 0, 10 ** 30, [], {}, [[1]])


class CaseTimeout(BaseException):
    """Raised by the alarm; not an `Exception`, so `cli.main` cannot map it
    to an exit code."""


def _paths(obj, here=()):
    """Every path into a JSON value, the root first."""
    yield here
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield from _paths(value, here + (key,))


def _mutate(rng, obj, files):
    """A mutated deep copy of the JSON value `obj`."""
    obj = json.loads(json.dumps(obj))
    if isinstance(obj, dict) and isinstance(obj.get("fan"), str) and rng.random() < 0.5:
        obj["fan"] = json.loads(json.dumps(files[obj["fan"]]))
    path = rng.choice(list(_paths(obj))[1:])
    parent, key = obj, path[-1]
    for step in path[:-1]:
        parent = parent[step]
    value = parent[key]
    kind = rng.choice(["delete", "type", "duplicate", "double", "shorten"])
    if kind == "delete":
        del parent[key]
    elif kind == "duplicate" and isinstance(value, list) and value:
        value.insert(rng.randrange(len(value) + 1), json.loads(json.dumps(rng.choice(value))))
    elif kind == "double" and type(value) is int:
        parent[key] = 2 * value + rng.randint(0, 1)
    elif kind == "shorten" and isinstance(value, list) and value:
        del value[rng.randrange(len(value)):]
    else:
        parent[key] = rng.choice(OTHER_VALUES + ([value], {"value": value}))
    return obj


def _witness(report):
    """The evidence of a negative verdict: a witness, the validation issues,
    a refuted cone, or the complete universe of a torus NONE-FOUND."""
    return (report.get("witness") or report.get("issues")
            or any(c.get("refutation") or c.get("witness") for c in report.get("cones", ()))
            or (report.get("verdict") == "NONE-FOUND" and type(report.get("universe_size")) is int))


def _on_alarm(signum, frame):
    raise CaseTimeout


def test_mutated_corpus_keeps_the_cli_contract(tmp_path, monkeypatch):
    built = corpus.build("cli", SEED)
    for name, obj in built.files.items():
        (tmp_path / name).write_text(obj if isinstance(obj, str) else json.dumps(obj),
                                     encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    ops = [op["argv"] for op in built.ops
           if any(not isinstance(built.files.get(a, ""), str) for a in op["argv"])]
    rng = random.Random(SEED)
    codes, commands = {}, set()
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        for case in range(CASES):
            argv = list(rng.choice(ops))
            slot = rng.choice([i for i, a in enumerate(argv)
                               if not isinstance(built.files.get(a, ""), str)])
            mutated = f"mutated_{case}_{argv[slot]}"
            (tmp_path / mutated).write_text(
                json.dumps(_mutate(rng, built.files[argv[slot]], built.files)), encoding="utf-8")
            argv[slot] = mutated
            out, err = io.StringIO(), io.StringIO()
            signal.alarm(ALARM_S)
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main(argv)
            except CaseTimeout:
                code = "timeout"
            finally:
                signal.alarm(0)
            assert code in (0, 1, 2), (argv, code, err.getvalue())
            report = json.loads(out.getvalue())
            if code == 1:
                assert _witness(report), (argv, report)
            if code == 2:
                assert "error" in report, (argv, report)
                assert err.getvalue().count("\n") == 1 and err.getvalue().startswith("error: "), \
                    (argv, err.getvalue())
            codes[code] = codes.get(code, 0) + 1
            commands.add(argv[0])
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert set(codes) == {0, 1, 2}
    assert commands == {name for name, *_ in cli.COMMANDS} - {"selftest"}
