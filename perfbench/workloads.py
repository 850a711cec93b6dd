"""The four workloads: set-up, one operation, and the check of its output.

Each workload object is built once per process.  `prepare()` generates the
corpus from the seed, writes it as JSON files under `perfbench/.work/`,
loads what the operations take as input and runs a few warm-up operations;
the runner calls it several times to time set-up.  `call(i)` is the timed
operation i.  `check(i, outcome)` runs after the timed phase and returns
None or the reason the outcome is wrong.

The library workloads load their inputs afresh before every pass over the
corpus (`reload()`, outside the timed window).  The library caches results
on its input objects (for example `Subspace` annihilators), and a user
checks an instance once, so no pass may reuse another pass's inputs.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
from time import perf_counter
from typing import Dict, List, Optional

import calibration
import corpus
from toricfilt import (algebras, bundles, compatibility, filtrations, linalg, reduction,
                       serialize)

DEFAULT_SEED = 0
CHILD_TIMEOUT_S = 120


def write_files(c: corpus.Corpus, work: str) -> None:
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    for name, obj in c.files.items():
        with open(os.path.join(work, name), "w", encoding="utf-8") as handle:
            handle.write(obj if isinstance(obj, str) else json.dumps(obj))
    with open(os.path.join(work, "corpus-digest.json"), "w", encoding="utf-8") as handle:
        json.dump({"workload": c.workload, "seed": c.seed, "sha256": c.digest()}, handle)


class Workload:
    in_process = True
    # calibrate() on an idle 2-vCPU Xeon VM
    idle_calibration_s = calibration.REFERENCE_S

    def __init__(self, name: str, seed: int, bench_dir: str, src_dir: str, golden: dict):
        self.name = name
        self.seed = seed
        self.bench_dir = bench_dir
        self.src_dir = src_dir
        self.work = os.path.join(bench_dir, ".work", name)
        self.golden = golden.get(name, {}) if seed == golden.get("seed") else {}
        self.ops: List[dict] = []
        self.inputs: List[tuple] = []
        self.digest = ""
        self._expected: Dict[str, object] = {}

    def path(self, name: str) -> str:
        return os.path.join(self.work, name)

    def prepare(self) -> None:
        c = corpus.build(self.name, self.seed)
        self.digest = c.digest()
        write_files(c, self.work)
        self.ops = c.ops
        self._expected = {}
        self.reload()
        for i, op in enumerate(self.ops):
            if op.get("warm"):
                self.call(i)
                self.inputs[i] = self.load(op)

    def reload(self) -> None:
        self.inputs = [self.load(op) for op in self.ops]

    def expected_data(self, name: str):
        """A filtration-data file known by construction, loaded once."""
        if name not in self._expected:
            self._expected[name] = serialize.load_filtration(self.path(name))
        return self._expected[name]

    def load(self, op: dict) -> tuple:
        return ()

    def calibrate(self) -> float:
        """Time of a fixed computation that never calls the program, taken
        next to every operation (see calibration.py)."""
        return calibration.reference_s()

    def call(self, i: int):
        raise NotImplementedError

    def check(self, i: int, outcome) -> Optional[str]:
        raise NotImplementedError


class Compat(Workload):
    def load(self, op):
        return (serialize.load_filtration(self.path(op["data"])),)

    def call(self, i):
        (data,) = self.inputs[i]
        return filtrations.validate(data).valid, compatibility.global_compatibility(data)

    def check(self, i, outcome):
        op, (data,) = self.ops[i], self.inputs[i]
        valid, report = outcome
        if not valid:
            return "validate() rejects the generated data"
        expect = op["expect"] or self.golden.get(op["data"])
        if report.verdict not in ("compatible", "incompatible"):
            return f"verdict {report.verdict!r}"
        if expect is not None and report.verdict != expect:
            return f"verdict {report.verdict!r}, expected {expect!r}"
        for res in report.cones:
            if res.certificate is not None and compatibility.verify_cone_decomposition(
                    data, res.ray_indices, res.certificate) is not None:
                return f"certificate for cone {res.ray_indices} does not re-verify"
        return None


class Calculus(Workload):
    def load(self, op):
        def get(key, loader=serialize.load_filtration):
            return loader(self.path(op[key])) if key in op else None
        return get("a"), get("b"), get("phi", serialize.load_matrix)

    def call(self, i):
        kind = self.ops[i]["op"]
        a, b, phi = self.inputs[i]
        if kind == "tensor":
            return filtrations.tensor(a, b)
        if kind == "dual":
            return filtrations.dual(a)
        if kind == "direct_sum":
            return filtrations.direct_sum(a, b)
        return filtrations.check_morphism(phi, a, b)

    def check(self, i, outcome):
        op = self.ops[i]
        a, b, _ = self.inputs[i]
        kind = op["op"]
        if kind == "morphism":
            return None if outcome == op["expect"] else f"check_morphism gave {outcome}"
        dim = {"tensor": lambda: a.dim * b.dim, "direct_sum": lambda: a.dim + b.dim,
               "dual": lambda: a.dim}[kind]()
        if outcome.dim != dim or not filtrations.validate(outcome).valid:
            return f"{kind} result is not valid data of dimension {dim}"
        if op["expect"] is not None and outcome != self.expected_data(op["expect"]):
            return f"{kind} differs from the result known by construction"
        if kind == "dual" and filtrations.dual(outcome) != a:
            return "dual(dual(x)) != x"
        return None


class Bundle(Workload):
    def load(self, op):
        return (serialize.load_bundle(self.path(op["bundle"])),)

    def call(self, i):
        (data,) = self.inputs[i]
        out = {"valid": bundles.validate_bundle(data).valid}
        out["glues"] = bundles.check_gluing(data).glues
        try:
            out["assoc"] = bundles.associated_klyachko(data)
        except bundles.RayConsistencyError:
            out["assoc"] = None
        out["sl"] = reduction.check_sl_reduction(data)
        out["torus"] = reduction.check_torus_reduction(data) if out["glues"] else None
        degree = self.ops[i]["degree"]
        if degree:
            ok = True
            for k in range(len(data.fan.maximal_cones)):
                alg = algebras.build_truncation(data, k, degree)
                ok = (algebras.check_multiplicative(alg)[0]
                      and algebras.check_compatible_algebra(alg)[0]
                      and algebras.check_coaction_commutes(alg)[0] and ok)
            out["algebras"] = ok
        return out

    def check(self, i, outcome):
        op, (data,) = self.ops[i], self.inputs[i]
        expect = op["expect"]
        golden = self.golden.get(op["bundle"], {})
        if not outcome["valid"]:
            return "validate_bundle rejects the generated data"
        glues = expect["glues"] if expect["glues"] is not None else golden.get("glues")
        if glues is not None and outcome["glues"] != glues:
            return f"glues={outcome['glues']}, expected {glues}"
        if (outcome["assoc"] is None) == outcome["glues"]:
            return "gluing and ray consistency disagree"
        if expect["assoc"] and outcome["assoc"] != self.expected_data(expect["assoc"]):
            return "associated data differs from the construction"
        sl = outcome["sl"]
        if sl.verdict != expect["sl"]:
            return f"SL verdict {sl.verdict}, expected {expect['sl']}"
        if sl.sl_presentation is not None and not (
                sl.sl_presentation.group.kind == "SL"
                and bundles.validate_bundle(sl.sl_presentation).valid):
            return "SL presentation is not valid SL data"
        torus = outcome["torus"]
        if outcome["glues"]:
            want = expect["torus"] or golden.get("torus")
            if want is not None and torus.verdict != want:
                return f"torus verdict {torus.verdict}, expected {want}"
            if torus.verdict == "REDUCES" and len(torus.lines) != data.group.n:
                return "torus splitting has the wrong number of lines"
        if op["degree"] and not outcome["algebras"]:
            return "an algebra axiom check fails"
        return None


class Cli(Workload):
    """One child process per operation, started with this interpreter from
    the checkout's `src`, with a bytecode cache under the benchmark's own
    directory (the environment may set PYTHONDONTWRITEBYTECODE)."""

    in_process = False
    idle_calibration_s = 0.012  # calibrate() on an idle 2-vCPU Xeon VM

    def __init__(self, *args):
        super().__init__(*args)
        env = dict(os.environ)
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        env["PYTHONPYCACHEPREFIX"] = os.path.join(self.bench_dir, ".pycache")
        env["PYTHONPATH"] = self.src_dir
        self.env = env
        self.traced = False
        self.span_files: List[tuple] = []  # (path, time the child was reaped)

    def prepare(self):
        super().prepare()
        # compiles the bytecode cache on the first run, reads it afterwards
        self._run([sys.executable, "-c", "import toricfilt.cli"])

    def calibrate(self):
        """Time to start and reap a bare interpreter: the process handling
        and start-up that make up much of a CLI call."""
        t0 = perf_counter()
        subprocess.run([sys.executable, "-S", "-c", "pass"], cwd=self.work, env=self.env,
                       timeout=CHILD_TIMEOUT_S, check=True)
        return perf_counter() - t0

    def _run(self, argv):
        proc = subprocess.run(argv, cwd=self.work, env=self.env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, timeout=CHILD_TIMEOUT_S)
        return proc.returncode, proc.stdout

    def call(self, i):
        argv = self.ops[i]["argv"]
        if not self.traced:
            return self._run([sys.executable, "-m", "toricfilt.cli", *argv])
        spans = os.path.join(self.work, f".spans-{len(self.span_files)}")
        launcher = os.path.join(self.bench_dir, "launcher.py")
        out = self._run([sys.executable, launcher, spans, repr(perf_counter()), *argv])
        self.span_files.append((spans, perf_counter()))
        return out

    def key(self, op) -> str:
        return " ".join(op["argv"])

    def stdout_drift(self, i, stdout: bytes, first: bytes) -> bool:
        """Byte drift against this run's first output of the operation or,
        on the default seed, against the recorded digest."""
        recorded = self.golden.get(self.key(self.ops[i]))
        return stdout != first or (
            recorded is not None and hashlib.sha256(stdout).hexdigest() != recorded)

    def certificates_verify(self, data_file: str, report: dict) -> bool:
        data = serialize.load_filtration(self.path(data_file))
        for cone in report["cones"]:
            cert = cone["certificate"]
            if cert is None:
                continue
            pieces = tuple(
                (tuple(p["character"]),
                 linalg.span_canonical([[serialize.parse_rational(x) for x in row]
                                        for row in p["basis"]], data.dim))
                for p in cert["pieces"])
            dec = compatibility.ConeDecomposition(tuple(cert["rays"]), pieces)
            if compatibility.verify_cone_decomposition(data, dec.ray_indices, dec) is not None:
                return False
        return True

    def check(self, i, outcome):
        op = self.ops[i]
        code, stdout = outcome
        if op.get("defect"):
            return None if code == 2 else f"contract:{op['defect']}"
        if code != op["exit"]:
            return f"exit code {code}, expected {op['exit']}"
        try:
            obj = json.loads(stdout)
        except ValueError:
            return "stdout is not JSON"
        if "verdict" in op and obj.get("verdict") != op["verdict"]:
            return f"verdict {obj.get('verdict')!r}, expected {op['verdict']!r}"
        if (op["argv"][0] == "compat" and code != 2
                and not self.certificates_verify(op["argv"][1], obj)):
            return "a printed certificate does not re-verify"
        if "expect" in op:
            got = serialize.filtration_from_obj(obj, base_dir=self.work)
            if got != self.expected_data(op["expect"]):
                return "printed data differs from the result known by construction"
        return None


WORKLOADS = {"compat": Compat, "calculus": Calculus, "bundle": Bundle, "cli": Cli}


def make(name: str, seed: int, bench_dir: str, src_dir: str,
         golden: Optional[dict] = None) -> Workload:
    if golden is None:
        with open(os.path.join(bench_dir, "golden.json"), encoding="utf-8") as handle:
            golden = json.load(handle)
    return WORKLOADS[name](name, seed, bench_dir, src_dir, golden)
