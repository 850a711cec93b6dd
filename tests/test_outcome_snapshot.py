"""Byte-identical library outcomes on the benchmark corpora.

For each in-process workload of `perfbench` (`compat`, `calculus`,
`bundle`) and each pinned seed, the corpus is generated by
`perfbench/corpus.py` into a temporary directory, loaded by the workload's
own `load`, and one pass of the workload's own `call` runs over it.  The
sha256 of the outcomes' `repr`s, one per line, must equal the digest
recorded here.  The corpus digest is pinned too, so a change to the
generator fails as a corpus mismatch, not as an outcome mismatch.

A change that moves an outcome re-records only the rows it changes and
says so, as with the CLI snapshot.
"""

import hashlib
import pathlib
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import corpus  # noqa: E402
import workloads  # noqa: E402

# (workload, seed): (corpus sha256, outcome sha256), recorded at commit 52395e4;
# the bundle rows were re-recorded when matrices became integer rows over one
# denominator, which changed the `repr` of each SL presentation's frames
DIGESTS = {
    ("compat", 0): ("0c0da6844eb49748eedaa6cf4de9f6b21e5aef7d8cbfb81d9ebc7171dcc8b3dd",
                    "2c3c76ff82dcbea9f6bc7f26c03ee8c69742691691084b32996bdf86adf6f2b6"),
    ("compat", 1): ("5def6c947bdb9d552f278de967ffc9d3017ed1db92064e135de15cd9ceb08270",
                    "e10b003e3eb68b54a6c2084baca84c60a3e1a79d3bb97cc8dac3d5270a32f7a1"),
    ("calculus", 0): ("c9847fa78f9f54bcec76301b4bf48b79000c457d946d6aa24875b46ca9d6342f",
                      "a6716e7f4fc04dffeff73701fafd00dee7d4511e823f042cefd0d2cdac757850"),
    ("calculus", 1): ("a9b2070a74291e581d539801ca00050fa198e9bc96eefa88f4def1158aea89fd",
                      "7d221c5e847acc89db9168d18025c2f84926942800edee6bef906cf669994298"),
    ("bundle", 0): ("0785c5cf09361851672775d57ab1a8e248512c38605554fecd70c34fa39f96b0",
                    "4ae39ef37645d0ab67aab0f18d332118849af411105d8730670cc5a079907d73"),
    ("bundle", 1): ("a479bd69ee86229b8d64975a7444e4fd045c0d11a0ff5c37a5e3d3d7790b58ba",
                    "643eb45aad4e45c6ea0e100160420698f9b0441e91c30a443bc3fcef851ae36e"),
}


def outcome_digests(name, seed, work):
    """(corpus digest, outcome digest) of one pass of workload `name`."""
    built = corpus.build(name, seed)
    workload = workloads.WORKLOADS[name](name, seed, str(BENCH), "", {})
    workload.work = str(work)
    workloads.write_files(built, workload.work)
    workload.ops = built.ops
    workload.reload()
    lines = "\n".join(repr(workload.call(i)) for i in range(len(workload.ops)))
    return built.digest(), hashlib.sha256(lines.encode()).hexdigest()


@pytest.mark.parametrize("name,seed", sorted(DIGESTS))
def test_outcomes_match_recorded_digest(name, seed, tmp_path):
    corpus_digest, outcome_digest = outcome_digests(name, seed, tmp_path / name)
    assert (corpus_digest, outcome_digest) == DIGESTS[name, seed]
