"""Write golden.json: what the library answers on the default seed where the
construction of an input does not fix the answer (random flags on P^3 and the
square cone, random bundles on P^2 and P^3), the sha256 of each CLI
operation's stdout, and each workload's corpus digest.

Run from the root of a checkout, only when the corpus generator changes or a
change to the library is meant to change these answers:

    python3 perfbench/record_golden.py
"""

import hashlib
import json
import os
import sys


def main() -> int:
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    src_dir = os.path.join(os.getcwd(), "src")
    sys.path.insert(0, src_dir)
    import workloads

    golden = {"seed": workloads.DEFAULT_SEED, "digests": {}}
    for name in workloads.WORKLOADS:
        wl = workloads.make(name, workloads.DEFAULT_SEED, bench_dir, src_dir, golden={})
        wl.prepare()
        golden["digests"][name] = wl.digest
        answers = {}
        for i, op in enumerate(wl.ops):
            if name == "compat" and op["expect"] is None:
                answers[op["data"]] = wl.call(i)[1].verdict
            elif name == "bundle" and None in (op["expect"]["glues"], op["expect"]["torus"]):
                out = wl.call(i)
                answers[op["bundle"]] = {
                    "glues": out["glues"],
                    "torus": out["torus"].verdict if out["torus"] else None}
            elif name == "cli":
                answers[wl.key(op)] = hashlib.sha256(wl.call(i)[1]).hexdigest()
        if answers:
            golden[name] = answers
    with open(os.path.join(bench_dir, "golden.json"), "w", encoding="utf-8") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
