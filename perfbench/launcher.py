"""Traced CLI child: `python perfbench/launcher.py SPANS SPAWNED ARGS...`.

Imports `toricfilt.cli`, installs the benchmark's span wrappers, runs
`toricfilt.cli.main(ARGS)` and exits with its code.  SPAWNED is the
`perf_counter` reading the parent took just before starting this process;
the spans written to SPANS include one `cli` root span from SPAWNED to the
return of `main`, so interpreter start and imports count as `cli` self time.
"""

import sys
from time import perf_counter


def main() -> int:
    spans_path, spawned = sys.argv[1], float(sys.argv[2])
    import toricfilt.cli
    imported = perf_counter()
    from spans import Tracer, lru_stats

    tracer = Tracer()
    tracer.install()
    root = tracer.open_span("cli:cli.process", spawned)
    started = perf_counter()
    try:
        code = toricfilt.cli.main(sys.argv[3:])
    finally:
        finished = perf_counter()
        tracer.restore()
        tracer.store.end[root] = finished
        tracer.store.sample("cli.startup_ms", (imported - spawned) * 1000)
        tracer.store.sample("cli.command_ms", (finished - started) * 1000)
        for name, (hits, misses) in lru_stats().items():
            tracer.store.count(f"lru.{name}.hits", hits)
            tracer.store.count(f"lru.{name}.misses", misses)
        sys.stdout.flush()
        tracer.store.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
