"""Child-process entry of the benchmark: one operation per process.

    worker.py [--trace spans|alloc --spans PATH] cli ARG...
    worker.py [--trace spans|alloc --spans PATH] lib SPEC_JSON

``cli`` runs ``infostorage.cli.main(ARG...)`` in this process, so a traced
run sees the CLI layer's own time; untraced CLI operations do not come
here, they run ``python3 -m infostorage.cli`` as a user would.

``lib`` runs a library operation (``pipeline`` or ``table_unit``), times
it, checks its outputs after the timed region, and prints one JSON line:
``{"time_s": ..., "values": {...}, "errors": [...]}``.

Each operation runs in a fresh process, so the peak RSS that the launcher
reads from ``os.wait4`` is the operation's own.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import time

import numpy as np

import checks
from tracer import Tracer, install


def pipeline(spec: dict, tracer: Tracer | None) -> dict:
    """spec -> generate_input -> simulate_unit -> count_joint -> three
    averages and three local profiles, for each k."""
    import infostorage as ist

    if tracer:
        install(tracer)
    n, ks = spec["n"], spec["ks"]
    errors: list[str] = []
    values: dict[str, float] = {}
    elapsed = 0.0
    with _span(tracer, "bench.pipeline"):
        t0 = time.perf_counter()
        drive = ist.ProcessSpec("markov_binary", p_stay=checks.P_STAY, seed=spec["seed"])
        u = ist.generate_input(drive, n)
        x = ist.simulate_unit(ist.UnitSpec("xor_memory"), u)
        elapsed += time.perf_counter() - t0
        for k in ks:
            t0 = time.perf_counter()
            table = ist.count_joint(x, u, ist.EmbeddingConfig(k))
            averages = {m: ist.compute(m, table).average_bits for m in checks.MEASURES}
            locals_ = {m: ist.infodyn.local_profile(m, table) for m in checks.MEASURES}
            elapsed += time.perf_counter() - t0
            # Checked per k, outside the timed region, so that only one k's
            # profiles are alive at a time.
            with _span(tracer, "bench.check"):
                _check_pipeline_k(k, n, table.total, averages, locals_, values, errors)
            del table, locals_
        with _span(tracer, "bench.check"):
            if not checks.xor_accumulate_matches(u.data, x.data):
                errors.append("xor unit output is not the running XOR of its input")
    return {"time_s": elapsed, "values": values, "errors": errors}


def _check_pipeline_k(k, n, total, averages, locals_, values, errors):
    for m in checks.MEASURES:
        values[f"{m}@{k}"] = averages[m]
        prof = locals_[m]
        if len(prof) != n - k or prof.start_index != k:
            errors.append(f"k={k} {m}: local profile has {len(prof)} steps from {prof.start_index}")
        mean = float(np.mean(prof.values))
        if abs(mean - averages[m]) > 1e-9:
            errors.append(f"k={k} {m}: local mean {mean} != average {averages[m]}")
    checks.check_local_identity({m: p.values for m, p in locals_.items()}, errors)
    checks.check_results(
        [{"k": k, "measure": m, "average_bits": averages[m], "n_transitions": total}
         for m in checks.MEASURES],
        unit="xor", drive="markov", ks=[k], n_transitions=lambda k: n - k,
        n_per_series=lambda k: n - k, source="empirical", errors=errors)


def table_unit(spec: dict, tracer: Tracer | None) -> dict:
    """Simulate a fixed random 4-state, binary-input TableUnit."""
    import infostorage as ist

    tables = np.random.default_rng(spec["table_seed"])
    next_state = tables.integers(0, 4, (4, 2))
    output = tables.integers(0, 2, (4, 2))
    unit = ist.TableUnit(next_state, output, n_outputs=2)
    u = ist.SymbolSeries(ist.BINARY, np.random.default_rng(spec["seed"]).integers(0, 2, spec["n"]))
    if tracer:
        install(tracer)
    t0 = time.perf_counter()
    with _span(tracer, "bench.table_unit"):
        x = ist.simulate_unit(unit, u)
        elapsed = time.perf_counter() - t0
        errors = []
        with _span(tracer, "bench.check"):
            if not np.array_equal(x.data, checks.table_unit_reference(next_state, output, u.data)):
                errors.append("TableUnit output differs from the reference transducer")
    return {"time_s": elapsed, "values": {}, "errors": errors}


def _span(tracer: Tracer | None, name: str):
    return tracer.span(name) if tracer else contextlib.nullcontext()


LIB_OPS = {"pipeline": pipeline, "table_unit": table_unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="worker.py")
    parser.add_argument("--trace", choices=["spans", "alloc"])
    parser.add_argument("--spans")
    parser.add_argument("--op-id", default="op")
    parser.add_argument("kind", choices=["cli", "lib"])
    parser.add_argument("rest", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    tracer = Tracer(args.op_id, alloc=args.trace == "alloc") if args.trace else None
    if args.kind == "cli":
        from infostorage import cli

        if tracer:
            install(tracer)
        rc = cli.main(args.rest)
    else:
        spec = json.loads(args.rest[0])
        result = LIB_OPS[spec["op"]](spec, tracer)
        sys.stdout.write(json.dumps(result) + "\n")
        rc = 0
    sys.stdout.flush()
    if tracer:
        tracer.dump(args.spans)
    return rc


if __name__ == "__main__":
    sys.exit(main())
