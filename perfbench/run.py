"""Benchmark for the infostorage library and CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N [--heldout]

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src/``.  Every operation runs in a fresh child process (CLI
operations as ``python3 -m infostorage.cli``, library operations through
``worker.py``), started by the ``spawn.py`` launcher, so each one's peak
RSS comes from ``os.wait4`` on that child alone.  BLAS/OpenMP threads are
pinned to min(2, available CPUs).  Times are scaled by a calibration loop
(see CAL_REF_S).

``--trace 0`` repeats passes over the workload's operations for about
``--seconds`` and prints the end-to-end metrics.  ``--trace 1`` runs each
operation untraced, traced for time, and traced for allocations, and
prints the per-layer metrics (see README.md for their definitions and the
layer -> end-to-end -> workload map).  Every run checks every output; the
last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.

``--heldout`` replaces the seed by a held-out seed derived from it, so a
claim can be re-checked on inputs its author did not tune on.  Spans of a
traced run are written to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

THREADS = min(2, len(os.sched_getaffinity(0)))
# BLAS reads these when numpy loads; children inherit them.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(THREADS)

import numpy as np  # noqa: E402

import checks  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 7
OP_TIMEOUT_S = 150
# The host's speed drifts by tens of percent from one minute to the next
# (shared cores), and that drift dominates run-to-run spread.  Every time
# is therefore scaled by CAL_REF_S / c, c being the run's median time of a
# fixed calibration loop (Runner.calibrate) measured after set-ups and
# operations, at most once per CAL_EVERY_S: seconds at the speed at which
# the loop takes CAL_REF_S.  Loop and constant are fixed, so scaled times
# of two commits on one machine compare directly.
CAL_REF_S = 0.25
CAL_EVERY_S = 1.0

LONG_N = 1_000_000          # cli-long rows
INMEM_N = 10_000_000        # inmem-long pipeline length
INMEM_KS = (1, 4, 10)
TABLE_N = 1_000_000         # inmem-long TableUnit steps
TABLE_SEED = 1303           # the TableUnit's tables are fixed, not seeded per run
ORACLE_PAIRS = [(u, d) for u in ("forwarding", "xor") for d in ("bernoulli", "markov")]
ORACLE_K_MAX = 12           # the dense states^2 matrix is 512 MB here; see README
ENSEMBLE_R = 400            # output columns, each with its own drive column
ENSEMBLE_T = 300            # rows
ENSEMBLE_K = 2
SWEEP_K_MAX = 8
DRIVE_SPEC = {"bernoulli": "bernoulli:p=0.5", "markov": f"markov:p_stay={checks.P_STAY}"}
UNIT_SPEC = {"forwarding": "forwarding", "xor": "xor"}


@dataclass
class Op:
    """One operation: a CLI command or a library call, and its output check.

    ``check(stdout_text)`` returns (errors, oracle gap or None).
    """

    kind: str
    argv: list[str]
    check: Callable[[str], tuple[list[str], float | None]]
    library: bool = False
    data: Path | None = None
    outputs: tuple[Path, ...] = ()


@dataclass
class OpRun:
    kind: str
    wall_s: float
    time_s: float
    rss_mb: float
    errors: list[str]
    gap: float | None = None
    input_bytes: int = 0
    output_bytes: int = 0
    spans: dict | None = None


@dataclass
class Workload:
    name: str
    prepare: Callable[[Path, int], None]
    ops: Callable[[Path, int], list[Op]]
    empirical: bool = True


# ---------------------------------------------------------------- checks


def _check_generate(csv_path: Path, n: int, seed: int):
    def check(_text):
        errors: list[str] = []
        cols = checks.read_two_column_csv(csv_path, "input,output", n, errors)
        if cols is not None:
            u, x = cols
            if not checks.xor_accumulate_matches(u, x):
                errors.append("output column is not the running XOR of the input column")
            flips = float(np.mean(u[1:] != u[:-1]))
            sigma = (checks.P_STAY * (1 - checks.P_STAY) / n) ** 0.5
            if abs(flips - (1 - checks.P_STAY)) > 5 * sigma:
                errors.append(f"drive flip rate {flips:.5f} is not {1 - checks.P_STAY} within 5 sigma")
        try:
            meta = json.loads(Path(str(csv_path) + ".meta.json").read_text())
            if meta.get("schema") != checks.SCHEMA or meta.get("n") != n or meta.get("seed") != seed:
                errors.append(f"meta sidecar does not match: {meta}")
        except (OSError, json.JSONDecodeError) as e:
            errors.append(f"meta sidecar unreadable: {e}")
        return errors, None
    return check


def _check_analyze(unit, drive, k, rows, columns, local=False):
    def check(text):
        errors: list[str] = []
        recs = checks.parse_json_lines(text, errors)
        gap = checks.check_results(
            recs, unit=unit, drive=drive, ks=[k], n_transitions=lambda k: columns * (rows - k),
            n_per_series=lambda k: rows - k, source="empirical", errors=errors)
        if local:
            profiles = {}
            for r in recs:
                vals = np.asarray(r.get("local", []), dtype=np.float64)
                if vals.size != rows - k or r.get("start_index") != k:
                    errors.append(f"{r['measure']}: local profile of {vals.size} steps from {r.get('start_index')}")
                elif abs(float(vals.mean()) - r["average_bits"]) > 1e-9:
                    errors.append(f"{r['measure']}: local mean differs from average")
                profiles[r["measure"]] = vals
            if set(profiles) == set(checks.MEASURES):
                checks.check_local_identity(profiles, errors)
        return errors, gap
    return check


def _check_sweep(unit, drive, k_max, rows, columns):
    def check(text):
        errors: list[str] = []
        recs = checks.parse_sweep_csv(text, errors)
        gap = checks.check_results(
            recs, unit=unit, drive=drive, ks=range(1, k_max + 1),
            n_transitions=lambda k: columns * (rows - k_max),
            n_per_series=lambda k: rows - k_max, source="empirical", errors=errors)
        return errors, gap
    return check


def _check_oracle(unit, drive, k_max):
    def check(text):
        errors: list[str] = []
        recs = checks.parse_json_lines(text, errors)
        checks.check_results(
            recs, unit=unit, drive=drive, ks=range(1, k_max + 1), n_transitions=lambda k: 0,
            n_per_series=None, source="oracle", errors=errors)
        return errors, None
    return check


def _check_library(text):
    try:
        result = json.loads(text.splitlines()[-1])
    except (IndexError, json.JSONDecodeError) as e:
        return [f"worker printed no result ({e})"], None
    gap = None
    for key, value in result["values"].items():
        measure, k = key.split("@")
        err = abs(value - checks.exact("xor", "markov", measure, int(k)))
        gap = err if gap is None else max(gap, err)
    return result["errors"], gap


# ------------------------------------------------------------- workloads


def _no_prepare(work: Path, seed: int):
    pass


def _cli_long_ops(work: Path, seed: int) -> list[Op]:
    csv_path = work / "long.csv"
    common = ["--data", str(csv_path), "--measure", "all", "--input-col", "input"]
    return [
        Op("generate", ["generate", "--process", DRIVE_SPEC["markov"], "--unit", "xor",
                        "--n", str(LONG_N), "--seed", str(seed), "--out", str(csv_path)],
           _check_generate(csv_path, LONG_N, seed),
           outputs=(csv_path, Path(str(csv_path) + ".meta.json"))),
        Op("analyze", ["analyze", *common, "-k", "1"],
           _check_analyze("xor", "markov", 1, LONG_N, 1), data=csv_path),
        Op("analyze_local", ["analyze", *common, "-k", "1", "--local"],
           _check_analyze("xor", "markov", 1, LONG_N, 1, local=True), data=csv_path),
        Op("sweep", ["sweep", *common, "--k-range", f"1:{SWEEP_K_MAX}"],
           _check_sweep("xor", "markov", SWEEP_K_MAX, LONG_N, 1), data=csv_path),
    ]


def _inmem_long_ops(work: Path, seed: int) -> list[Op]:
    pipeline = {"op": "pipeline", "seed": seed, "n": INMEM_N, "ks": list(INMEM_KS)}
    table = {"op": "table_unit", "seed": seed, "n": TABLE_N, "table_seed": TABLE_SEED}
    return [
        Op("pipeline", [json.dumps(pipeline)], _check_library, library=True),
        Op("table_unit", [json.dumps(table)], _check_library, library=True),
    ]


def _oracle_ops(work: Path, seed: int) -> list[Op]:
    return [
        Op("oracle", ["oracle", "--process", DRIVE_SPEC[d], "--unit", UNIT_SPEC[u],
                      "--measure", "all", "--k-range", f"1:{ORACLE_K_MAX}"],
           _check_oracle(u, d, ORACLE_K_MAX))
        for u, d in ORACLE_PAIRS
    ]


def _ensemble_csv(work: Path) -> Path:
    return work / "ensemble.csv"


def _ensemble_prepare(work: Path, seed: int):
    """R markov(0.7) drive columns u### and forwarding outputs x### (= the
    drive), T rows, written as single-digit CSV without a Python row loop."""
    rng = np.random.default_rng(seed)
    first = rng.integers(0, 2, ENSEMBLE_R)
    flips = rng.random((ENSEMBLE_T - 1, ENSEMBLE_R)) < 1 - checks.P_STAY
    drive = np.vstack([first, (first + np.cumsum(flips, axis=0)) % 2])
    cells = np.empty((ENSEMBLE_T, 2 * ENSEMBLE_R), dtype=np.int64)
    cells[:, 0::2] = drive
    cells[:, 1::2] = drive
    text = np.full((ENSEMBLE_T, 4 * ENSEMBLE_R), ord(","), dtype=np.uint8)
    text[:, 0::2] = cells + ord("0")
    text[:, -1] = ord("\n")
    header = ",".join(f"u{i:03d},x{i:03d}" for i in range(ENSEMBLE_R)) + "\n"
    with open(_ensemble_csv(work), "wb") as fh:
        fh.write(header.encode())
        fh.write(text.tobytes())


def _ensemble_ops(work: Path, seed: int) -> list[Op]:
    csv_path = _ensemble_csv(work)
    cols = ",".join(f"x{i:03d}" for i in range(ENSEMBLE_R))
    inputs = ",".join(f"u{i:03d}" for i in range(ENSEMBLE_R))
    common = ["--data", str(csv_path), "--measure", "all", "--cols", cols, "--input-col", inputs]
    return [
        Op("analyze", ["analyze", *common, "-k", str(ENSEMBLE_K)],
           _check_analyze("forwarding", "markov", ENSEMBLE_K, ENSEMBLE_T, ENSEMBLE_R),
           data=csv_path),
        Op("sweep", ["sweep", *common, "--k-range", f"1:{SWEEP_K_MAX}"],
           _check_sweep("forwarding", "markov", SWEEP_K_MAX, ENSEMBLE_T, ENSEMBLE_R),
           data=csv_path),
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("cli-long", _no_prepare, _cli_long_ops),
        Workload("inmem-long", _no_prepare, _inmem_long_ops),
        Workload("oracle-exact", _no_prepare, _oracle_ops, empirical=False),
        Workload("ensemble-short", _ensemble_prepare, _ensemble_ops),
    )
}


# ------------------------------------------------------------- execution


class Runner:
    """Runs operations as children of the small ``spawn.py`` launcher, so
    each child's peak RSS is its own (see spawn.py)."""

    def __init__(self, work: Path):
        self.work = work
        env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
        self.launcher = subprocess.Popen(
            [sys.executable, str(HERE / "spawn.py")], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True, env=env, cwd=work)
        self.n_children = 0
        cal = np.random.default_rng(0)
        self._cal_symbols = cal.integers(0, 2, 1_000_000)
        self._cal_matrix = cal.random((3000, 3000))  # 72 MB, larger than the caches
        self._cal_end = 0.0
        self.calibrations: list[float] = []

    def calibrate(self) -> float:
        """Time a fixed mix like the operations': an interpreted loop,
        integer counting, matrix-vector products that stream memory, and
        page faults on fresh memory (about CAL_REF_S in all)."""
        t0 = time.perf_counter()
        total = 0
        for i in range(2_500_000):
            total += i
        a = self._cal_symbols
        for _ in range(6):
            np.bincount(a * 2 + a[::-1], minlength=4)
        v = np.ones(len(self._cal_matrix))
        for _ in range(8):
            v = self._cal_matrix @ v
            v /= v.sum()
        for _ in range(4):
            np.ones(4_000_000).sum()
        return time.perf_counter() - t0

    def maybe_calibrate(self):
        if time.perf_counter() - self._cal_end >= CAL_EVERY_S:
            self.calibrations.append(self.calibrate())
            self._cal_end = time.perf_counter()

    def speed(self) -> float:
        """CAL_REF_S over the median calibration since the last reset."""
        return CAL_REF_S / median(self.calibrations)

    def close(self, abort: bool = False):
        """Stop the launcher and wait for it.  With abort, it first kills
        the operation it is running."""
        if abort:
            self.launcher.terminate()
        self.launcher.stdin.close()
        try:
            self.launcher.wait(timeout=OP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.launcher.kill()
            self.launcher.wait()

    def child(self, cmd: list[str]) -> tuple[float, float, int, Path]:
        """Run cmd to completion; return (wall s, peak RSS MB, exit code,
        stdout path).  A failing child's stderr is kept next to its stdout."""
        self.n_children += 1
        out_path = self.work / f"stdout-{self.n_children}.txt"
        request = {"cmd": cmd, "stdout": str(out_path), "timeout": OP_TIMEOUT_S}
        self.launcher.stdin.write(json.dumps(request) + "\n")
        self.launcher.stdin.flush()
        line = self.launcher.stdout.readline()
        if not line:
            raise RuntimeError("the launcher process ended unexpectedly")
        reply = json.loads(line)
        if reply["returncode"] == 0:
            Path(str(out_path) + ".err").unlink()
        return reply["wall_s"], reply["maxrss_kb"] / 1024.0, reply["returncode"], out_path

    def run(self, op: Op, trace: str | None = None) -> OpRun:
        spans_path = self.work / f"spans-{self.n_children + 1}.json"
        if op.library:
            cmd = [sys.executable, str(HERE / "worker.py")]
            if trace:
                cmd += ["--trace", trace, "--spans", str(spans_path), "--op-id", op.kind]
            cmd += ["lib", *op.argv]
        elif trace:
            cmd = [sys.executable, str(HERE / "worker.py"), "--trace", trace,
                   "--spans", str(spans_path), "--op-id", op.kind, "cli", *op.argv]
        else:
            cmd = [sys.executable, "-m", "infostorage.cli", *op.argv]
        input_bytes = op.data.stat().st_size if op.data else 0
        wall, rss, rc, out_path = self.child(cmd)
        self.maybe_calibrate()
        text = out_path.read_text()
        output_bytes = len(text.encode()) + sum(p.stat().st_size for p in op.outputs if p.exists())
        out_path.unlink()
        if rc != 0:
            err_path = Path(str(out_path) + ".err")
            errors, gap = [f"exit code {rc}: {err_path.read_text()[-300:]}"], None
            err_path.unlink()
        else:
            try:
                errors, gap = op.check(text)
            except (KeyError, TypeError, ValueError) as e:
                errors, gap = [f"malformed output: {e!r}"], None
        time_s = wall
        if op.library and rc == 0:
            try:
                time_s = json.loads(text.splitlines()[-1])["time_s"]
            except (IndexError, KeyError, json.JSONDecodeError):
                pass  # already counted as a failure by the check
        spans = None
        if trace and spans_path.exists():
            spans = json.loads(spans_path.read_text())
            spans_path.unlink()
        return OpRun(op.kind, wall, time_s, rss, errors, gap, input_bytes,
                     0 if op.library else output_bytes, spans)

    def setup(self, workload: Workload, seed: int) -> float:
        """One set-up: a fresh interpreter importing the package, plus the
        workload's input preparation.  Returns its duration in seconds."""
        probe = [sys.executable, "-c", "import infostorage, sys; sys.stdout.write(infostorage.__file__)"]
        t0 = time.perf_counter()
        _, _, rc, out_path = self.child(probe)
        workload.prepare(self.work, seed)
        elapsed = time.perf_counter() - t0
        self.maybe_calibrate()
        where = out_path.read_text()
        out_path.unlink()
        if rc != 0 or not Path(where).resolve().is_relative_to(SRC):
            raise SystemExit(f"infostorage must import from {SRC}; got {where!r} (exit {rc})")
        return elapsed


# ---------------------------------------------------------------- metrics


SELF_GROUPS = {
    "symseq.count_joint.s": {"symseq.count_joint"},
    "estimators.plugin.s": {"estimators.plugin_distribution"},
    "estimators.entropy.s": {"estimators.entropy", "estimators.conditional_entropy",
                             "estimators.mutual_information",
                             "estimators.conditional_mutual_information"},
    "infodyn.average.s": {"infodyn.ais", "infodyn.icais", "infodyn.interaction", "infodyn.compute"},
    "infodyn.local.s": {"infodyn.local_ais", "infodyn.local_icais", "infodyn.local_interaction",
                        "infodyn.local_profile"},
    "infodyn.ensemble.s": {"infodyn.ensemble_average"},
    "infodyn.sweep_k.s": {"infodyn.sweep_k"},
    "procsim.generate.s": {"procsim.generate_input"},
    "procsim.simulate.s": {"procsim.simulate_unit", "procsim.make_unit"},
    "procsim.build.s": {"procsim.build_joint_chain"},
    "procsim.stationary.s": {"procsim.stationary_from_matrix", "procsim.stationary_distribution"},
    "procsim.joint.s": {"procsim.exact_joint", "procsim.oracle_joint"},
}
ALLOC_GROUPS = {
    "symseq.peak_alloc_mb": lambda name: name.startswith("symseq."),
    "infodyn.local.peak_alloc_mb": lambda name: name in SELF_GROUPS["infodyn.local.s"],
    "procsim.peak_alloc_mb": lambda name: name.startswith("procsim."),
}
OP_KINDS = ("generate", "analyze", "analyze_local", "sweep", "oracle", "pipeline", "table_unit")
OP_METRIC = {kind: f"{kind}_s" for kind in OP_KINDS}



def self_times(spans: list[list]) -> list[float]:
    """A span's self time: its duration minus its children's.  Calls are
    synchronous, so children are disjoint and inside their parent."""
    child = [0.0] * len(spans)
    for sid, parent, _name, start, end, _alloc in spans:
        if parent is not None:
            child[parent] += end - start
    return [(s[4] - s[3]) - child[s[0]] for s in spans]


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def span_metrics(timed: dict, alloc: dict | None) -> tuple[dict, dict]:
    """Per-layer metrics of one operation from its timed and alloc spans;
    also the root-vs-self-sum accounting for the report."""
    spans = timed["spans"]
    selfs = self_times(spans)
    m: dict[str, float] = defaultdict(float)
    for span, self_s in zip(spans, selfs):
        name, layer = span[2], layer_of(span[2])
        m[f"{layer}.self_s"] += self_s
        m[f"{layer}.calls"] += 1
        for metric, names in SELF_GROUPS.items():
            if name in names:
                m[metric] += self_s
        if name == "symseq.count_joint":
            m["symseq.count_joint.calls"] += 1
    for key, value in timed["counters"].items():
        m[key] += value
    if alloc is not None:
        for span in alloc["spans"]:
            for metric, member in ALLOC_GROUPS.items():
                if member(span[2]) and span[5] is not None:
                    m[metric] = max(m[metric], span[5] / 2**20)
    roots = [s for s in spans if s[1] is None]
    accounting = {
        "root": roots[0][2] if roots else None,
        "n_roots": len(roots),
        "root_s": sum(s[4] - s[3] for s in roots),
        "self_sum_s": sum(selfs),
        "n_spans": len(spans),
        "layers": {layer: m[f"{layer}.self_s"] for layer in sorted({layer_of(s[2]) for s in spans})},
    }
    return m, accounting


def layer_metrics(traced: list[list[tuple[OpRun, OpRun]]], passes: list[list[OpRun]],
                  speed: float):
    """Per round, the per-layer metrics summed over its operations (peaks:
    the largest; times scaled by speed); also each operation's raw span
    accounting and scaled tracing overhead."""
    layer_rounds, accounts = [], []
    for rnd, base in zip(traced, passes):
        per_round: dict[str, float] = defaultdict(float)
        for (timed, alloc), plain in zip(rnd, base):
            if timed.spans is None:
                continue
            m, acct = span_metrics(timed.spans, alloc.spans)
            overhead = (timed.wall_s - plain.wall_s) * speed
            accounts.append((timed.kind, acct, overhead))
            for key, value in m.items():
                if key.endswith("peak_alloc_mb"):
                    per_round[key] = max(per_round[key], value)
                else:
                    per_round[key] += value * speed if key.endswith((".s", "_s")) else value
            per_round["trace.overhead_s"] += overhead
        for plain in base:
            per_round["cli.input_bytes"] += plain.input_bytes
            per_round["cli.output_bytes"] += plain.output_bytes
        layer_rounds.append(per_round)
    return layer_rounds, accounts


def median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(setups: list[float], passes: list[list[OpRun]], speed: float) -> dict:
    """Times scaled by speed (see CAL_REF_S).  time_to_result_s sums, over
    the operations of one pass, each operation's median over passes."""
    n_ops = len(passes[0])
    per_position = [median([p[i].time_s for p in passes]) * speed for i in range(n_ops)]
    runs = [r for p in passes for r in p]
    return {
        "setup_s": (median(setups) * speed, "s"),
        "time_to_result_s": (sum(per_position), "s"),
        "peak_rss_mb": (max(r.rss_mb for r in runs), "MB"),
    }


def op_times(passes: list[list[OpRun]], speed: float) -> dict[str, tuple[float, float, int]]:
    """Per operation kind: the median over passes of its summed time in a
    pass (oracle_s sums the unit x drive pairs), scaled and raw, with the
    sample count."""
    out = {}
    for kind in OP_KINDS:
        if any(r.kind == kind for r in passes[0]):
            raw = median([sum(r.time_s for r in p if r.kind == kind) for p in passes])
            out[OP_METRIC[kind]] = (raw * speed, raw, len(passes))
    return out


def oracle_gap(runs: list[OpRun]) -> float | None:
    gaps = [r.gap for r in runs if r.gap is not None]
    return max(gaps) if gaps else None


# ------------------------------------------------------------------ report


def heldout_seed(seed: int) -> int:
    digest = hashlib.sha256(f"infostorage-heldout-{seed}".encode()).digest()
    return 2**31 + int.from_bytes(digest[:4], "big") % 2**31


def _line(name, value, unit, note=""):
    shown = "n/a" if value is None else f"{value:.6g}"
    print(f"  {name:<30} {shown:>14} {unit:<6} {note}")


def measure(workload: Workload, seed: int, seconds: float, trace: bool, runner: Runner,
            per_layer: list[dict]) -> dict:
    runner.calibrations.clear()
    setups = [runner.setup(workload, seed) for _ in range(SETUP_REPEATS)]
    ops = workload.ops(runner.work, seed)
    t_start = time.perf_counter()
    passes: list[list[OpRun]] = []
    traced: list[list[tuple[OpRun, OpRun]]] = []
    round_times: list[float] = []
    while True:
        t0 = time.perf_counter()
        if trace:
            round_runs, round_traced = [], []
            for op in ops:
                round_runs.append(runner.run(op))
                round_traced.append((runner.run(op, "spans"), runner.run(op, "alloc")))
            passes.append(round_runs)
            traced.append(round_traced)
        else:
            passes.append([runner.run(op) for op in ops])
        round_times.append(time.perf_counter() - t0)
        # Start another pass only if it is expected to end by half a pass
        # after the budget; at least one pass always runs.
        if time.perf_counter() - t_start + 0.5 * median(round_times) >= seconds:
            break
    all_runs = [r for p in passes for r in p] + [r for t in traced for pair in t for r in pair]
    failed = [r for r in all_runs if r.errors]
    result = {"correct": not failed, "attempted": len(all_runs), "failed": len(failed)}

    print(f"workload {workload.name}  seed {seed}  {'traced' if trace else 'untraced'}  "
          f"{len(passes)} pass(es) of {len(ops)} operation(s)  threads {THREADS}")
    for r in failed:
        print(f"  FAILED {r.kind}: {'; '.join(r.errors)[:400]}")
    speed = runner.speed()
    e2e = end_to_end(setups, passes, speed)
    times = op_times(passes, speed)
    cals = runner.calibrations
    print(f"  times scaled by {speed:.4f} = CAL_REF_S {CAL_REF_S} s / median of {len(cals)} "
          f"calibrations ({min(cals):.4f}..{max(cals):.4f} s)")
    gap = oracle_gap(all_runs) if workload.empirical else None
    if not trace:
        _line("setup_s", e2e["setup_s"][0], "s",
              f"median of {len(setups)} set-ups; raw {median(setups):.4f} s")
        for kind in OP_KINDS[:-1]:
            value, raw, n = times.get(OP_METRIC[kind], (None, None, 0))
            _line(OP_METRIC[kind], value, "s",
                  f"median of {n}; raw {raw:.4f} s" if n else "no such operation")
        _line("peak_rss_mb", e2e["peak_rss_mb"][0], "MB", f"max over {len(all_runs)} operations")
        _line("oracle_gap_bits", gap, "bits", "" if workload.empirical else "not an empirical workload")
        _line("failed_frac", len(failed) / len(all_runs), "", f"{len(failed)} of {len(all_runs)}")
        _line("time_to_result_s", e2e["time_to_result_s"][0], "s",
              f"sum of per-operation medians; raw {e2e['time_to_result_s'][0] / speed:.4f} s")
        result["metrics"] = {k: {"value": v, "unit": unit} for k, (v, unit) in e2e.items()}
        return result

    layer_rounds, accounts = layer_metrics(traced, passes, speed)
    for kind, acct, overhead in accounts:
        print(f"  {kind:<14} root {acct['root']} x{acct['n_roots']}  {acct['root_s']:.4f} s"
              f"  self sum {acct['self_sum_s']:.4f} s  spans {acct['n_spans']}"
              f"  tracing overhead {overhead:+.3f} s")
        print("      self s: " + "  ".join(f"{k} {v:.4f}" for k, v in acct["layers"].items()))
    worst = max((abs(a["root_s"] - a["self_sum_s"]) for _, a, _ in accounts), default=0.0)
    print(f"  layer self times sum to their root span within {worst:.2e} s")
    metrics = {}
    spans_path = write_spans(workload.name, seed, [
        {"op": r.kind, "pass": mode, **r.spans}
        for rnd in traced for pair in rnd for mode, r in zip(("spans", "alloc"), pair) if r.spans])
    print(f"  spans written to {spans_path.relative_to(ROOT)}")
    for spec in per_layer:
        name = spec["name"]
        if name in OP_METRIC.values():
            value = times.get(name, (0.0, 0.0, 0))[0]
        elif name == "oracle_gap_bits":
            value = gap or 0.0
        elif name == "failed_frac":
            value = len(failed) / len(all_runs)
        elif name == "symseq.occupancy":
            occ = [r["symseq.cells_occupied"] / r["symseq.cells_allocated"]
                   for r in layer_rounds if r["symseq.cells_allocated"]]
            value = median(occ)
        else:
            value = median([r[name] for r in layer_rounds])
        metrics[name] = {"value": value, "unit": spec["unit"]}
        _line(name, value, spec["unit"])
    result["metrics"] = metrics
    return result


def write_spans(workload: str, seed: int, records: list) -> Path:
    path = OUT_DIR / f"spans-{workload}-seed{seed}.json"
    path.write_text(json.dumps(records))
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--heldout", action="store_true",
                        help="use the held-out seed derived from --seed")
    args = parser.parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not (SRC / "infostorage" / "__init__.py").is_file():
        sys.stderr.write(f"no infostorage sources under {SRC}; run inside a checkout\n")
        return 2
    seconds = args.seconds if args.seconds is not None else benchmark["run_seconds"]
    seed = heldout_seed(args.seed) if args.heldout else args.seed
    if args.heldout:
        print(f"held-out seed {seed} (derived from --seed {args.seed})")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    work = OUT_DIR / f"work-{os.getpid()}"
    work.mkdir()
    results = {}
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    runner = Runner(work)
    aborted = True
    try:
        for name in names:
            results[name] = measure(WORKLOADS[name], seed, seconds, bool(args.trace), runner,
                                    benchmark["per_layer"])
            if len(names) > 1:
                print(json.dumps(results[name]))
        aborted = False
    finally:
        runner.close(abort=aborted)
        shutil.rmtree(work, ignore_errors=True)
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {name: r["metrics"] for name, r in results.items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
