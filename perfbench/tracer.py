"""In-memory span tracer for the benchmark's traced runs.

``install`` wraps every public function of the five infostorage modules at
every binding it is reachable through: the defining module, every module
that imported it by name, the package namespace, and module-level dispatch
dicts such as ``cli._COMMANDS`` and ``infodyn._MEASURE_FNS``.  Calls inside
a module go through its globals, so they are caught too (for example
``procsim.exact_joint`` -> ``stationary_distribution`` ->
``stationary_from_matrix``).  The ``__post_init__`` validators of the
modules' dataclasses are wrapped as well, since they copy and scan whole
arrays.

Each call records one span ``[span_id, parent_id, name, start, end,
alloc_bytes]`` in memory; ``dump`` writes them out once the operation has
ended.  With ``alloc=True`` every span also records the tracemalloc peak
above the memory in use when it started, its children included.  Timing
and allocation tracing run in separate passes, because tracemalloc slows
allocation-heavy Python code and would distort self times.

Probes read table sizes off return values.  They run as child spans named
``trace.probe``, so their cost lands in the tracing layer and not in the
caller's self time.
"""

from __future__ import annotations

import functools
import json
import time
import tracemalloc
import types
from contextlib import contextmanager

ALLOC_LAYERS = ("symseq", "estimators", "infodyn", "procsim")


def _probe_count_joint(counters, table):
    counts = table.counts
    counters["symseq.cells_allocated"] += int(counts.size)
    counters["symseq.cells_occupied"] += int((counts != 0).sum())
    extra = table.transitions.nbytes if table.transitions is not None else 0
    counters["symseq.table_bytes"] += int(counts.nbytes + extra)


def _probe_build_joint_chain(counters, model):
    counters["procsim.states"] += int(model.n_states)
    counters["procsim.transition_bytes"] += int(model.transition.nbytes)


PROBES = {
    "symseq.count_joint": _probe_count_joint,
    "procsim.build_joint_chain": _probe_build_joint_chain,
}
COUNTERS = (
    "symseq.cells_allocated",
    "symseq.cells_occupied",
    "symseq.table_bytes",
    "procsim.states",
    "procsim.transition_bytes",
)


class Tracer:
    """Records spans of one operation in memory.

    With ``alloc=True``, tracemalloc runs only while a span of a library
    layer (``ALLOC_LAYERS``) is open: the CLI's per-cell CSV parsing would
    otherwise run many times slower under it, and its allocations are not
    reported.  Memory allocated before tracing started is not counted, which
    is right for a peak measured above each span's starting point.
    """

    def __init__(self, op_id: str, alloc: bool = False):
        self.op_id = op_id
        self.alloc = alloc
        self.spans: list[list] = []
        self.counters = {name: 0 for name in COUNTERS}
        self._stack: list[list] = []
        self._frames: list[list[int]] = []  # [span id, bytes at entry, peak so far]

    def enter(self, name: str) -> list:
        span = [len(self.spans), self._stack[-1][0] if self._stack else None, name, None, None, None]
        if self.alloc and (self._frames or name.split(".", 1)[0] in ALLOC_LAYERS):
            if not self._frames:
                tracemalloc.start()
            current, peak = tracemalloc.get_traced_memory()
            if self._frames:
                self._frames[-1][2] = max(self._frames[-1][2], peak)
            tracemalloc.reset_peak()
            self._frames.append([span[0], current, current])
        self.spans.append(span)
        self._stack.append(span)
        span[3] = time.perf_counter()
        return span

    def exit(self, span: list):
        span[4] = time.perf_counter()
        self._stack.pop()
        if self._frames and self._frames[-1][0] == span[0]:
            _, peak = tracemalloc.get_traced_memory()
            _, base, top = self._frames.pop()
            top = max(top, peak)
            span[5] = top - base
            if self._frames:
                self._frames[-1][2] = max(self._frames[-1][2], top)
            else:
                tracemalloc.stop()

    @contextmanager
    def span(self, name: str):
        span = self.enter(name)
        try:
            yield
        finally:
            self.exit(span)

    def wrap(self, fn, name: str):
        probe = PROBES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit(span)
            if probe is not None:
                with self.span("trace.probe"):
                    probe(self.counters, result)
            return result

        return traced

    def dump(self, path: str):
        with open(path, "w") as fh:
            json.dump({"op": self.op_id, "spans": self.spans, "counters": self.counters}, fh)


def install(tracer: Tracer):
    """Wrap the package's public functions at every binding."""
    import infostorage
    from infostorage import cli, estimators, infodyn, procsim, symseq

    modules = {"cli": cli, "symseq": symseq, "estimators": estimators,
               "infodyn": infodyn, "procsim": procsim}
    wrapped = {}
    for layer, mod in modules.items():
        for attr, obj in vars(mod).items():
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if isinstance(obj, types.FunctionType) and not attr.startswith("_"):
                wrapped[obj] = tracer.wrap(obj, f"{layer}.{attr}")
            elif isinstance(obj, type) and "__post_init__" in vars(obj):
                init = vars(obj)["__post_init__"]
                obj.__post_init__ = tracer.wrap(init, f"{layer}.{attr}.__post_init__")
    for ns in (infostorage, *modules.values()):
        for attr, obj in list(vars(ns).items()):
            if isinstance(obj, types.FunctionType) and obj in wrapped:
                setattr(ns, attr, wrapped[obj])
            elif isinstance(obj, dict):
                for key, val in obj.items():
                    if isinstance(val, types.FunctionType) and val in wrapped:
                        obj[key] = wrapped[val]
