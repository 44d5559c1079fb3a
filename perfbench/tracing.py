"""Span tracing from outside the program, for the benchmark's traced run.

:func:`install` wraps public functions of the library (listed in
:data:`WRAPS`) so that every call records a span: name, start, end,
parent span and pid. Spans stay in memory in compact arrays until the
process ends; worker processes forked by the pool inherit the wrappers
and write their spans to a file when they exit (see :meth:`Recorder.
follow_forks`). Nothing in ``src/repro`` is changed.

Self time of a span is its duration minus the part of its interval that
its child spans cover (:func:`self_times`). :func:`chrome_trace` writes
the spans as Chrome trace-event JSON, one track per pid, which opens in
Perfetto.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import pickle
import threading
import time
from array import array
from collections import defaultdict
from multiprocessing import util as mp_util
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Tuple

#: Name of the benchmark's own root span around one campaign.
ROOT = "campaign"


class Recorder:
    """In-memory span store of one process (main thread only).

    The journal's blob writer runs on a background thread; calls from any
    thread but the one that installed the recorder pass through untraced,
    so the span stack is never shared between threads.
    """

    def __init__(self, role: str = "coordinator"):
        self.role = role
        self.pid = os.getpid()
        self.tid = threading.get_ident()
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_ix = array("H")
        self.parent = array("l")
        self.start = array("q")
        self.end = array("q")
        self.stack: List[int] = []
        #: Work counts gathered at the span boundaries (cycles stepped,
        #: instructions executed).
        self.counters: Dict[str, int] = defaultdict(int)
        #: Latest cumulative stats per library object, keyed by
        #: (kind, id(object)); summed over objects when read.
        self.latest: Dict[Tuple[str, int], Tuple[int, ...]] = {}
        self._dump_dir: Optional[Path] = None

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name: str, fn: Callable, *args, **kwargs):
        """Call *fn* inside a span named *name*."""
        if threading.get_ident() != self.tid:
            return fn(*args, **kwargs)
        ix = len(self.start)
        self.name_ix.append(self.name_id(name))
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.start.append(time.perf_counter_ns())
        self.end.append(0)
        self.stack.append(ix)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[ix] = time.perf_counter_ns()
            self.stack.pop()

    def dump(self) -> dict:
        """This process's spans and counts as one picklable dict."""
        latest: Dict[str, List[int]] = {}
        for (kind, _obj), values in self.latest.items():
            acc = latest.setdefault(kind, [0] * len(values))
            for i, v in enumerate(values):
                acc[i] += v
        return {"pid": self.pid, "role": self.role, "names": list(self.names),
                "name_ix": self.name_ix, "parent": self.parent,
                "start": self.start, "end": self.end,
                "counters": dict(self.counters), "latest": latest}

    # -- worker processes ---------------------------------------------------

    def follow_forks(self, dump_dir: Path) -> None:
        """Make forked multiprocessing children keep their own spans and
        write them to *dump_dir* when they exit.

        ``register_after_fork`` runs after multiprocessing has cleared
        the child's finalizer registry, so the flush registered there
        survives and runs when the worker's target returns."""
        self._dump_dir = Path(dump_dir)
        mp_util.register_after_fork(self, Recorder._after_fork)

    def _after_fork(self) -> None:
        dump_dir = self._dump_dir
        self.__init__(role="worker")
        self._dump_dir = dump_dir
        mp_util.Finalize(None, self._flush, exitpriority=100)

    def _flush(self) -> None:
        path = self._dump_dir / f"spans-{self.pid}.pkl"
        tmp = path.with_suffix(".tmp")
        with open(tmp, "wb") as fh:
            pickle.dump(self.dump(), fh, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(tmp, path)


def load_worker_dumps(dump_dir: Path) -> List[dict]:
    """Span dumps the worker processes wrote (this benchmark's own files)."""
    dumps = []
    for path in sorted(Path(dump_dir).glob("spans-*.pkl")):
        with open(path, "rb") as fh:
            dumps.append(pickle.load(fh))
    return dumps


# ---------------------------------------------------------------------------
# What is wrapped
# ---------------------------------------------------------------------------

def _count_instructions(rec: Recorder, args, kwargs, result) -> None:
    rec.counters["vm.instructions"] += result.executed


def _count_cycles(rec: Recorder, args, kwargs, result) -> None:
    rec.counters["target.step.cycles"] += (
        args[1] if len(args) > 1 else kwargs.get("cycles", 1))


def _note_solver(rec: Recorder, args, kwargs, result) -> None:
    stats = args[0].stats
    rec.latest[("solver", id(args[0]))] = (
        stats.queries, stats.query_cache_hits, stats.model_cache_hits)


def _note_store(rec: Recorder, args, kwargs, result) -> None:
    stats = args[0].stats
    rec.latest[("store", id(args[0]))] = (stats.stored_bits,
                                          stats.logical_bits)


#: (module, class or None for a module-level name, attribute, span name,
#: count hook). ``execute_input`` is wrapped where the pool's workers
#: look it up, in ``repro.parallel.workers``.
WRAPS = [
    ("repro.core.engine", "AnalysisEngine", "run", "engine", None),
    ("repro.vm.searchers", "Searcher", "select", "search.select", None),
    ("repro.vm.executor", "SymbolicExecutor", "step_block", "vm.step_block",
     _count_instructions),
    ("repro.vm.forwarding", "MmioBridge", "read", "bridge.mmio", None),
    ("repro.vm.forwarding", "MmioBridge", "write", "bridge.mmio", None),
    ("repro.solver.solver", "Solver", "check", "solver.check", _note_solver),
    ("repro.targets.base", "HardwareTarget", "step", "target.step",
     _count_cycles),
    ("repro.targets.base", "HardwareTarget", "read", "target.mmio", None),
    ("repro.targets.base", "HardwareTarget", "write", "target.mmio", None),
    ("repro.targets.fpga", "FpgaTarget", "save_snapshot", "scan.save", None),
    ("repro.targets.fpga", "FpgaTarget", "restore_snapshot", "scan.restore",
     None),
    ("repro.core.snapshot", "SnapshotController", "save", "snapshot.save",
     None),
    ("repro.core.snapshot", "SnapshotController", "restore",
     "snapshot.restore", None),
    ("repro.core.store", "SnapshotStore", "put", "store.put", _note_store),
    ("repro.core.store", "SnapshotStore", "resolve", "store.resolve", None),
    ("repro.parallel.workers", None, "execute_input", "fuzz.exec", None),
    ("repro.parallel.pool", "WorkerPool", "submit", "pool.submit", None),
    ("repro.parallel.pool", "WorkerPool", "next_result", "pool.wait", None),
    ("repro.core.journal", "Journal", "append", "journal.append", None),
    ("repro.core.journal", "Journal", "put_blob", "journal.blob", None),
    ("repro.core.journal", "Journal", "commit", "journal.commit", None),
]


def _traced(rec: Recorder, name: str, fn: Callable,
            hook: Optional[Callable]) -> Callable:
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        result = rec.span(name, fn, *args, **kwargs)
        if hook is not None:
            hook(rec, args, kwargs, result)
        return result
    return traced


def install(rec: Recorder) -> Callable[[], None]:
    """Wrap every entry of :data:`WRAPS`; returns the function that
    restores the originals. Install before building the session or the
    pool: the engine binds ``MmioBridge.read``/``write`` at construction
    and forked workers inherit whatever is installed at fork time."""
    undo = []
    for module_name, cls_name, attr, name, hook in WRAPS:
        module = importlib.import_module(module_name)
        owner = module if cls_name is None else getattr(module, cls_name)
        original = owner.__dict__[attr]
        setattr(owner, attr, _traced(rec, name, original, hook))
        undo.append((owner, attr, original))

    def uninstall() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
    return uninstall


# ---------------------------------------------------------------------------
# Self time
# ---------------------------------------------------------------------------

def self_times(dump: dict, window: Optional[Tuple[int, int]] = None
               ) -> Dict[str, Tuple[int, int, int]]:
    """Per span name: (calls, total ns, self ns) over one process's spans.

    A span's self time is its duration minus the union of its children's
    intervals, each clipped to the span. Spans must be listed in start
    order, as :class:`Recorder` appends them. With *window* = (start,
    end) only spans lying inside it count.
    """
    start, end, parent = dump["start"], dump["end"], dump["parent"]
    n = len(start)
    covered = array("q", bytes(8 * n))
    union_end = array("q", bytes(8 * n))
    for ix in range(n):
        p = parent[ix]
        if p < 0:
            continue
        cs = max(start[ix], start[p], union_end[p])
        ce = min(end[ix], end[p])
        if ce > cs:
            covered[p] += ce - cs
            union_end[p] = ce
    out: Dict[str, List[int]] = {}
    names = dump["names"]
    for ix, nid in enumerate(dump["name_ix"]):
        s, e = start[ix], end[ix]
        if window is not None and (s < window[0] or e > window[1]):
            continue
        acc = out.setdefault(names[nid], [0, 0, 0])
        acc[0] += 1
        acc[1] += e - s
        acc[2] += (e - s) - covered[ix]
    return {k: (v[0], v[1], v[2]) for k, v in out.items()}


def root_window(dump: dict) -> Tuple[int, int]:
    """Interval of the (single) campaign root span of the coordinator."""
    rid = dump["names"].index(ROOT)
    ix = dump["name_ix"].index(rid)
    return dump["start"][ix], dump["end"][ix]


def merge_self_times(dumps: Iterable[dict], window: Tuple[int, int]
                     ) -> Dict[str, Tuple[int, int, int]]:
    merged: Dict[str, List[int]] = {}
    for dump in dumps:
        for name, row in self_times(dump, window).items():
            acc = merged.setdefault(name, [0, 0, 0])
            for i in range(3):
                acc[i] += row[i]
    return {k: (v[0], v[1], v[2]) for k, v in merged.items()}


# ---------------------------------------------------------------------------
# Exports
# ---------------------------------------------------------------------------

def chrome_trace(dumps: List[dict], path: Path) -> None:
    """Write Chrome trace-event JSON: ``ph: X`` complete events, one
    track per pid, times in microseconds from the earliest span."""
    t0 = min((d["start"][0] for d in dumps if d["start"]), default=0)
    tmp = Path(path).with_suffix(".tmp")
    with open(tmp, "w") as fh:
        fh.write('{"displayTimeUnit":"ms","traceEvents":[\n')
        first = True
        for dump in dumps:
            pid = dump["pid"]
            meta = {"ph": "M", "name": "process_name", "pid": pid, "tid": pid,
                    "args": {"name": f"{dump['role']} {pid}"}}
            fh.write(("" if first else ",\n") + json.dumps(meta))
            first = False
            for ix, nid in enumerate(dump["name_ix"]):
                name = dump["names"][nid]
                start = dump["start"][ix]
                event = {"ph": "X", "name": name, "cat": name.split(".")[0],
                         "pid": pid, "tid": pid, "ts": (start - t0) / 1000.0,
                         "dur": (dump["end"][ix] - start) / 1000.0}
                fh.write(",\n" + json.dumps(event))
        fh.write("\n]}\n")
    os.replace(tmp, path)


def layer_table(dumps: List[dict], window: Tuple[int, int]) -> str:
    """Text table per role (coordinator, workers merged): calls, total
    and self seconds, and self time as a share of the campaign."""
    run_ns = window[1] - window[0]
    lines = []
    for role in ("coordinator", "worker"):
        group = [d for d in dumps if d["role"] == role]
        if not group:
            continue
        rows = merge_self_times(group, window)
        lines.append(f"{role} ({len(group)} "
                     f"process{'es' * (len(group) > 1)})")
        lines.append(f"  {'span':<16}{'calls':>10}{'total_s':>12}"
                     f"{'self_s':>12}{'self/run':>10}")
        for name, (calls, total, self_ns) in sorted(
                rows.items(), key=lambda kv: -kv[1][2]):
            lines.append(f"  {name:<16}{calls:>10}{total / 1e9:>12.4f}"
                         f"{self_ns / 1e9:>12.4f}{self_ns / run_ns:>10.1%}")
    return "\n".join(lines)
