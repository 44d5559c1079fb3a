"""One campaign of one workload, in a fresh process.

``run.py`` starts this script once per round, so every round pays the
set-up a user pays per campaign (imports excluded). Modes:

* ``round`` — build the campaign (timed: ``setup_s``), run it to its
  verdict (timed: ``run_s``), then check the outputs. The
  :class:`~probe.SpeedProbe` samples the host's speed throughout, and
  both phases are timed on its clock: the campaign's CPU time per vCPU,
  without the probe's own. Both are also timed on the wall clock;
* ``traced`` — the same with :mod:`tracing` wrappers installed before
  set-up, writing the spans of the coordinator and the pool's workers,
  and no probe;
* ``reference`` — the run whose verdict the rounds must match, made on a
  different schedule: the ``dfs`` searcher for ``dse-*``, a serial
  :class:`~repro.core.fuzzer.SnapshotFuzzer` for ``fuzz-2w`` (which also
  counts the guest instructions the campaign executes).

The result is one JSON object on the last line of standard output.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402
from probe import SpeedProbe  # noqa: E402

#: Instruction budget of a DSE campaign: far above what any workload
#: needs, so every campaign ends ``exhausted``.
MAX_INSTRUCTIONS = 50_000_000


def _hwm_mb(pid: int) -> float:
    """Peak resident set of *pid* (VmHWM), in MiB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def _peak_rss_mb() -> float:
    """Peak RSS of this process plus every live child (pool workers)."""
    return _hwm_mb(os.getpid()) + sum(
        _hwm_mb(child.pid) for child in multiprocessing.active_children())


def _dse_session(spec, searcher: str):
    from repro import HardSnapSession
    from repro.peripherals import catalog
    firmware = workloads.dispatcher_firmware(spec.durations)
    return HardSnapSession(firmware, [(catalog.TIMER, workloads.TIMER_BASE)],
                           searcher=searcher, seed=spec.searcher_seed)


class _Phase:
    """Times one phase on *clock* and on the wall clock."""

    def __init__(self, clock):
        self.clock = clock
        self.t0, self.w0 = clock(), time.perf_counter()

    def stop(self):
        return self.clock() - self.t0, time.perf_counter() - self.w0


def _dse_counts(session, report) -> dict:
    stats = session.solver.stats
    return {"modelled_s": report.modelled_time_s,
            "paths": len(report.paths),
            "instructions": report.instructions,
            "forks": report.forks,
            "snapshot_saves": report.snapshot_saves,
            "snapshot_restores": report.snapshot_restores,
            "solver_queries": stats.queries,
            "solver_query_cache_hits": stats.query_cache_hits,
            "solver_model_cache_hits": stats.model_cache_hits,
            "target_cycles": session.target.cycles}


def _fuzz_counts(report) -> dict:
    return {"modelled_s": report.modelled_time_s,
            "executions": report.executions,
            "crashes": len(report.crashes),
            "corpus": report.corpus_size,
            "edges": report.edges_covered}


def reference(spec) -> dict:
    """The verdict digest every round must reproduce, from another
    schedule; for ``fuzz-2w`` also the guest instructions executed."""
    if isinstance(spec, workloads.DseSpec):
        session = _dse_session(spec, "dfs")
        report = session.run(max_instructions=MAX_INSTRUCTIONS)
        return {"verdict": workloads.digest(report.verdict_summary()),
                "problems": workloads.check_dse_paths(spec, report)}
    from repro.core import fuzzer as fuzz_mod
    from repro.core.hardsnap import make_target
    from repro.core.config import SessionConfig
    from repro.firmware import fuzz_packet_parser
    from repro.isa.assembler import assemble
    from repro.peripherals import catalog

    steps = [0]

    class CountingCpu(fuzz_mod.Cpu):
        def step(self):
            steps[0] += 1
            return super().step()

    target = make_target(SessionConfig())
    target.add_peripheral(catalog.TIMER, workloads.TIMER_BASE)
    serial = fuzz_mod.SnapshotFuzzer(
        assemble(fuzz_packet_parser()), target, seeds=list(spec.seeds),
        seed=spec.fuzz_seed)
    original, fuzz_mod.Cpu = fuzz_mod.Cpu, CountingCpu
    try:
        report = serial.run(spec.executions, batch_size=spec.batch_size)
    finally:
        fuzz_mod.Cpu = original
    return {"verdict": workloads.digest(report.verdict_summary()),
            "instructions": steps[0], "problems": []}


def campaign(spec, work_dir: Path, rec=None,
             clock=time.perf_counter) -> dict:
    """Set up and run one campaign; *rec* adds the root span. Phases are
    timed with *clock* and, under ``wall``, with the wall clock."""

    def run(fn, *args, **kwargs):
        if rec is None:
            return fn(*args, **kwargs)
        return rec.span(tracing.ROOT, fn, *args, **kwargs)

    if isinstance(spec, workloads.DseSpec):
        setup = _Phase(clock)
        session = _dse_session(spec, spec.searcher)
        setup_s, wall_setup_s = setup.stop()
        running = _Phase(clock)
        report = run(session.run, max_instructions=MAX_INSTRUCTIONS)
        run_s, wall_run_s = running.stop()
        return {"setup_s": setup_s, "run_s": run_s,
                "wall": {"setup_s": wall_setup_s, "run_s": wall_run_s},
                "peak_rss_mb": _peak_rss_mb(),
                "verdict": workloads.digest(report.verdict_summary()),
                "problems": workloads.check_dse_paths(spec, report),
                "counts": _dse_counts(session, report),
                "paths": len(report.paths),
                "instructions": report.instructions, "ipc": {}}
    from repro.firmware import fuzz_packet_parser
    from repro.parallel import ParallelFuzzer
    from repro.peripherals import catalog
    firmware = fuzz_packet_parser()
    journal = work_dir / "journal"
    setup = _Phase(clock)
    fuzzer = ParallelFuzzer(firmware, [(catalog.TIMER, workloads.TIMER_BASE)],
                            seeds=list(spec.seeds), seed=spec.fuzz_seed,
                            workers=spec.workers,
                            batch_size=spec.batch_size, journal=journal)
    try:
        fuzzer.warm()
        setup_s, wall_setup_s = setup.stop()
        running = _Phase(clock)
        report = run(fuzzer.run, spec.executions)
        run_s, wall_run_s = running.stop()
        peak = _peak_rss_mb()
        ipc = fuzzer.pool_stats.ipc
    finally:
        fuzzer.close()
    shutil.rmtree(journal, ignore_errors=True)
    return {"setup_s": setup_s, "run_s": run_s,
            "wall": {"setup_s": wall_setup_s, "run_s": wall_run_s},
            "peak_rss_mb": peak,
            "verdict": workloads.digest(report.verdict_summary()),
            "problems": [], "counts": _fuzz_counts(report),
            "paths": report.executions, "instructions": None,
            "ipc": {"bytes_out": ipc.queue_bytes_out + ipc.shm_bytes_out,
                    "bytes_in": ipc.queue_bytes_in + ipc.shm_bytes_in,
                    "encode_s": ipc.encode_s, "decode_s": ipc.decode_s,
                    "worker_encode_s": ipc.worker_encode_s,
                    "worker_decode_s": ipc.worker_decode_s}}


def traced_campaign(spec, work_dir: Path, trace_path: Path = None) -> dict:
    """:func:`campaign` with every :data:`tracing.WRAPS` entry wrapped;
    adds the per-layer metrics and layer table, and writes the Chrome
    trace when *trace_path* is given."""
    rec = tracing.Recorder()
    spans_dir = work_dir / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    rec.follow_forks(spans_dir)
    uninstall = tracing.install(rec)
    try:
        result = campaign(spec, work_dir, rec)
    finally:
        uninstall()
    dumps = [rec.dump()] + tracing.load_worker_dumps(spans_dir)
    shutil.rmtree(spans_dir, ignore_errors=True)
    window = tracing.root_window(dumps[0])
    rows = tracing.merge_self_times(dumps, window)
    result["layers"] = layer_metrics(dumps, rows, window, result["ipc"])
    result["layer_table"] = tracing.layer_table(dumps, window)
    if trace_path is not None:
        tracing.chrome_trace(dumps, trace_path)
    return result


def layer_metrics(dumps, rows, window, ipc: dict) -> dict:
    """The per-layer metrics of one traced campaign (names as in
    ``BENCHMARK.json``'s ``per_layer``) from its span dumps, their
    merged self times *rows* inside the campaign *window*, and the pool's
    IPC stats."""
    coordinator = tracing.self_times(dumps[0], window)

    def calls(name):
        return rows.get(name, (0, 0, 0))[0]

    def self_s(name):
        return rows.get(name, (0, 0, 0))[2] / 1e9

    counters, latest = {}, {}
    for dump in dumps:
        for key, value in dump["counters"].items():
            counters[key] = counters.get(key, 0) + value
        for key, values in dump["latest"].items():
            acc = latest.setdefault(key, [0] * len(values))
            for i, v in enumerate(values):
                acc[i] += v
    queries, query_hits, model_hits = latest.get("solver", (0, 0, 0))
    stored, logical = latest.get("store", (0, 0))
    run_ns = window[1] - window[0]
    return {
        "engine.self_s": self_s("engine"),
        "search.select.calls": calls("search.select"),
        "search.select.self_s": self_s("search.select"),
        "vm.step_block.calls": calls("vm.step_block"),
        "vm.step_block.self_s": self_s("vm.step_block"),
        "vm.instructions": counters.get("vm.instructions", 0),
        "bridge.mmio.calls": calls("bridge.mmio"),
        "bridge.mmio.self_s": self_s("bridge.mmio"),
        "solver.check.calls": calls("solver.check"),
        "solver.check.self_s": self_s("solver.check"),
        "solver.sat_searches": queries - model_hits,
        "solver.cache_hits": query_hits + model_hits,
        "solver.cache_hit_ratio": ((query_hits + model_hits)
                                   / calls("solver.check")
                                   if calls("solver.check") else 0.0),
        "target.step.calls": calls("target.step"),
        "target.step.cycles": counters.get("target.step.cycles", 0),
        "target.step.self_s": self_s("target.step"),
        "target.mmio.calls": calls("target.mmio"),
        "target.mmio.self_s": self_s("target.mmio"),
        "scan.save.calls": calls("scan.save"),
        "scan.save.self_s": self_s("scan.save"),
        "scan.restore.calls": calls("scan.restore"),
        "scan.restore.self_s": self_s("scan.restore"),
        "snapshot.save.self_s": self_s("snapshot.save"),
        "snapshot.restore.self_s": self_s("snapshot.restore"),
        "store.put.calls": calls("store.put"),
        "store.put.self_s": self_s("store.put"),
        "store.resolve.calls": calls("store.resolve"),
        "store.resolve.self_s": self_s("store.resolve"),
        "store.stored_to_logical": stored / logical if logical else 0.0,
        "fuzz.exec.calls": calls("fuzz.exec"),
        "fuzz.exec.self_s": self_s("fuzz.exec"),
        "pool.submit.self_s": self_s("pool.submit"),
        "pool.wait_s": rows.get("pool.wait", (0, 0, 0))[1] / 1e9,
        "ipc.bytes_out": ipc.get("bytes_out", 0),
        "ipc.bytes_in": ipc.get("bytes_in", 0),
        "ipc.encode_s": ipc.get("encode_s", 0.0),
        "ipc.decode_s": ipc.get("decode_s", 0.0),
        "ipc.worker_encode_s": ipc.get("worker_encode_s", 0.0),
        "ipc.worker_decode_s": ipc.get("worker_decode_s", 0.0),
        "journal.append.calls": calls("journal.append"),
        "journal.append.self_s": self_s("journal.append"),
        "journal.blob.calls": calls("journal.blob"),
        "journal.blob.self_s": self_s("journal.blob"),
        "journal.commit.self_s": self_s("journal.commit"),
        "trace.run_s": run_ns / 1e9,
        # Coordinator time inside the campaign that no layer span covers
        # (merge, scheduling, envelope decode); the coordinator's layer
        # self times plus this sum to trace.run_s.
        "trace.unattributed_s": coordinator[tracing.ROOT][2] / 1e9,
        "trace.worker_processes": len(dumps) - 1,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True,
                        choices=("round", "traced", "reference"))
    parser.add_argument("--work-dir", type=Path, required=True)
    parser.add_argument("--trace-file", type=Path)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)
    spec = workloads.make_spec(args.workload, args.seed, args.tiny)
    args.work_dir.mkdir(parents=True, exist_ok=True)
    if isinstance(spec, workloads.DseSpec):
        # A serial campaign runs pinned to one vCPU, so its CPU time per
        # vCPU (the probe's clock) is its CPU time.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    from repro.core.shutdown import graceful_shutdown
    with graceful_shutdown():
        if args.mode == "reference":
            result = reference(spec)
        elif args.mode == "round":
            with SpeedProbe() as probe:
                result = campaign(spec, args.work_dir, clock=probe.clock)
            result["speed"] = {"scale": probe.scale(),
                               "samples": len(probe.samples),
                               "probe_s": probe.busy_s}
        else:
            result = traced_campaign(spec, args.work_dir, args.trace_file)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
