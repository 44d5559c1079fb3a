"""E13 — journaling overhead: the event-sourced campaign log must be
nearly free.

Mirrors the E9 2-worker fuzzing cell (same firmware, seeds, batch size;
workload scaled until the serial baseline clears the measurement floor)
and runs it twice through :class:`~repro.parallel.ParallelFuzzer`:
journal off, then journal on (``journal=<dir>``, default checkpoint
cadence).  The journal-on run event-sources the whole campaign — setup
blob, per-shard result blobs, crash events, periodic checkpoints —
through :mod:`repro.core.journal`.

Two properties are asserted:

* **identity** (unconditional): journaling is observation, never
  behaviour — the journal-on verdict is byte-identical to journal-off;
* **overhead** (gated like E9's speedup: only when the host has the
  cores for the cell): best-of-N wall time with the journal on stays
  within ``MAX_OVERHEAD_PCT`` of journal-off.  The event log is
  synchronous but cheap (one flushed JSON frame per event); blob bodies
  are appended to the one ``blobs.pack`` file on the coordinator's
  thread, one buffered write and flush per blob, with an fsync for
  each checkpoint.

The coordinator's own CPU seconds (``getrusage(RUSAGE_SELF)`` around
``run``; workers are child processes and not counted) are recorded for
both cells too: the wall ratio is dominated by checkpoint fsync waits,
so the CPU the journal costs the coordinator is reported separately.

Emits ``benchmarks/out/BENCH_journal.json``; CI reads the gate back.
"""

import os
import resource
import time

from benchmarks.conftest import emit, emit_json
from repro.core import SnapshotFuzzer
from repro.core.journal import Journal
from repro.firmware import TIMER_BASE, fuzz_packet_parser
from repro.isa import assemble
from repro.parallel import ParallelFuzzer
from repro.peripherals import catalog
from repro.targets import FpgaTarget

TIMER = [(catalog.TIMER, TIMER_BASE)]
SEEDS = [bytes([1, 4, 0x41, 0x42, 0x43, 0x44]), bytes([2, 31])]
BATCH = 64
WORKERS = 2
#: Workload for the scaling probe; the real run is scaled from it.
PROBE_EXECUTIONS = 576  # 9 batches
#: Measurement floor (serial baseline), as in E9: overhead ratios on a
#: sub-second run drown in scheduler/timer noise.
MIN_SERIAL_S = 2.0
MAX_EXECUTIONS = 19_968  # 312 batches
#: The gate: journaling-on wall overhead on the E9 2-worker cell.
MAX_OVERHEAD_PCT = 5.0
ROUNDS = 3  # best-of-N per cell, interleaved


def _effective_cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _serial_probe(executions):
    target = FpgaTarget(scan_mode="functional")
    target.add_peripheral(catalog.TIMER, TIMER_BASE)
    fuzzer = SnapshotFuzzer(assemble(fuzz_packet_parser()), target,
                            seeds=SEEDS, seed=3)
    start = time.perf_counter()
    fuzzer.run(executions=executions, batch_size=BATCH)
    return time.perf_counter() - start


def _scaled_executions(probe_s: float) -> int:
    if probe_s >= MIN_SERIAL_S:
        return PROBE_EXECUTIONS
    per_exec = probe_s / PROBE_EXECUTIONS
    need = (MIN_SERIAL_S * 1.15) / per_exec  # 15% headroom over floor
    batches = -(-int(need) // BATCH) + 1
    return min(batches * BATCH, MAX_EXECUTIONS)


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _cell(executions, journal_dir=None):
    """One campaign: ``(report, wall seconds, coordinator CPU s)``."""
    with ParallelFuzzer(fuzz_packet_parser(), TIMER, seeds=SEEDS,
                        workers=WORKERS, batch_size=BATCH, seed=3,
                        journal=journal_dir) as fuzzer:
        fuzzer.warm()  # target elaboration out of the timed region
        cpu0 = _cpu_s()
        start = time.perf_counter()
        report = fuzzer.run(executions=executions)
        elapsed = time.perf_counter() - start
        cpu = _cpu_s() - cpu0
    return report, elapsed, cpu


def test_journal_overhead(tmp_path):
    probe_s = _serial_probe(PROBE_EXECUTIONS)
    executions = _scaled_executions(probe_s)

    off_best = on_best = None
    off_cpu, on_cpu = [], []
    journal_stats = None
    for round_ in range(ROUNDS):  # interleaved: noise hits both cells
        report, elapsed, cpu = _cell(executions)
        off_cpu.append(cpu)
        if off_best is None or elapsed < off_best[1]:
            off_best = (report, elapsed)
        journal_dir = tmp_path / f"journal-{round_}"
        report, elapsed, cpu = _cell(executions, journal_dir=journal_dir)
        on_cpu.append(cpu)
        if on_best is None or elapsed < on_best[1]:
            on_best = (report, elapsed)
        journal_stats = {
            "events_log_bytes": (journal_dir / "events.log").stat().st_size,
            "blob_count": len(Journal.open(journal_dir,
                                           readonly=True).blobs),
        }

    off_report, off_s = off_best
    on_report, on_s = on_best
    cpu_off_s, cpu_on_s = min(off_cpu), min(on_cpu)
    overhead_pct = (on_s / off_s - 1.0) * 100.0
    identical = on_report.verdict_summary() == off_report.verdict_summary()

    effective_cores = _effective_cores()
    # Same eligibility rule as E9's speedup gate: wall-clock ratios on a
    # host that cannot run the cell's processes concurrently measure
    # the scheduler, not the journal — but the skipped gate must be
    # visible in the artifact (no-silent-caps).
    gate = {"max_overhead_pct": MAX_OVERHEAD_PCT, "workers": WORKERS,
            "enforced": effective_cores >= WORKERS}
    if not gate["enforced"]:
        gate["note"] = (
            f"overhead gate SKIPPED: {effective_cores} effective "
            f"core(s) cannot overlap journal I/O with {WORKERS} "
            f"workers; identity still asserted")
        print(gate["note"])

    emit("journal_overhead", "\n".join([
        f"E13: journaling overhead, {executions} executions "
        f"(batch {BATCH}, {WORKERS} workers, best of {ROUNDS})",
        f"  journal off : {off_s:.3f} s",
        f"  journal on  : {on_s:.3f} s",
        f"  overhead    : {overhead_pct:+.1f}% "
        f"(gate < {MAX_OVERHEAD_PCT:.0f}%, "
        f"{'enforced' if gate['enforced'] else 'skipped'})",
        f"  coord. CPU  : {cpu_off_s:.3f} s off, {cpu_on_s:.3f} s on "
        f"({cpu_on_s - cpu_off_s:+.3f} s, best of {ROUNDS})",
        f"  verdict     : {'identical' if identical else 'DIVERGED'}",
        f"  journal     : {journal_stats['events_log_bytes']} log bytes, "
        f"{journal_stats['blob_count']} blobs",
    ]))

    emit_json("BENCH_journal.json", {
        "experiment": "journal_overhead",
        "executions": executions,
        "probe_host_s": probe_s,
        "batch_size": BATCH,
        "workers": WORKERS,
        "rounds": ROUNDS,
        "journal_off_s": off_s,
        "journal_on_s": on_s,
        "overhead_pct": overhead_pct,
        "coordinator_cpu_off_s": cpu_off_s,
        "coordinator_cpu_on_s": cpu_on_s,
        "coordinator_cpu_rounds": {"off": off_cpu, "on": on_cpu},
        "verdict_identical": identical,
        "journal": journal_stats,
        "gate": gate,
    })

    # Journaling is observation: the campaign's verdict never moves.
    assert identical, "journal-on verdict diverged from journal-off"
    # Sealed campaigns record the verdict they reached.
    assert on_report.verdict_summary() is not None
    if gate["enforced"]:
        assert overhead_pct < MAX_OVERHEAD_PCT, (
            f"journaling overhead {overhead_pct:.1f}% exceeds the "
            f"{MAX_OVERHEAD_PCT:.0f}% gate on the E9 {WORKERS}-worker "
            f"cell")
