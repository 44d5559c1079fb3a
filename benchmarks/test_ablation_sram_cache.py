"""A1 — ablation: the snapshot IP's SRAM cache (paper §III-C).

"For performance reasons, the scanning IP saves peripherals snapshots in
an SRAM memory. This optimization significantly reduces the time taken
for saving or restoring hardware peripheral state."

We replay the same snapshot-heavy analysis (dispatcher-8, round-robin)
on FPGA targets with the SRAM enabled and disabled, and additionally
sweep the SRAM size to show the eviction regime in between.
"""

from benchmarks.conftest import OUT_DIR, emit
from repro.analysis import format_si_time, format_table
from repro.core import HardSnapSession
from repro.firmware import TIMER_BASE, dispatcher
from repro.peripherals import catalog
from repro.targets import FpgaTarget


def _run(sram_bits):
    target = FpgaTarget(scan_mode="functional", sram_bits=sram_bits)
    target.add_peripheral(catalog.TIMER, TIMER_BASE)
    session = HardSnapSession(dispatcher(8, work_cycles=8),
                              [], target=target, searcher="round-robin")
    report = session.run(max_instructions=60_000)
    return report, target


def test_ablation_sram_cache(benchmark):
    configs = {
        "SRAM 4 Mbit (default)": 4 * 1024 * 1024,
        "SRAM 1 kbit (thrashing)": 1024,
        "SRAM off (host only)": 1,
    }
    # The committed table, read before this run overwrites it.
    committed = (OUT_DIR / "ablation_sram_cache.txt").read_text()
    results = benchmark.pedantic(
        lambda: {name: _run(bits) for name, bits in configs.items()},
        rounds=1, iterations=1)

    rows = []
    for name, (report, target) in results.items():
        ip = target.ip.stats
        rows.append([
            name,
            report.snapshot_saves, report.snapshot_restores,
            ip.sram_hits, ip.host_round_trips, ip.evictions,
            format_si_time(report.modelled_time_s),
        ])
    table = format_table(
        ["configuration", "saves", "restores", "SRAM hits",
         "host round-trips", "evictions", "modelled time"],
        rows, title="A1: snapshot SRAM cache ablation (dispatcher-8)")
    emit("ablation_sram_cache", table)
    # Host-side speedups of the snapshot IP must leave every modelled
    # number alone: each row (thrashing included) matches the committed
    # table exactly.
    assert table.splitlines() == committed.splitlines()

    default = results["SRAM 4 Mbit (default)"][0]
    thrash = results["SRAM 1 kbit (thrashing)"][0]
    off = results["SRAM off (host only)"][0]
    # Same analysis outcome...
    assert default.halt_codes() == thrash.halt_codes() == off.halt_codes()
    # ...with monotonically degrading snapshot cost as the cache shrinks.
    assert default.modelled_time_s < thrash.modelled_time_s \
        < off.modelled_time_s
    assert off.modelled_time_s > 1.5 * default.modelled_time_s
    assert results["SRAM off (host only)"][1].ip.stats.sram_hits == 0
    assert results["SRAM 4 Mbit (default)"][1].ip.stats.sram_hits > 0
    assert results["SRAM 1 kbit (thrashing)"][1].ip.stats.evictions > 0
