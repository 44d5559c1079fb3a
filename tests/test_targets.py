"""Hardware target tests: hosting, visibility, snapshot methods, the
snapshot IP, and cross-target orchestration."""

import hashlib
import pickle
from collections import OrderedDict
from typing import Dict, Optional

import pytest
from hypothesis import given, settings, strategies as st

from repro.bus.transport import USB3
from repro.core import HardSnapSession
from repro.errors import SnapshotError, TargetError
from repro.firmware import dispatcher
from repro.instrument.scan_chain import insert_scan_chain
from repro.peripherals import catalog, timer
from repro.targets import (FpgaTarget, SimulatorTarget, SnapshotIp,
                           TargetOrchestrator)
from repro.targets.snapshot_ip import (COMMAND_OVERHEAD_CYCLES,
                                       DEFAULT_SRAM_BITS, IpStats)

TIMER_BASE = 0x4000_0000
UART_BASE = 0x4001_0000


def _target(cls, **kw):
    t = cls(**kw)
    t.add_peripheral(catalog.TIMER, TIMER_BASE)
    t.reset()
    return t


def _arm_timer(t, load=30):
    t.write(TIMER_BASE + timer.REGISTERS["LOAD"], load)
    t.write(TIMER_BASE + timer.REGISTERS["CTRL"],
            timer.CTRL_EN | timer.CTRL_IRQ_EN)


class TestHosting:
    @pytest.mark.parametrize("cls", [SimulatorTarget, FpgaTarget])
    def test_mmio_and_irq(self, cls):
        t = _target(cls)
        _arm_timer(t, 20)
        assert t.irq_lines()["timer"] is False
        t.step(25)
        assert t.irq_lines()["timer"] is True

    def test_unmapped_address_rejected(self):
        t = _target(SimulatorTarget)
        with pytest.raises(TargetError):
            t.read(0x5000_0000)

    def test_duplicate_instance_rejected(self):
        t = SimulatorTarget()
        t.add_peripheral(catalog.TIMER, TIMER_BASE)
        with pytest.raises(TargetError):
            t.add_peripheral(catalog.TIMER, UART_BASE)

    def test_lockstep_between_peripherals(self):
        t = SimulatorTarget()
        t.add_peripheral(catalog.TIMER, TIMER_BASE)
        t.add_peripheral(catalog.UART, UART_BASE, instance_name="uart0")
        t.reset()
        c1 = t.instances["timer"].sim.cycle
        c2 = t.instances["uart0"].sim.cycle
        # A bus access to one peripheral advances the other identically.
        t.write(TIMER_BASE + 4, 10)
        assert (t.instances["timer"].sim.cycle - c1
                == t.instances["uart0"].sim.cycle - c2)

    def test_modelled_time_accumulates(self):
        t = _target(SimulatorTarget)
        before = t.timer.total_s
        t.write(TIMER_BASE + 4, 1)
        t.step(100)
        assert t.timer.total_s > before
        assert t.timer.transport_s > 0


class TestVisibility:
    def test_simulator_full_visibility(self):
        t = _target(SimulatorTarget)
        assert t.peek("timer", "value") == 0
        writer = t.attach_vcd("timer")
        t.step(5)
        assert writer.changes > 0

    def test_fpga_pins_only(self):
        t = _target(FpgaTarget)
        t.peek("timer", "irq")  # pin: fine
        t.peek("timer", "s_axi_awready")  # pin: fine
        with pytest.raises(TargetError):
            t.peek("timer", "value")  # internal register
        with pytest.raises(TargetError):
            t.peek("timer", "expired")


class TestSimulatorSnapshots:
    def test_criu_roundtrip(self):
        t = _target(SimulatorTarget)
        _arm_timer(t, 10)
        t.step(15)
        assert t.irq_lines()["timer"] is True
        snap = t.save_snapshot()
        assert snap.method == "criu"
        t.write(TIMER_BASE + timer.REGISTERS["STATUS"], 1)
        assert t.irq_lines()["timer"] is False
        t.restore_snapshot(snap)
        assert t.irq_lines()["timer"] is True

    def test_criu_cost_model_dominated_by_base(self):
        t = _target(SimulatorTarget)
        snap = t.save_snapshot()
        assert snap.modelled_cost_s > t.criu.checkpoint_base_s
        # Small designs: image dominated by process pages, nearly flat.
        assert snap.modelled_cost_s < 2 * t.criu.checkpoint_base_s

    def test_restore_unknown_instance_rejected(self):
        t = _target(SimulatorTarget)
        snap = t.save_snapshot()
        snap.states["ghost"] = snap.states["timer"]
        with pytest.raises(SnapshotError):
            t.restore_snapshot(snap)


class TestFpgaSnapshots:
    @pytest.mark.parametrize("mode", ["shift", "functional"])
    def test_scan_roundtrip(self, mode):
        t = _target(FpgaTarget, scan_mode=mode)
        _arm_timer(t, 12)
        t.step(16)
        assert t.irq_lines()["timer"] is True
        snap = t.save_snapshot()
        assert snap.method == "scan"
        # Circular scan preserved the live state.
        assert t.irq_lines()["timer"] is True
        t.write(TIMER_BASE + timer.REGISTERS["STATUS"], 1)
        t.restore_snapshot(snap)
        assert t.irq_lines()["timer"] is True

    def test_shift_and_functional_agree(self):
        results = {}
        for mode in ("shift", "functional"):
            t = _target(FpgaTarget, scan_mode=mode)
            _arm_timer(t, 7)
            t.step(9)
            snap = t.save_snapshot()
            nets = {k: v for k, v in snap.states["timer"]["nets"].items()
                    if not k.startswith("scan")}
            results[mode] = (nets, snap.states["timer"]["memories"],
                             snap.modelled_cost_s, snap.bits)
        assert results["shift"][0] == results["functional"][0]
        assert results["shift"][1] == results["functional"][1]
        assert results["shift"][2] == pytest.approx(results["functional"][2])
        assert results["shift"][3] == results["functional"][3]

    def test_scan_cost_scales_with_chain(self):
        small = _target(FpgaTarget, scan_mode="functional")
        big = FpgaTarget(scan_mode="functional")
        big.add_peripheral(catalog.SHA256, TIMER_BASE)
        big.reset()
        s_small = small.save_snapshot()
        s_big = big.save_snapshot()
        assert s_big.bits > s_small.bits
        assert s_big.modelled_cost_s > s_small.modelled_cost_s

    def test_readback_capture_only(self):
        t = _target(FpgaTarget)
        _arm_timer(t, 5)
        t.step(8)
        snap = t.readback_snapshot()
        assert snap.method == "readback"
        assert snap.modelled_cost_s > 0
        nodev = _target(FpgaTarget, has_readback=False)
        with pytest.raises(TargetError):
            nodev.readback_snapshot()

    def test_invalid_scan_mode_rejected(self):
        with pytest.raises(TargetError):
            FpgaTarget(scan_mode="warp")


class TestSnapshotIp:
    def test_sram_hit_cheaper_than_host(self):
        ip = SnapshotIp(100e6, USB3, sram_bits=10_000)
        slot, save_cost = ip.save(1000)
        hit_cost = ip.restore(slot, 1000)
        miss_cost = ip.restore(None, 1000)
        assert hit_cost < miss_cost
        assert ip.stats.sram_hits == 1
        assert ip.stats.host_round_trips == 1

    def test_eviction_fifo(self):
        ip = SnapshotIp(100e6, USB3, sram_bits=2500)
        s1, _ = ip.save(1000)
        s2, _ = ip.save(1000)
        s3, _ = ip.save(1000)  # evicts s1
        assert ip.stats.evictions == 1
        assert ip.resident_count == 2
        # s1 restore now pays the host round trip.
        cost_evicted = ip.restore(s1, 1000)
        cost_resident = ip.restore(s3, 1000)
        assert cost_evicted > cost_resident

    def test_oversized_snapshot_goes_to_host(self):
        ip = SnapshotIp(100e6, USB3, sram_bits=100)
        slot, cost = ip.save(1000)
        assert ip.resident_count == 0
        assert cost > ip.shift_cost_s(1000)

    def test_forget_frees_slot(self):
        ip = SnapshotIp(100e6, USB3, sram_bits=2500)
        s1, _ = ip.save(1000)
        ip.forget(s1)
        assert ip.resident_count == 0


class _SumBasedIp:
    """Reference model of the snapshot IP that re-sums SRAM occupancy on
    every save — the straightforward accounting the running total in
    :class:`SnapshotIp` must reproduce bit for bit."""

    def __init__(self, clock_hz, transport, sram_bits):
        self.clock_hz = clock_hz
        self.transport = transport
        self.sram_bits = sram_bits
        self.next_slot = 1
        self.resident: "OrderedDict[int, int]" = OrderedDict()
        self.evicted: Dict[int, int] = {}
        self.stats = IpStats()

    def shift_cost_s(self, chain_bits):
        return (chain_bits + COMMAND_OVERHEAD_CYCLES) / self.clock_hz

    def save(self, chain_bits, stored_bits=None):
        self.stats.saves += 1
        cost = self.shift_cost_s(chain_bits)
        occupancy = chain_bits if stored_bits is None else stored_bits
        while (sum(self.resident.values()) + occupancy > self.sram_bits
               and self.resident):
            old_slot, old_bits = self.resident.popitem(last=False)
            self.evicted[old_slot] = old_bits
            self.stats.evictions += 1
            cost += self.transport.bulk_latency_s(old_bits)
        slot = self.next_slot
        self.next_slot += 1
        if occupancy <= self.sram_bits:
            self.resident[slot] = occupancy
        else:
            self.evicted[slot] = occupancy
            cost += self.transport.bulk_latency_s(occupancy)
            self.stats.host_round_trips += 1
        return slot, cost

    def restore(self, slot: Optional[int], chain_bits):
        self.stats.restores += 1
        cost = self.shift_cost_s(chain_bits)
        if slot is not None and slot in self.resident:
            self.stats.sram_hits += 1
            self.resident.move_to_end(slot)
        else:
            self.stats.host_round_trips += 1
            stream_bits = self.evicted.get(slot, chain_bits) \
                if slot is not None else chain_bits
            cost += self.transport.bulk_latency_s(stream_bits)
        return cost

    def forget(self, slot):
        self.resident.pop(slot, None)
        self.evicted.pop(slot, None)


class _NoScanDict(OrderedDict):
    """Resident map that fails any whole-map walk: only keyed access,
    ``move_to_end`` and ``popitem`` work."""

    def values(self):
        raise AssertionError("SRAM occupancy re-summed")

    def __iter__(self):
        raise AssertionError("SRAM resident map walked")


def _ip_op(sram_bits):
    size = st.integers(0, 2 * sram_bits + 2)
    return st.one_of(
        st.tuples(st.just("save"), size, st.none() | size),
        st.tuples(st.just("restore"), st.integers(-1, 40), size),
        st.tuples(st.just("forget"), st.integers(0, 40), st.just(0)))


class TestSramOccupancyCounter:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_sum_based_reference(self, data):
        sram_bits = data.draw(st.one_of(
            st.integers(1, 64), st.integers(1, DEFAULT_SRAM_BITS),
            st.just(DEFAULT_SRAM_BITS)), label="sram_bits")
        ops = data.draw(st.lists(_ip_op(sram_bits), max_size=60),
                        label="ops")
        ip = SnapshotIp(100e6, USB3, sram_bits=sram_bits)
        ref = _SumBasedIp(100e6, USB3, sram_bits)
        for op, a, b in ops:
            if op == "save":
                assert ip.save(a, stored_bits=b) == ref.save(a, stored_bits=b)
            elif op == "restore":
                slot = None if a < 0 else a  # never-issued ids included
                assert ip.restore(slot, b) == ref.restore(slot, b)
            else:
                ip.forget(a)
                ref.forget(a)
            assert ip.stats == ref.stats
            assert ip.resident_count == len(ref.resident)
            assert list(ip._resident.items()) == list(ref.resident.items())
            assert ip._resident_bits == sum(ip._resident.values())

    def test_saves_never_rescan_resident_slots(self):
        ip = SnapshotIp(100e6, USB3)
        ip._resident = _NoScanDict()
        for _ in range(10_000):
            ip.save(100)
        assert ip.resident_count == 10_000
        assert ip.stats.evictions == 0
        assert ip._resident_bits == 100 * 10_000

    def test_eviction_pops_without_rescanning(self):
        ip = SnapshotIp(100e6, USB3, sram_bits=1000)
        ip._resident = _NoScanDict()
        slots = [ip.save(300)[0] for _ in range(50)]
        assert ip.stats.evictions == 47
        assert ip.resident_count == 3
        ip.restore(slots[-2], 300)  # SRAM hit: move_to_end only
        ip.forget(slots[-1])
        ip.save(700, stored_bits=600)  # evicts slots[-3] only
        assert ip.stats.evictions == 48
        assert ip._resident_bits == 300 + 600

    @pytest.mark.parametrize("spec", catalog.EXTENDED_CORPUS,
                             ids=lambda spec: spec.name)
    def test_chain_length_cached_and_pickles(self, spec):
        scan = insert_scan_chain(spec.elaborate())
        assert scan.chain_length == sum(e.bits for e in scan.elements)
        clone = pickle.loads(pickle.dumps(scan))
        assert clone.chain_length == scan.chain_length


class TestModelledIdentityAcrossScanModes:
    """A context-switch-heavy campaign's modelled numbers are fixed by
    the cost model alone: every scan mode reproduces the same verdict,
    modelled time and snapshot-IP counters (pinned values; the 1 kbit
    SRAM thrashes, covering FIFO eviction)."""

    PINNED = {
        DEFAULT_SRAM_BITS: (0.001902369999999992,
                            IpStats(saves=135, restores=134, sram_hits=134,
                                    host_round_trips=0, evictions=0)),
        1024: (0.006461697499999963,
               IpStats(saves=135, restores=134, sram_hits=81,
                       host_round_trips=53, evictions=129)),
    }

    @pytest.mark.parametrize("sram_bits", sorted(PINNED))
    @pytest.mark.parametrize("scan_mode",
                             ["functional", "shift", "shift-perbit"])
    def test_random_searcher_dispatcher(self, scan_mode, sram_bits):
        target = FpgaTarget(scan_mode=scan_mode, sram_bits=sram_bits)
        target.add_peripheral(catalog.TIMER, TIMER_BASE)
        session = HardSnapSession(dispatcher(8, work_cycles=8), [],
                                  target=target, searcher="random", seed=3)
        report = session.run(max_instructions=60_000)
        verdict = hashlib.blake2b(report.verdict_summary().encode(),
                                  digest_size=8).hexdigest()
        assert verdict == "01ae464e7a5f4568"
        assert (report.modelled_time_s, target.ip.stats) == \
            self.PINNED[sram_bits]


class TestOrchestration:
    def _pair(self):
        targets = []
        for cls, name in ((FpgaTarget, "fpga"), (SimulatorTarget, "sim")):
            t = cls(name=name)
            t.add_peripheral(catalog.TIMER, TIMER_BASE)
            t.reset()
            targets.append(t)
        return targets

    def test_transfer_fpga_to_simulator(self):
        fpga, sim = self._pair()
        orch = TargetOrchestrator()
        orch.register(fpga, active=True)
        orch.register(sim)
        _arm_timer(fpga, 9)
        fpga.step(12)
        orch.transfer("fpga", "sim")
        assert orch.active.name == "sim"
        assert sim.peek("timer", "expired") == 1
        assert sim.read(TIMER_BASE + timer.REGISTERS["LOAD"]) == 9

    def test_transfer_back_round_trip(self):
        fpga, sim = self._pair()
        orch = TargetOrchestrator()
        orch.register(fpga, active=True)
        orch.register(sim)
        _arm_timer(fpga, 40)
        fpga.step(10)
        orch.transfer("fpga", "sim")
        sim.step(5)
        orch.transfer("sim", "fpga")
        v = fpga.read(TIMER_BASE + timer.REGISTERS["VALUE"])
        assert 0 < v < 40

    def test_mismatched_instances_rejected(self):
        orch = TargetOrchestrator()
        t1 = FpgaTarget(name="a")
        t1.add_peripheral(catalog.TIMER, TIMER_BASE)
        orch.register(t1)
        t2 = SimulatorTarget(name="b")
        t2.add_peripheral(catalog.UART, UART_BASE)
        with pytest.raises(TargetError):
            orch.register(t2)

    def test_self_transfer_rejected(self):
        fpga, sim = self._pair()
        orch = TargetOrchestrator()
        orch.register(fpga)
        with pytest.raises(TargetError):
            orch.transfer("fpga", "fpga")

    def test_active_view_follows_switch(self):
        fpga, sim = self._pair()
        orch = TargetOrchestrator()
        orch.register(fpga, active=True)
        orch.register(sim)
        view = orch.active_view()
        assert view.name == "fpga"
        _arm_timer(view, 6)
        view.step(9)
        orch.transfer("fpga", "sim")
        assert view.name == "sim"
        assert view.irq_lines()["timer"] is True

    def test_transfer_records_cost(self):
        fpga, sim = self._pair()
        orch = TargetOrchestrator()
        orch.register(fpga)
        orch.register(sim)
        orch.transfer("fpga", "sim")
        record = orch.transfers[-1]
        assert record.bits > 0 and record.modelled_cost_s > 0
