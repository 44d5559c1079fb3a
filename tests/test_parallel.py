"""Tests for repro.parallel: wire format, recipes, lease execution, and
the headline property — parallel verdicts are byte-identical to serial
ones, whatever the worker count."""

import os
import pathlib
import pickle
import signal
import subprocess
import sys

import pytest

from repro.core import HardSnapSession, SnapshotController, SnapshotFuzzer
from repro.core.persistence import snapshot_from_wire, snapshot_to_wire
from repro.core.store import chunk_digest
from repro.errors import SnapshotError, TargetError, VmError
from repro.firmware import (TIMER_BASE, UART_BASE, dispatcher,
                            fuzz_packet_parser, vuln_buffer_overflow)
from repro.isa import assemble
from repro.parallel import (ChunkChannel, ParallelAnalysisEngine,
                            ParallelFuzzer, SessionRecipe, TargetRecipe,
                            WorkerPool)
from repro.parallel.pool import WorkerError
from repro.peripherals import catalog
from repro.solver import expr as E
from repro.targets import FpgaTarget

SRC_DIR = pathlib.Path(__file__).resolve().parents[1] / "src"
TIMER = [(catalog.TIMER, TIMER_BASE)]
UART = [(catalog.UART, UART_BASE)]
SEEDS = [bytes([1, 4, 0x41, 0x42, 0x43, 0x44]), bytes([2, 7])]


def _timer_target():
    target = FpgaTarget(scan_mode="functional")
    target.add_peripheral(catalog.TIMER, TIMER_BASE)
    target.reset()
    return target


class TestSnapshotWire:
    def test_round_trip(self):
        target = _timer_target()
        controller = SnapshotController(target)
        target.step(7)
        snap = controller.save()
        wire = snapshot_to_wire(snap)
        pool = {digest: body for digest, (body, _) in wire.chunks.items()}
        back = snapshot_from_wire(wire, pool)
        assert back.states == snap.states
        assert back.method == snap.method
        assert back.bits == snap.bits
        assert back.record is None  # foreign: next save is a full record

    def test_known_digests_omit_payloads(self):
        target = _timer_target()
        snap = SnapshotController(target).save()
        digests = {chunk_digest(s) for s in snap.states.values()}
        wire = snapshot_to_wire(snap, known=digests)
        assert wire.chunks == {}
        assert wire.refs  # references still present
        assert wire.payload_bits == 0

    def test_missing_chunk_raises(self):
        target = _timer_target()
        snap = SnapshotController(target).save()
        wire = snapshot_to_wire(snap)
        with pytest.raises(SnapshotError):
            snapshot_from_wire(wire, pool={})

    def test_wire_is_picklable(self):
        target = _timer_target()
        snap = SnapshotController(target).save()
        wire = snapshot_to_wire(snap)
        clone = pickle.loads(pickle.dumps(wire))
        assert clone.refs == wire.refs
        assert clone.chunks == wire.chunks


class TestChunkChannel:
    def test_second_send_is_delta(self):
        """Resending an unchanged snapshot ships references only —
        the cross-process analogue of TransferRecord.delta_bits."""
        target = _timer_target()
        controller = SnapshotController(target)
        sender, receiver = ChunkChannel(), ChunkChannel()
        bits = {name: inst.state_bits
                for name, inst in target.instances.items()}

        first = sender.encode(controller.save(), peer="w0", bits_of=bits)
        receiver.absorb(first, peer="coord")
        assert first.payload_bits == first.logical_bits > 0

        second = sender.encode(controller.save(), peer="w0", bits_of=bits)
        assert second.payload_bits == 0
        assert second.logical_bits > 0
        assert snapshot_from_wire(second, receiver.pool).states == \
            controller.save().states

    def test_changed_state_ships_only_new_chunks(self):
        target = _timer_target()
        controller = SnapshotController(target)
        channel = ChunkChannel()
        channel.encode(controller.save(), peer="w0")
        target.write(TIMER_BASE, 0x1)  # program the timer: real state change
        target.step(5)
        wire = channel.encode(controller.save(), peer="w0")
        assert 0 < len(wire.chunks) <= len(wire.refs)

    def test_reencode_fills_payloads_per_peer(self):
        """A wire received from one worker re-addresses to another with
        payloads only for chunks the new peer lacks."""
        target = _timer_target()
        controller = SnapshotController(target)
        worker, coord = ChunkChannel(), ChunkChannel()
        wire = worker.encode(controller.save(), peer="coord")
        coord.absorb(wire, peer=0)
        resend_w0 = coord.reencode(wire, peer=0)
        assert resend_w0.chunks == {}  # worker 0 produced it
        resend_w1 = coord.reencode(wire, peer=1)
        assert set(resend_w1.chunks) == \
            {d for d, _, _ in wire.refs.values()}
        assert snapshot_from_wire(resend_w1, coord.pool).states == \
            controller.save().states

    def test_stats_account_logical_vs_payload(self):
        target = _timer_target()
        controller = SnapshotController(target)
        channel = ChunkChannel()
        bits = {name: inst.state_bits
                for name, inst in target.instances.items()}
        channel.encode(controller.save(), peer="w0", bits_of=bits)
        channel.encode(controller.save(), peer="w0", bits_of=bits)
        stats = channel.stats
        assert stats.snapshots_sent == 2
        assert stats.logical_bits_sent == 2 * stats.payload_bits_sent
        assert stats.delta_ratio == 2.0


class TestRecipes:
    def test_target_recipe_round_trip(self):
        original = _timer_target()
        recipe = TargetRecipe.from_target(original)
        rebuilt = pickle.loads(pickle.dumps(recipe)).build()
        rebuilt.reset()
        assert type(rebuilt) is type(original)
        assert rebuilt.instances.keys() == original.instances.keys()
        s0 = SnapshotController(original).save()
        s1 = SnapshotController(rebuilt).save()
        assert s0.states == s1.states

    def test_non_catalog_peripheral_rejected(self):
        class FakeSpec:
            name = "not-in-catalog"
        with pytest.raises(TargetError):
            SessionRecipe.create(dispatcher(2), [(FakeSpec(), 0x4000_0000)])

    def test_non_hardsnap_strategy_rejected(self):
        with pytest.raises(VmError):
            SessionRecipe.create(dispatcher(2), TIMER,
                                 strategy="naive-consistent")

    def test_session_recipe_rebuilds_equivalent_session(self):
        recipe = SessionRecipe.create(dispatcher(3, work_cycles=8), TIMER,
                                      scan_mode="functional")
        recipe = pickle.loads(pickle.dumps(recipe))
        report = recipe.build_session().run(max_instructions=100_000)
        serial = HardSnapSession(dispatcher(3, work_cycles=8), TIMER,
                                 scan_mode="functional").run(
            max_instructions=100_000)
        assert report.verdict_summary() == serial.verdict_summary()


class TestExprPickling:
    def test_unpickled_expressions_reintern(self):
        """Hash-consing identity (== is `is`) must survive a process
        boundary; otherwise shipped constraints stop comparing equal."""
        a = E.add(E.var("x", 32), E.const(7, 32))
        b = pickle.loads(pickle.dumps(a))
        assert b is a
        pair = pickle.loads(pickle.dumps((a, E.add(a, a))))
        assert pair[0] is a and pair[1].args[0] is a


class TestRunLease:
    """In-process lease-driven exploration equals the serial loop."""

    def test_lease_exploration_matches_serial(self):
        serial = HardSnapSession(dispatcher(4, work_cycles=8), TIMER,
                                 scan_mode="functional").run(
            max_instructions=100_000)

        session = HardSnapSession(dispatcher(4, work_cycles=8), TIMER,
                                  scan_mode="functional")
        from repro.core.engine import AnalysisReport
        report = AnalysisReport(strategy="hardsnap")
        session.engine.strategy.on_start(None)
        pending = [session.make_initial_state()]
        while pending:
            outcome = session.engine.run_lease(pending.pop())
            report.instructions += outcome.executed
            report.forks += len(outcome.forks)
            if outcome.completed is not None:
                report.paths.append(outcome.completed)
            if outcome.state.is_active:
                pending.append(outcome.state)
            pending.extend(outcome.forks)
        report.coverage = len(session.executor.coverage)
        assert report.verdict_summary() == serial.verdict_summary()

    def test_lease_budget_pauses_and_resumes(self):
        session = HardSnapSession(dispatcher(2, work_cycles=8), TIMER,
                                  scan_mode="functional")
        session.engine.strategy.on_start(None)
        state = session.make_initial_state()
        outcome = session.engine.run_lease(state, max_instructions=3)
        assert outcome.paused and outcome.executed == 3
        assert state.is_active and state.hw_snapshot is not None
        # Resume: the paused state continues to its natural end.
        total = outcome.executed
        pending = [state]
        while pending:
            out = session.engine.run_lease(pending.pop())
            total += out.executed
            if out.state.is_active:
                pending.append(out.state)
            pending.extend(out.forks)
        assert total > 3


class TestPool:
    def test_worker_errors_propagate(self):
        recipe = SessionRecipe.create(dispatcher(2), TIMER,
                                      scan_mode="functional")
        with WorkerPool(recipe, workers=1) as pool:
            pool.submit(0, "no-such-job", {})
            with pytest.raises(WorkerError, match="no-such-job"):
                pool.next_result(timeout=60)

    def test_warm_builds_all_workers(self):
        recipe = SessionRecipe.create(dispatcher(2), TIMER,
                                      scan_mode="functional")
        with WorkerPool(recipe, workers=2) as pool:
            pool.warm("fuzz")  # completes without error


class TestEngineDeterminism:
    """Satellite 3: merged DSE verdicts are byte-identical to serial for
    workers = 1, 2, 4 (dispatcher-N and the buffer-overflow workload)."""

    @pytest.fixture(scope="class")
    def dispatcher_serial(self):
        return HardSnapSession(dispatcher(5, work_cycles=8), TIMER,
                               scan_mode="functional").run(
            max_instructions=100_000).verdict_summary()

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_dispatcher_matches_serial(self, workers, dispatcher_serial):
        with ParallelAnalysisEngine(dispatcher(5, work_cycles=8), TIMER,
                                    workers=workers,
                                    scan_mode="functional") as engine:
            report = engine.run(max_instructions=100_000)
        assert report.verdict_summary() == dispatcher_serial
        assert report.stop_reason == "exhausted"

    def test_bug_workload_matches_serial(self):
        serial = HardSnapSession(vuln_buffer_overflow(), UART,
                                 scan_mode="functional").run(
            max_instructions=500_000)
        with ParallelAnalysisEngine(vuln_buffer_overflow(), UART,
                                    workers=2,
                                    scan_mode="functional") as engine:
            report = engine.run(max_instructions=500_000)
        assert report.verdict_summary() == serial.verdict_summary()
        # Bug state ids are remapped onto the renumbered paths.
        by_id = {p.state_id: p for p in report.paths}
        for bug in report.bugs:
            assert by_id[bug.state_id].status == "error"

    def test_stop_after_bugs(self):
        with ParallelAnalysisEngine(vuln_buffer_overflow(), UART,
                                    workers=2,
                                    scan_mode="functional") as engine:
            report = engine.run(max_instructions=500_000,
                                stop_after_bugs=1)
        assert report.stop_reason == "bug-budget"
        assert len(report.bugs) >= 1

    #: Hard bound for the check below: the campaign takes about a
    #: second, so the bound only separates it from a worker whose cold
    #: solver stalls on a query (``remu`` by a constant, for one).
    HANG_BOUND_S = 60

    def test_cold_workers_finish_dispatcher_6x8(self, tmp_path):
        """dispatcher(6, 8) at 2 workers finishes with the serial
        verdict. The campaign runs in its own process group, killed
        after HANG_BOUND_S, so a hang fails the test instead of the
        suite (no pytest-timeout needed)."""
        serial = HardSnapSession(dispatcher(6, 8), TIMER).run(
            max_instructions=100_000).verdict_summary()
        script = (
            "from repro.firmware import TIMER_BASE, dispatcher\n"
            "from repro.parallel import ParallelAnalysisEngine\n"
            "from repro.peripherals import catalog\n"
            "with ParallelAnalysisEngine(dispatcher(6, 8),\n"
            "        [(catalog.TIMER, TIMER_BASE)], workers=2) as engine:\n"
            "    print(engine.run(max_instructions=100_000)"
            ".verdict_summary())\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = (str(SRC_DIR) + os.pathsep
                             + env.get("PYTHONPATH", ""))
        out_path = tmp_path / "verdict.txt"
        # Output to a file, not a pipe: the pool's workers inherit it.
        with open(out_path, "w") as out:
            proc = subprocess.Popen([sys.executable, "-c", script],
                                    env=env, stdout=out,
                                    stderr=subprocess.STDOUT,
                                    start_new_session=True)
            try:
                proc.wait(timeout=self.HANG_BOUND_S)
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
                pytest.fail(f"parallel DSE did not finish in "
                            f"{self.HANG_BOUND_S} s")
        output = out_path.read_text()
        assert proc.returncode == 0, output[-2000:]
        assert output.rstrip("\n") == serial

    def test_pool_stats_show_delta_transfer(self):
        with ParallelAnalysisEngine(dispatcher(4, work_cycles=8), TIMER,
                                    workers=2,
                                    scan_mode="functional") as engine:
            engine.run(max_instructions=100_000)
            stats = engine.pool_stats
        assert stats.leases > 0
        assert stats.wire.snapshots_sent > 0
        assert stats.wire.payload_bits_sent < stats.wire.logical_bits_sent
        assert "workers=2" in stats.summary()


#: One path that never forks: only the instruction budget can end it.
SPIN = "_start:\nspin:\n    j spin\n"


class TestInstructionBudget:
    """A campaign whose one path never forks stops at the instruction
    budget at any worker count — no lease may run past what the
    campaign has left. Each run is bounded by a hard alarm, so a lease
    that ignores the budget fails the test instead of hanging it."""

    BUDGET = 5000
    ALARM_S = 30

    @pytest.fixture(scope="class")
    def serial(self):
        return HardSnapSession(SPIN, TIMER).run(
            max_instructions=self.BUDGET)

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_spin_stops_at_budget(self, workers, serial):
        def expire(signum, frame):
            raise TimeoutError(
                f"budgeted campaign ran past {self.ALARM_S}s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(self.ALARM_S)
        try:
            with ParallelAnalysisEngine(SPIN, TIMER,
                                        workers=workers) as engine:
                report = engine.run(max_instructions=self.BUDGET)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert report.stop_reason == "instruction-budget"
        assert report.instructions <= self.BUDGET
        assert serial.stop_reason == "instruction-budget"
        assert report.verdict_summary() == serial.verdict_summary()

    def test_cli_run_workers_stops_at_budget(self, tmp_path):
        fw = tmp_path / "spin.s"
        fw.write_text(SPIN)
        env = dict(os.environ)
        env["PYTHONPATH"] = (str(SRC_DIR) + os.pathsep
                             + env.get("PYTHONPATH", ""))
        out_path = tmp_path / "run.out"
        # Output to a file, not a pipe: the pool's workers inherit it.
        with open(out_path, "w") as out:
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "run", str(fw),
                 "--peripheral", f"timer@0x{TIMER_BASE:08x}",
                 "--workers", "2",
                 "--max-instructions", str(self.BUDGET)],
                env=env, stdout=out, stderr=subprocess.STDOUT,
                start_new_session=True)
            try:
                proc.wait(timeout=self.ALARM_S)
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
                pytest.fail(f"repro run --workers 2 did not stop at the "
                            f"budget in {self.ALARM_S} s")
        output = out_path.read_text()
        assert proc.returncode == 0, output[-2000:]
        assert f"instr={self.BUDGET} " in output
        assert "stop=instruction-budget" in output


class TestFuzzerDeterminism:
    """Satellite 3: merged fuzzing coverage/crashes are byte-identical
    to a serial run with the same batch size (E7 workload)."""

    @pytest.fixture(scope="class")
    def serial_verdict(self):
        fuzzer = SnapshotFuzzer(assemble(fuzz_packet_parser()),
                                _timer_target(), seeds=SEEDS, seed=3)
        return fuzzer.run(executions=120, batch_size=16).verdict_summary()

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_matches_serial(self, workers, serial_verdict):
        with ParallelFuzzer(fuzz_packet_parser(), TIMER, seeds=SEEDS,
                            workers=workers, batch_size=16,
                            seed=3) as fuzzer:
            report = fuzzer.run(executions=120)
        assert report.verdict_summary() == serial_verdict
        assert report.resets == 120

    @staticmethod
    def _modelled_time(arrival, monkeypatch):
        """A 2-worker campaign whose two shards per batch reach the
        merge one at a time, sorted by worker id (*arrival* = 1) or in
        reverse (-1). A broad seed corpus makes the shards' modelled
        times differ in many bits, so the order of a float sum shows."""
        seeds = [bytes([0x01, n]) + bytes(range(n)) for n in range(0, 17, 2)]
        seeds += [bytes([0x02, n]) for n in range(0, 32, 2)]
        monkeypatch.setattr(WorkerPool, "drain_results", lambda self: [])
        with ParallelFuzzer(fuzz_packet_parser(), TIMER, seeds=seeds,
                            workers=2, batch_size=32, seed=3) as fuzzer:
            await_one = fuzzer._await_result
            held = []

            def await_sorted(timeout=None):
                if not held:
                    held.extend(sorted((await_one(), await_one()),
                                       key=lambda r: arrival * r[1]))
                return held.pop(0)

            fuzzer._await_result = await_sorted
            report = fuzzer.run(executions=1024)
        return report.modelled_time_s, report.verdict_summary()

    def test_modelled_time_independent_of_shard_arrival(self, monkeypatch):
        """modelled_time_s is bit-identical whichever shard of a batch
        arrives first, so repeated campaigns report the same figure."""
        forward = self._modelled_time(1, monkeypatch)
        backward = self._modelled_time(-1, monkeypatch)
        assert forward[1] == backward[1]
        assert forward[0].hex() == backward[0].hex()

    def test_workers_share_identical_boot_state(self):
        with ParallelFuzzer(fuzz_packet_parser(), TIMER, seeds=SEEDS,
                            workers=2, batch_size=16, seed=3) as fuzzer:
            digests = fuzzer.boot_digests()
        assert len(digests) == 2
        first, second = digests.values()
        assert first == second

    def test_serial_batch_size_invariant(self):
        """The serial fuzzer's own results do not depend on how its
        schedule is batched relative to execution — the property that
        makes input sharding sound in the first place."""
        def run(batch_size):
            fuzzer = SnapshotFuzzer(assemble(fuzz_packet_parser()),
                                    _timer_target(), seeds=SEEDS, seed=5)
            return fuzzer.run(executions=60, batch_size=batch_size)
        a, b = run(1), run(1)
        assert a.verdict_summary() == b.verdict_summary()
