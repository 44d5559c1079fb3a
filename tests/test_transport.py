"""Tests for the pool's IPC path (repro.parallel.envelope over the
worker queues and result pipes): packed batch envelopes, chunk bodies
of any size travelling inline and still verified on absorb, chunk-pool
LRU bounds, respawn bookkeeping, and verdict identity with the serial
runtime at 1, 2 and 4 workers."""

import os
import pickle
import signal

import pytest

from repro.core import HardSnapSession, SnapshotController, SnapshotFuzzer
from repro.core.persistence import SnapshotWire, snapshot_to_wire
from repro.core.store import chunk_digest
from repro.errors import SnapshotIntegrityError
from repro.firmware import TIMER_BASE, dispatcher, fuzz_packet_parser
from repro.isa import assemble
from repro.parallel import (ChunkChannel, ParallelAnalysisEngine,
                            ParallelFuzzer, SessionRecipe, WireStats,
                            WorkerPool)
from repro.parallel.envelope import (pack_fuzz_batch, pack_fuzz_results,
                                     pack_lease_batch, pack_lease_results,
                                     stamp_encode_time, unpack_fuzz_batch,
                                     unpack_fuzz_results, unpack_lease_batch,
                                     unpack_lease_results)
from repro.peripherals import catalog
from repro.targets import FpgaTarget

TIMER = [(catalog.TIMER, TIMER_BASE)]
FIRMWARE = dispatcher(4, work_cycles=8)
SEEDS = [bytes([1, 4, 0x41, 0x42, 0x43, 0x44]), bytes([2, 7])]

#: Chunk bodies at or above this pickled size used to leave the queue
#: for a shared-memory slab; they now travel inline like any other.
OLD_SHM_FLOOR = 2048


def _shm_entries():
    """Names under /dev/shm (empty where the host has none)."""
    return set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") \
        else set()


def _fuzz_target():
    target = FpgaTarget(scan_mode="functional")
    target.add_peripheral(catalog.TIMER, TIMER_BASE)
    target.reset()
    return target


def _timer_wire():
    target = _fuzz_target()
    target.step(5)
    return snapshot_to_wire(SnapshotController(target).save())


def _large_wire():
    """A one-instance wire whose chunk body pickles above the old shm
    floor (a memory-heavy peripheral's state)."""
    body = {"nets": {"state": 3}, "mems": {"ram": list(range(1024))}}
    digest = chunk_digest(body)
    bits = 1024 * 32
    return SnapshotWire(refs={"ram0": (digest, 11, bits)},
                        chunks={digest: (body, bits)},
                        method="scan", bits=bits)


class TestEnvelope:
    def _lease(self, wire):
        state = pickle.dumps({"fake": "state"})
        return {"budget": 7, "sym_base": 2_000_000,
                "state": state, "wire": wire}

    def test_lease_batch_roundtrip_queue(self):
        wire = _timer_wire()
        leases = [self._lease(wire),
                  {"budget": 0, "sym_base": 1_000_000,
                   "state": None, "wire": None}]
        buf = pack_lease_batch(leases, "w0", evictions=["dead-digest"],
                               state_evictions=["page-digest"])
        evictions, state_ev, back = unpack_lease_batch(buf)
        assert evictions == ["dead-digest"]
        assert state_ev == ["page-digest"]
        assert len(back) == 2
        assert back[0]["budget"] == 7
        assert back[0]["sym_base"] == 2_000_000
        assert back[0]["state"] == leases[0]["state"]
        assert back[0]["state_kind"] == 1  # pre-pickled bytes = KIND_FULL
        assert back[0]["wire"].refs == wire.refs
        assert back[0]["wire"].chunks == wire.chunks
        assert back[0]["wire"].method == wire.method
        assert back[1]["state"] is None and back[1]["wire"] is None

    def test_lease_results_roundtrip_and_stamp(self):
        wire = _timer_wire()
        res = {"executed": 42, "paused": False,
               "continuation": (1, b"contblob", {}, wire),
               "children": [(1, b"childblob", {}, wire)],
               "completed": None, "bugs": [], "coverage": [1, 2, 3],
               "stats": {"saves": 1}, "modelled_dt": 0.5,
               "wire_stats": WireStats(snapshots_sent=3),
               "resilience": {}}
        buf = bytearray(pack_lease_results(
            [res], evictions=["gone"], decode_s=0.25))
        stamp_encode_time(buf, 1.5)
        evictions, _sev, enc, dec, back = unpack_lease_results(buf)
        assert evictions == ["gone"]
        assert enc == 1.5 and dec == 0.25
        assert back[0]["executed"] == 42
        assert back[0]["coverage"] == [1, 2, 3]
        assert back[0]["wire_stats"].snapshots_sent == 3
        kind, blob, bodies, cwire = back[0]["continuation"]
        assert kind == 1 and blob == b"contblob" and bodies == {}
        assert cwire.refs == wire.refs
        assert len(back[0]["children"]) == 1

    def test_large_wire_chunks_travel_inline(self):
        """Bodies above the old 2048 B shm floor — a snapshot chunk and
        a delta state's page — round-trip inline, and the chunk still
        passes ChunkChannel.absorb's digest verification."""
        wire = _large_wire()
        (body, _bits), = wire.chunks.values()
        assert len(pickle.dumps(body)) > OLD_SHM_FLOOR
        page = b"i" + bytes(range(256)) * 16
        assert len(page) > OLD_SHM_FLOOR
        shipped = (2, b"delta-record", {"ab" * 16: page}, wire)
        res = {"executed": 1, "continuation": shipped, "children": [],
               "completed": None}
        _ev, _sev, _enc, _dec, back = unpack_lease_results(
            pack_lease_results([res]))
        kind, record, bodies, back_wire = back[0]["continuation"]
        assert (kind, record, bodies) == (2, b"delta-record",
                                          {"ab" * 16: page})
        assert back_wire.refs == wire.refs
        assert back_wire.chunks == wire.chunks
        ChunkChannel().absorb(back_wire, "w0")  # verifies the body
        (tampered, _bits), = back_wire.chunks.values()
        tampered["mems"]["ram"][0] ^= 1
        with pytest.raises(SnapshotIntegrityError):
            ChunkChannel().absorb(back_wire, "w0")

    def test_fuzz_batch_and_results_roundtrip(self):
        items = [(0, b"\x01\x02"), (1, b""), (5, b"\xff" * 40)]
        assert unpack_fuzz_batch(pack_fuzz_batch(items)) == items

        res = {"modelled_dt": 0.75, "resets": 3, "resilience": {},
               "results": [(0, b"ab", b"edges", None, -1),
                           (1, b"cd", b"", "mem-oob", 0x40)]}
        buf2 = bytearray(pack_fuzz_results(res, decode_s=0.1))
        stamp_encode_time(buf2, 0.2)
        enc, dec, rback = unpack_fuzz_results(buf2)
        assert enc == 0.2 and dec == 0.1
        assert rback["resets"] == 3
        assert rback["results"] == res["results"]


class TestChunkChannelBounds:
    """Satellite: LRU pool cap + JSON-safe delta_ratio."""

    def test_delta_ratio_finite_when_reference_only(self):
        stats = WireStats(logical_bits_sent=4096, payload_bits_sent=0)
        assert stats.delta_ratio == 4096.0  # finite, JSON-safe
        assert WireStats().delta_ratio == 1.0
        import json
        json.dumps(stats.delta_ratio)  # must not raise / produce inf

    def test_pool_cap_evicts_lru_and_counts(self):
        ch = ChunkChannel(pool_cap=2)
        for i in range(4):
            ch._admit(f"d{i}", {"nets": {"v": i}}, 8)
        assert len(ch.pool) == 2
        assert ch.stats.chunk_evictions == 2
        assert "d0" not in ch.pool and "d3" in ch.pool

    def test_pinned_digests_survive_eviction(self):
        ch = ChunkChannel(pool_cap=2)
        ch._admit("keep", {"nets": {"v": 0}}, 8)
        ch.pin(["keep"])
        for i in range(4):
            ch._admit(f"d{i}", {"nets": {"v": i}}, 8)
        assert "keep" in ch.pool
        ch.unpin(["keep"])
        ch._admit("d9", {"nets": {"v": 9}}, 8)
        assert len(ch.pool) <= 2

    def test_eviction_notices_reach_every_peer(self):
        ch = ChunkChannel(pool_cap=1)
        ch._peer("w0")
        ch._peer("w1")
        ch._admit("a", {"nets": {"v": 0}}, 8)
        ch._admit("b", {"nets": {"v": 1}}, 8)  # evicts "a"
        assert ch.take_evictions("w0") == ["a"]
        assert ch.take_evictions("w1") == ["a"]
        assert ch.take_evictions("w0") == []  # drained

    def test_forget_remote_clears_known(self):
        ch = ChunkChannel()
        ch._peer("w0").update({"a", "b"})
        ch.forget_remote("w0", ["a"])
        assert ch.known["w0"] == {"b"}


class TestPoolIntegration:
    def _recipe(self, **config):
        return SessionRecipe.create(FIRMWARE, TIMER, searcher="bfs",
                                    **config)

    def test_respawn_clears_channel_known(self):
        """Satellite regression: a respawned worker starts with an empty
        chunk pool, so the coordinator must forget what the dead
        incarnation held — otherwise the fresh worker receives
        reference-only wires it cannot resolve."""
        channel = ChunkChannel()
        channel._peer(0).add("stale-digest")
        channel._peer(1).add("other-digest")
        with WorkerPool(self._recipe(), workers=2,
                        channel=channel) as pool:
            pool.warm("engine")
            os.kill(pool._procs[0].pid, signal.SIGKILL)
            pool._procs[0].join(5)
            pool.respawn(0)
            assert 0 not in channel.known  # cleared
            assert channel.known[1] == {"other-digest"}  # untouched

    def test_pool_close_leaves_no_segments(self):
        """close() reaps every worker and leaves nothing behind in
        /dev/shm after envelopes crossed the queue and the pipes."""
        before = _shm_entries()
        pool = WorkerPool(self._recipe(), workers=2)
        pool.warm("engine")
        pool.submit(0, "lease", {"state": None, "wire": None,
                                 "sym_base": 0, "budget": 0})
        pool.next_result(timeout=120)
        pool.close()
        assert not any(proc.is_alive() for proc in pool._procs)
        assert _shm_entries() <= before


class TestVerdictIdentityAcrossWorkers:
    """The IPC path changes how bytes travel, never what a run
    concludes: parallel verdicts match serial at every worker count."""

    @pytest.fixture(scope="class")
    def engine_serial(self):
        return HardSnapSession(FIRMWARE, TIMER,
                               scan_mode="functional").run(
            max_instructions=100_000).verdict_summary()

    @pytest.fixture(scope="class")
    def fuzz_serial(self):
        return SnapshotFuzzer(
            assemble(fuzz_packet_parser()), _fuzz_target(),
            seeds=SEEDS, seed=3).run(
            executions=48, batch_size=16).verdict_summary()

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_engine_verdicts(self, workers, engine_serial):
        with ParallelAnalysisEngine(FIRMWARE, TIMER, workers=workers,
                                    scan_mode="functional") as engine:
            report = engine.run(max_instructions=100_000)
            ipc = engine.pool_stats.ipc
        assert report.verdict_summary() == engine_serial
        assert ipc.queue_bytes_out > 0 and ipc.queue_bytes_in > 0
        assert ipc.shm_bytes_out == ipc.shm_bytes_in == 0

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_fuzzer_verdicts(self, workers, fuzz_serial):
        with ParallelFuzzer(fuzz_packet_parser(), TIMER,
                            seeds=SEEDS, seed=3, workers=workers,
                            batch_size=16) as fuzzer:
            report = fuzzer.run(executions=48)
        assert report.verdict_summary() == fuzz_serial
