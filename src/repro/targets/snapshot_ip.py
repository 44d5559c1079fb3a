"""The on-FPGA snapshot controller IP (paper §III-C).

    "On the FPGA-based hardware platform, an internal hardware block
    ('IP') manages hardware snapshots... It saves and restores the
    peripherals state, by driving the scan chain previously inserted...
    For performance reasons, the scanning IP saves peripherals snapshots
    in an SRAM memory."

This class models that block: it owns the scan-chain shift operation
(cycle cost = chain length, plus a small command overhead) and an SRAM
snapshot store with finite capacity. Snapshots that fit stay on-board
(cheap to restore); once the SRAM is full the oldest snapshots are
evicted to the host over the debugger link and must be streamed back
before a restore (priced at the transport's bulk bandwidth).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.bus.transport import Transport

#: On-board snapshot SRAM (a typical BRAM budget carved out for the IP).
DEFAULT_SRAM_BITS = 4 * 1024 * 1024
#: Fixed command overhead per save/restore operation, cycles.
COMMAND_OVERHEAD_CYCLES = 12


@dataclass
class IpStats:
    saves: int = 0
    restores: int = 0
    sram_hits: int = 0
    host_round_trips: int = 0
    evictions: int = 0


class SnapshotIp:
    """SRAM-backed scan-chain snapshot controller."""

    def __init__(self, clock_hz: float, transport: Transport,
                 sram_bits: int = DEFAULT_SRAM_BITS):
        self.clock_hz = clock_hz
        self.transport = transport
        self.sram_bits = sram_bits
        self._next_slot = 1
        # slot id -> bits, insertion-ordered for FIFO eviction.
        self._resident: "OrderedDict[int, int]" = OrderedDict()
        #: Running total of ``_resident``'s values, kept in step with
        #: every insert, eviction and forget so a save costs O(1) host
        #: work however many snapshots the campaign has taken.
        self._resident_bits = 0
        self._evicted: Dict[int, int] = {}
        self.stats = IpStats()

    # -- cost helpers -----------------------------------------------------------

    def shift_cost_s(self, chain_bits: int) -> float:
        """Modelled time of one full scan rotation at the FPGA clock."""
        return (chain_bits + COMMAND_OVERHEAD_CYCLES) / self.clock_hz

    # -- save --------------------------------------------------------------------

    def save(self, chain_bits: int,
             stored_bits: Optional[int] = None) -> Tuple[int, float]:
        """Account one snapshot save; returns ``(slot_id, modelled_s)``.

        The scan shift streams the state into SRAM; if the SRAM is full,
        the oldest resident snapshot is evicted to the host first. The
        shift always traverses — and is priced at — the full
        ``chain_bits``; ``stored_bits`` (delta/dedup-compressed targets)
        overrides only the SRAM *occupancy*, letting more snapshots stay
        resident.
        """
        self.stats.saves += 1
        cost = self.shift_cost_s(chain_bits)
        occupancy = chain_bits if stored_bits is None else stored_bits
        while self._resident_bits + occupancy > self.sram_bits and self._resident:
            old_slot, old_bits = self._resident.popitem(last=False)
            self._resident_bits -= old_bits
            self._evicted[old_slot] = old_bits
            self.stats.evictions += 1
            cost += self.transport.bulk_latency_s(old_bits)
        slot = self._next_slot
        self._next_slot += 1
        if occupancy <= self.sram_bits:
            self._resident[slot] = occupancy
            self._resident_bits += occupancy
        else:
            # Pathological: one snapshot larger than the SRAM goes straight
            # to the host.
            self._evicted[slot] = occupancy
            cost += self.transport.bulk_latency_s(occupancy)
            self.stats.host_round_trips += 1
        return slot, cost

    # -- restore ------------------------------------------------------------------

    def restore(self, slot: Optional[int], chain_bits: int) -> float:
        """Account one snapshot restore; returns the modelled time."""
        self.stats.restores += 1
        cost = self.shift_cost_s(chain_bits)
        if slot is not None and slot in self._resident:
            self.stats.sram_hits += 1
            self._resident.move_to_end(slot)
        else:
            # Stream the image back from the host before shifting it in;
            # an evicted delta snapshot only streams its stored bits.
            self.stats.host_round_trips += 1
            stream_bits = self._evicted.get(slot, chain_bits) \
                if slot is not None else chain_bits
            cost += self.transport.bulk_latency_s(stream_bits)
        return cost

    def forget(self, slot: int) -> None:
        """Free a slot (snapshot no longer needed)."""
        self._resident_bits -= self._resident.pop(slot, 0)
        self._evicted.pop(slot, None)

    @property
    def resident_count(self) -> int:
        return len(self._resident)
