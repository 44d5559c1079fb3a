"""The benchmark's workloads: inputs generated from a seed, and the
checks that a campaign's outputs are right.

Every input is drawn from ``random.Random(f"{workload}:{seed}")``, so one
seed gives the same inputs in every process. The program sees only the
generated firmware text, seed packets and seeds.

* ``dse-wide`` — serial symbolic exploration, paper-default config (FPGA
  target, ``hardsnap`` strategy, ``affinity`` searcher) of a wide
  dispatcher: one symbolic command selects one of many short timer
  handlers. Solver-bound, few context switches. Seed → handler durations.
* ``dse-interleaved`` — serial exploration of a few long handlers under
  the seeded ``random`` searcher: nearly every scheduling pass is an
  Algorithm-1 context switch. Switch-bound. Seed → searcher seed and
  handler durations.
* ``fuzz-2w`` — ``ParallelFuzzer`` with 2 workers, default transport and
  a journal, over ``fuzz_packet_parser``: concrete execution, RTL
  stepping and one boot-snapshot restore per input; no solver. Seed →
  seed packet payloads and mutation RNG seed.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

WORKLOADS = ("dse-wide", "dse-interleaved", "fuzz-2w")

#: Seed used while the benchmark was sized and tuned.
DEV_SEED = 1
#: Seed kept out of tuning, for checking a claimed gain.
HELD_OUT_SEED = 7919

#: Timer base address of the firmware corpus.
TIMER_BASE = 0x4000_0000


@dataclass(frozen=True)
class DseSpec:
    durations: Tuple[int, ...]
    searcher: str
    searcher_seed: int

    @property
    def n_paths(self) -> int:
        return len(self.durations)


@dataclass(frozen=True)
class FuzzSpec:
    seeds: Tuple[bytes, ...]
    fuzz_seed: int
    executions: int
    workers: int = 2
    #: Inputs generated per scheduling round (``ParallelFuzzer``'s
    #: default); the serial reference uses the same value.
    batch_size: int = 32


def make_spec(workload: str, seed: int, tiny: bool = False):
    """The inputs of *workload* for *seed*. ``tiny`` shrinks the campaign
    to a few paths or executions (used by the benchmark's own tests)."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "dse-wide":
        n = 4 if tiny else 48
        return DseSpec(tuple(40 + rng.randrange(16) for _ in range(n)),
                       "affinity", 0)
    if workload == "dse-interleaved":
        n, base = (4, 60) if tiny else (8, 1200)
        durations = tuple(base + rng.randrange(base // 10)
                          for _ in range(n))
        return DseSpec(durations, "random", rng.randrange(2**31))
    if workload == "fuzz-2w":
        # A broad fixed-shape seed corpus (every command, copy lengths,
        # timer loads) keeps the per-execution cost mix close across
        # seeds: with three seed packets the corpus entries the fuzzer
        # adds dominate it and the campaign's modelled time varied by
        # 2x between seeds. The seed fills payload bytes and the RNG.
        seeds = [b"", b"\x05"]
        seeds += [bytes([0x01, n]) + rng.randbytes(n) for n in range(0, 17, 2)]
        seeds += [bytes([0x02, n]) for n in range(0, 32, 2)]
        seeds += [bytes([cmd]) + rng.randbytes(2) for cmd in (0x00, 0x03, 0x7F)]
        return FuzzSpec(tuple(seeds), rng.randrange(2**31),
                        64 if tiny else 10_000)
    raise ValueError(f"unknown workload {workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")


def dispatcher_firmware(durations: Tuple[int, ...],
                        timer_base: int = TIMER_BASE) -> str:
    """``repro.firmware.dispatcher`` with one timer duration per handler:
    a symbolic command ``c`` (taken modulo the handler count) selects
    handler ``c``, which programs the timer, polls for expiry and halts
    with code ``0x100 + c``."""
    n = len(durations)
    compare = "".join(f"""
    movi r3, {i}
    beq  r4, r3, case_{i}""" for i in range(n - 1))
    cases = "".join(f"""
case_{i}:
    movi r5, {cycles}
    sw   r5, 4(r1)          ; LOAD
    movi r2, 1
    sw   r2, 0(r1)          ; CTRL = EN
poll_{i}:
    lw   r3, 12(r1)         ; STATUS
    beq  r3, r0, poll_{i}
    movi r2, 1
    sw   r2, 12(r1)         ; clear
    movi r2, 0x100 + {i}
    halt r2
""" for i, cycles in enumerate(durations))
    return f"""
.equ TIMER, 0x{timer_base:x}
start:
    movi r1, TIMER
    movi r2, 0
    sw   r2, 16(r1)         ; PRESCALE = 0
    sym  r4
    movi r3, {n}
    remu r4, r4, r3         ; command in [0, n)
{compare}
    j case_{n - 1}
{cases}
"""


def digest(text: str) -> str:
    return hashlib.blake2b(text.encode(), digest_size=8).hexdigest()


def check_dse_paths(spec: DseSpec, report) -> List[str]:
    """Every handler is reached exactly once, halts with ``0x100 + i``,
    and its witness command selects handler ``i``."""
    problems = []
    if report.stop_reason != "exhausted":
        problems.append(f"stop={report.stop_reason}, expected exhausted")
    if report.bugs:
        problems.append(f"{len(report.bugs)} unexpected bugs")
    n = spec.n_paths
    seen: Dict[int, int] = {}
    for path in report.paths:
        code = path.halt_code
        i = (code or 0) - 0x100
        if path.status != "halted" or not 0 <= i < n:
            problems.append(f"path {path.lineage}: status={path.status} "
                            f"halt={code}")
            continue
        seen[i] = seen.get(i, 0) + 1
        values = list(path.test_case.values())
        if len(values) != 1 or values[0] % n != i:
            problems.append(f"case {i}: witness {path.test_case} "
                            f"does not select it")
    for i in range(n):
        if seen.get(i) != 1:
            problems.append(f"case {i} reached {seen.get(i, 0)} times")
    return problems
