"""The repository benchmark: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload dse-wide --seed 1 --seconds 20 --trace 0

Runs campaigns of the workload (``perfbench/workloads.py``) in fresh
processes, one after another, until ``--seconds`` have passed (and at
least :data:`MIN_ROUNDS`). Before the rounds it makes one reference run on
another schedule; every round must reproduce the reference verdict, pass
the workload's output checks, and repeat the deterministic counts of the
first round exactly. A round that breaks any of these, or exceeds the
hard timeout, counts as failed.

``--trace 0`` reports the end-to-end metrics: medians over rounds, with
each round timed on the clock of its speed probe and scaled to the
reference host's speed (``perfbench/probe.py``).
``--trace 1`` alternates untraced and traced rounds and reports the
per-layer metrics of the median traced round plus the tracing overhead,
and writes a Chrome trace and a layer table under ``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. See
``perfbench/README.md`` for the metrics and why each workload exists.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

#: Least number of measured rounds (pairs in trace mode) per run.
MIN_ROUNDS = 3
#: Hard timeout of one campaign process (reference or round).
ROUND_TIMEOUT_S = 40.0
#: No round starts this long after the rounds began, so a run ends
#: within its 180 s budget even when rounds hit the hard timeout.
LAST_START_S = 80.0

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "paths_per_s": "1/s",
                    "instr_per_s": "1/s", "modelled_s": "s",
                    "peak_rss_mb": "MiB"}


def per_layer_units(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.startswith("ipc.bytes"):
        return "B"
    if name.endswith(("_ratio", "_to_logical", ".overhead")):
        return "ratio"
    return "count"


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------

def _group_alive(pgid: int) -> bool:
    """True while any non-zombie process is left in group *pgid*."""
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        fields = stat[stat.rindex(")") + 2:].split()
        if int(fields[2]) == pgid and fields[0] != "Z":
            return True
    return False


def _stop_group(pgid: int) -> None:
    """Wait for every process of the round's group (pool workers, the
    shared-memory resource tracker) to end; kill what is left after 5 s."""
    deadline = time.monotonic() + 5.0
    while _group_alive(pgid):
        if time.monotonic() > deadline:
            try:
                os.killpg(pgid, signal.SIGKILL)
            except ProcessLookupError:
                return
            deadline = time.monotonic() + 5.0
        time.sleep(0.02)


def spawn(args: List[str], timeout: float) -> Tuple[Optional[dict], str]:
    """Run ``campaign.py`` with *args* in its own process group; returns
    (result, error). On the hard timeout the whole group is killed."""
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "campaign.py"), *args], cwd=ROOT,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        # Two SIGTERMs to the campaign process, as a user's two Ctrl-Cs:
        # its shutdown handler closes the pool and unlinks the shared-
        # memory segments. Then SIGKILL the whole group.
        for sig, grace in ((signal.SIGTERM, 1.0), (signal.SIGTERM, 3.0),
                           (signal.SIGKILL, None)):
            try:
                if sig == signal.SIGKILL:
                    os.killpg(proc.pid, sig)
                else:
                    os.kill(proc.pid, sig)
            except ProcessLookupError:  # it ended meanwhile
                pass
            try:
                proc.communicate(timeout=grace)
                break
            except subprocess.TimeoutExpired:
                continue
        return None, f"hard timeout after {timeout:.0f} s"
    finally:
        _stop_group(proc.pid)
    if proc.returncode != 0:
        tail = " | ".join(err.strip().splitlines()[-3:])
        return None, f"exit {proc.returncode}: {tail}"
    try:
        return json.loads(out.strip().splitlines()[-1]), ""
    except (ValueError, IndexError):
        return None, "no result line"


# ---------------------------------------------------------------------------
# Checks and aggregation
# ---------------------------------------------------------------------------

def canonical_counts(counts: dict) -> dict:
    """The deterministic counts as compared across rounds and runs.

    ``modelled_s`` is a float sum. ``ParallelFuzzer`` adds the per-shard
    modelled times in arrival order, so its last bits change between
    runs of the same campaign (0.174584 vs 0.17458400000000002); it is
    compared to 12 significant digits, which still shows a change of one
    modelled clock cycle. Every other count is an integer, compared
    exactly."""
    return {**counts, "modelled_s": float(f"{counts['modelled_s']:.12g}")}


def judge(result: Optional[dict], error: str, reference: Optional[dict],
          counts: Optional[dict]) -> List[str]:
    """Why a round failed (empty when it passed): no result, failed
    output checks, a verdict other than the reference's, or deterministic
    counts that differ from *counts*."""
    if result is None:
        return [error]
    problems = list(result["problems"])
    if reference is None:
        problems.append("no reference verdict to compare with")
    elif result["verdict"] != reference["verdict"]:
        problems.append(f"verdict {result['verdict']} != reference "
                        f"{reference['verdict']}")
    mine = canonical_counts(result["counts"])
    if counts is not None and mine != counts:
        drift = sorted(k for k in counts if mine.get(k) != counts[k])
        problems.append(f"deterministic counts drifted: {drift}")
    return problems


def end_to_end(rounds: List[Optional[dict]],
               reference: Optional[dict]) -> Dict:
    """The run's end-to-end metrics: medians over the rounds that
    produced timings, with each round's times (on its speed probe's
    clock) scaled to the reference host's speed."""
    timed = [r for r in rounds if r is not None]

    def instructions(r):
        if r["instructions"] is not None:
            return r["instructions"]
        return (reference or {}).get("instructions", 0)

    def scaled(r, key):
        return r[key] * r["speed"]["scale"]

    def median(values):
        return statistics.median(list(values))

    return {
        "setup_s": median(scaled(r, "setup_s") for r in timed),
        "run_s": median(scaled(r, "run_s") for r in timed),
        "paths_per_s": median(r["paths"] / scaled(r, "run_s")
                              for r in timed),
        "instr_per_s": median(instructions(r) / scaled(r, "run_s")
                              for r in timed),
        "modelled_s": median(r["counts"]["modelled_s"] for r in timed),
        "peak_rss_mb": median(r["peak_rss_mb"] for r in timed),
    }


def median_round(rounds: List[Optional[dict]]) -> dict:
    """The round with the (lower) median ``run_s``."""
    timed = [r for r in rounds if r is not None]
    mid = statistics.median_low(r["run_s"] for r in timed)
    return next(r for r in timed if r["run_s"] == mid)


def per_layer(traced: List[Optional[dict]],
              untraced: List[Optional[dict]]) -> Dict:
    """The per-layer metrics of the median traced round (one round, so
    its layer self times add up to its own ``trace.run_s``), plus the
    tracing overhead: median traced / median untraced wall ``run_s``."""
    out = dict(median_round(traced)["layers"])
    out["trace.overhead"] = (
        statistics.median(r["wall"]["run_s"] for r in traced if r is not None)
        / statistics.median(r["wall"]["run_s"] for r in untraced
                            if r is not None))
    return out


# ---------------------------------------------------------------------------
# Run metadata and the cross-run count record
# ---------------------------------------------------------------------------

def src_digest() -> str:
    """Digest of the program's sources: identifies "one commit" in a
    checkout that is not a git repository."""
    h = hashlib.blake2b(digest_size=8)
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def host_meta(args) -> dict:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True,
                             timeout=10).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        sha = None
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "tiny": args.tiny,
            "effective_cores": len(os.sched_getaffinity(0)),
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "git_sha": sha, "src_digest": src_digest(),
            "loadavg_start": os.getloadavg(),
            "started": time.strftime("%Y-%m-%dT%H:%M:%S%z")}


def recorded_counts(key: str, counts: dict) -> dict:
    """Counts an earlier run in this checkout recorded under *key*
    (sources digest, workload, seed, size); records *counts* if none."""
    path = OUT / "counts.json"
    try:
        table = json.loads(path.read_text())
    except (OSError, ValueError):
        table = {}
    if key not in table:
        table[key] = counts
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(table, indent=1, sort_keys=True))
        os.replace(tmp, path)
    return table[key]


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="HardSnap repository benchmark (see perfbench/README.md)")
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="few-path campaigns (the benchmark's tests)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {ROOT / 'src' / 'repro'}; "
              f"run from a full checkout", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    meta = host_meta(args)
    tag = f"{args.workload}-s{args.seed}{'-tiny' if args.tiny else ''}"
    work = OUT / f"work-{os.getpid()}"
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        common.append("--tiny")

    def launch(mode: str, name: str, extra=()) -> Tuple[Optional[dict], str]:
        return spawn([*common, "--mode", mode, "--work-dir",
                      str(work / name), *extra], ROUND_TIMEOUT_S)

    reference, ref_error = launch("reference", "reference")
    failures: List[str] = []
    if reference is None or reference["problems"]:
        failures.append("reference: " + (ref_error or "; ".join(
            reference["problems"])))
        reference = None

    modes = ["round", "traced"] if args.trace else ["round"]
    results: Dict[str, List[Optional[dict]]] = {m: [] for m in modes}
    judged = 0
    failed = 0
    first_counts: Optional[dict] = None
    start = time.monotonic()
    while True:
        elapsed = time.monotonic() - start
        if len(results["round"]) >= MIN_ROUNDS and elapsed >= args.seconds:
            break
        if elapsed >= LAST_START_S and results["round"]:
            break
        for mode in modes:
            n = len(results[mode])
            extra = []
            if mode == "traced" and n == 0:
                extra = ["--trace-file", str(OUT / f"trace-{tag}.json")]
            result, error = launch(mode, f"{mode}-{n}", extra)
            if first_counts is None and result is not None:
                first_counts = canonical_counts(result["counts"])
            problems = judge(result, error, reference, first_counts)
            judged += 1
            if problems:
                failed += 1
                failures.append(f"{mode} {n}: " + "; ".join(problems))
            results[mode].append(result)
    shutil.rmtree(work, ignore_errors=True)

    key = f"{meta['src_digest']}:{tag}"
    if first_counts is not None:
        judged += 1
        if recorded_counts(key, first_counts) != first_counts:
            failed += 1
            failures.append(f"deterministic counts differ from the run "
                            f"recorded for {key} in {OUT / 'counts.json'}")

    if not any(r is not None for r in results["round"]) or (
            args.trace and not any(r is not None for r in results["traced"])):
        print("error: no round produced a result:\n  "
              + "\n  ".join(failures), file=sys.stderr)
        return 1

    if args.trace:
        values = per_layer(results["traced"], results["round"])
        units = {name: per_layer_units(name) for name in values}
    else:
        values = end_to_end(results["round"], reference)
        units = END_TO_END_UNITS
    metrics = {name: {"value": values[name], "unit": units[name]}
               for name in values}
    summary = {"correct": failed == 0, "attempted": judged, "failed": failed,
               "metrics": metrics}

    record = {"meta": meta, "summary": summary, "failures": failures,
              "reference": reference, "rounds": results,
              "verdict_fail": failed / judged}
    (OUT / f"result-{tag}-t{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True, default=str))
    if args.trace:
        print(median_round(results["traced"])["layer_table"])
    else:
        for key in ("setup_s", "run_s"):
            wall = statistics.median(r["wall"][key] for r in results["round"]
                                     if r is not None)
            print(f"{'wall_' + key:<28}{wall:>16.6g} s (not a metric)")
    for name, metric in metrics.items():
        print(f"{name:<28}{metric['value']:>16.6g} {metric['unit']}")
    print(f"{'verdict_fail':<28}{failed / judged:>16.6g} share "
          f"({failed}/{judged} runs)")
    for line in failures:
        print(f"FAIL {line}")
    print("# meta " + json.dumps(meta, sort_keys=True))
    print(json.dumps(summary, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
