"""Tests of the benchmark itself.

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from array import array
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import probe  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload",
         workload, "--seed", str(workloads.DEV_SEED), "--seconds", "0",
         "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def _summary(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_emits_every_end_to_end_metric(workload):
    summary = _summary(_bench(workload, 0))
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] and summary["failed"] == 0
    assert summary["attempted"] == run.MIN_ROUNDS + 1
    units = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {name: metric["unit"] for name, metric
            in summary["metrics"].items()} == units
    assert all(metric["value"] > 0 for metric in summary["metrics"].values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_traced_run_emits_every_per_layer_metric(workload):
    summary = _summary(_bench(workload, 1))
    assert summary["correct"] and summary["failed"] == 0
    units = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {name: metric["unit"] for name, metric
            in summary["metrics"].items()} == units
    metrics = {name: m["value"] for name, m in summary["metrics"].items()}
    if workload == "fuzz-2w":
        assert metrics["solver.check.calls"] == 0
        assert metrics["fuzz.exec.calls"] > 0
        assert metrics["journal.append.calls"] > 0
        assert metrics["pool.wait_s"] > 0
        assert metrics["trace.worker_processes"] == 2
    else:
        assert metrics["solver.check.calls"] > 0
        assert metrics["vm.instructions"] == metrics["target.step.cycles"]
        assert metrics["fuzz.exec.calls"] == 0


def test_without_program_sources_exits_nonzero(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench("dse-wide", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_hard_timeout_stops_the_round_and_its_workers(tmp_path):
    shm = Path("/dev/shm")
    before = set(shm.iterdir()) if shm.is_dir() else set()
    # 1 s is past the imports and the pool's start and well short of a
    # full round (about 1.3 s of campaign alone on a quiet host).
    result, error = run.spawn(
        ["--workload", "fuzz-2w", "--seed", "1", "--mode", "round",
         "--work-dir", str(tmp_path)], timeout=1.0)
    assert result is None and error.startswith("hard timeout")
    leftover = subprocess.run(["pgrep", "-f", str(tmp_path)],
                              capture_output=True, text=True).stdout
    assert leftover == ""
    if shm.is_dir():
        assert not {p.name for p in set(shm.iterdir()) - before
                    if p.name.startswith("rpr-")}


# ---------------------------------------------------------------------------
# Verdict and count checks, with the campaign processes faked
# ---------------------------------------------------------------------------

def _fake_round(verdict="v1", instructions=10, problems=(), scale=1.0):
    return {"setup_s": 0.1, "run_s": 0.5, "peak_rss_mb": 30.0,
            "verdict": verdict, "problems": list(problems),
            "paths": 4, "instructions": 10,
            "counts": {"modelled_s": 0.25, "instructions": instructions},
            "ipc": {}, "speed": {"scale": scale},
            "wall": {"setup_s": 0.2, "run_s": 1.0}}


def _run_with(monkeypatch, tmp_path, capsys, rounds):
    """run.main with campaign processes replaced by *rounds* (in order)."""
    queue = list(rounds)

    def fake_spawn(args, timeout):
        if args[args.index("--mode") + 1] == "reference":
            return {"verdict": "v1", "problems": []}, ""
        return queue.pop(0) if queue else (_fake_round(), "")

    monkeypatch.setattr(run, "spawn", fake_spawn)
    monkeypatch.setattr(run, "OUT", tmp_path)
    assert run.main(["--workload", "dse-wide", "--seed", "3",
                     "--seconds", "0"]) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_clean_rounds_pass(monkeypatch, tmp_path, capsys):
    summary = _run_with(monkeypatch, tmp_path, capsys, [])
    assert summary["correct"] and summary["failed"] == 0
    assert summary["attempted"] == run.MIN_ROUNDS + 1


def test_corrupted_verdict_counts_as_failed(monkeypatch, tmp_path, capsys):
    summary = _run_with(monkeypatch, tmp_path, capsys, [
        (_fake_round(), ""), (_fake_round(verdict="corrupt"), "")])
    assert not summary["correct"]
    assert summary["failed"] == 1
    assert summary["attempted"] == run.MIN_ROUNDS + 1
    record = json.loads(next(tmp_path.glob("result-*.json")).read_text())
    assert record["verdict_fail"] == pytest.approx(1 / (run.MIN_ROUNDS + 1))


def test_count_drift_and_timeout_count_as_failed(monkeypatch, tmp_path,
                                                 capsys):
    summary = _run_with(monkeypatch, tmp_path, capsys, [
        (_fake_round(), ""), (_fake_round(instructions=11), ""),
        (None, "hard timeout after 40 s")])
    assert summary["failed"] == 2


def test_counts_are_compared_with_the_previous_run(monkeypatch, tmp_path,
                                                   capsys):
    assert _run_with(monkeypatch, tmp_path, capsys, [])["failed"] == 0
    drifted = [(_fake_round(instructions=12), "")] * run.MIN_ROUNDS
    summary = _run_with(monkeypatch, tmp_path, capsys, drifted)
    assert summary["failed"] == 1


def test_end_to_end_times_are_scaled_by_each_rounds_probe():
    rounds = [_fake_round(scale=0.5), _fake_round(scale=0.5),
              _fake_round(scale=2.0)]
    metrics = run.end_to_end(rounds, None)
    assert metrics["run_s"] == pytest.approx(0.25)
    assert metrics["setup_s"] == pytest.approx(0.05)
    assert metrics["paths_per_s"] == pytest.approx(4 / 0.25)
    assert metrics["instr_per_s"] == pytest.approx(10 / 0.25)


def test_modelled_time_ignores_float_summation_order():
    a = run.canonical_counts({"modelled_s": 0.174584})
    b = run.canonical_counts({"modelled_s": 0.17458400000000002})
    one_cycle_more = run.canonical_counts({"modelled_s": 0.174584 + 1e-8})
    assert a == b != one_cycle_more


# ---------------------------------------------------------------------------
# Span arithmetic
# ---------------------------------------------------------------------------

def _dump(spans):
    """(name, parent index, start, end) rows, in start order."""
    names = sorted({s[0] for s in spans})
    return {"names": names,
            "name_ix": array("H", [names.index(s[0]) for s in spans]),
            "parent": array("l", [s[1] for s in spans]),
            "start": array("q", [s[2] for s in spans]),
            "end": array("q", [s[3] for s in spans])}


def test_self_time_on_a_synthetic_span_tree():
    dump = _dump([
        ("campaign", -1, 0, 100),
        ("a", 0, 10, 40),
        ("leaf", 1, 20, 30),
        ("b", 0, 50, 90),
        ("leaf", 3, 60, 70),
        ("leaf", 3, 65, 80),   # overlaps its sibling: union is 60..80
        ("c", 0, 95, 120),     # runs past its parent: clipped to 95..100
    ])
    rows = tracing.self_times(dump)
    assert rows["campaign"] == (1, 100, 100 - 30 - 40 - 5)
    assert rows["a"] == (1, 30, 20)
    assert rows["b"] == (1, 40, 20)
    assert rows["leaf"] == (3, 10 + 10 + 15, 35)
    assert rows["c"] == (1, 25, 25)
    inside = tracing.self_times(dump, window=(0, 100))
    assert "c" not in inside and inside["campaign"] == rows["campaign"]


def test_recorder_nests_spans_and_sums_to_the_root():
    rec = tracing.Recorder()

    def leaf():
        return sum(range(1000))

    def middle():
        return rec.span("leaf", leaf) + rec.span("leaf", leaf)

    rec.span(tracing.ROOT, lambda: rec.span("middle", middle))
    dump = rec.dump()
    assert list(dump["parent"]) == [-1, 0, 1, 1]
    rows = tracing.self_times(dump, tracing.root_window(dump))
    assert rows["leaf"][0] == 2
    assert sum(row[2] for row in rows.values()) == rows[tracing.ROOT][1]


def test_chrome_trace_has_one_track_per_pid(tmp_path):
    worker = _dump([("fuzz.exec", -1, 5, 9)])
    worker.update(pid=2, role="worker")
    coordinator = _dump([("campaign", -1, 0, 10), ("pool.wait", 0, 1, 9)])
    coordinator.update(pid=1, role="coordinator")
    path = tmp_path / "trace.json"
    tracing.chrome_trace([coordinator, worker], path)
    events = json.loads(path.read_text())["traceEvents"]
    spans = [e for e in events if e["ph"] == "X"]
    assert {e["pid"] for e in spans} == {1, 2}
    assert all(e["tid"] == e["pid"] for e in events)
    assert {e["args"]["name"] for e in events if e["ph"] == "M"} == {
        "coordinator 1", "worker 2"}


# ---------------------------------------------------------------------------
# Speed probe
# ---------------------------------------------------------------------------

def test_probe_scale_is_the_mean_speed_over_wall_time():
    p = probe.SpeedProbe()
    k = probe.REF_KERNEL_S
    # Half the wall time at reference speed, half at half speed.
    p.samples = [k, 2 * k]
    assert p.scale() == pytest.approx(0.75)
    with pytest.raises(RuntimeError):
        probe.SpeedProbe().scale()


def test_probe_clock_is_cpu_time_per_vcpu_without_the_probe():
    previous = signal.getsignal(signal.SIGALRM)
    with probe.SpeedProbe(period_s=0.005) as p:
        busy0, cpu0, net0 = p.busy_s, time.process_time(), p.clock()
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
        net, cpu = p.clock() - net0, time.process_time() - cpu0
    assert len(p.samples) >= 20
    assert p.busy_s - busy0 > 0.01
    # A sample can fall between two clock readings: allow one.
    assert net == pytest.approx((cpu - (p.busy_s - busy0)) / p.vcpus,
                                abs=0.002)
    assert p.scale() > 0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is previous


def test_campaign_cpu_time_counts_live_children():
    child = subprocess.Popen(
        [sys.executable, "-c",
         "import time\nend = time.process_time() + 0.3\n"
         "while time.process_time() < end: pass\ntime.sleep(30)"])
    try:
        before = probe.campaign_cpu_s()
        time.sleep(1.0)
        gained = probe.campaign_cpu_s() - before
    finally:
        child.kill()
        child.wait()
    # The child's 0.3 s of work (its start-up may fall before *before*).
    assert 0.15 < gained < 0.6
