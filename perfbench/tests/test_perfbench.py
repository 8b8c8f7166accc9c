"""Self-tests of the benchmark harness.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q

The rule and accounting tests take a second; the smoke runs start the
real program and take a few minutes in all.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)

import common  # noqa: E402
from common import (  # noqa: E402
    BenchError,
    Sample,
    Window,
    closed_loop,
    latency_summary,
    min_samples,
    percentile,
    samples_beyond,
)
from workloads import WORKLOADS, CliCold, ServeWarm  # noqa: E402


def load_contract():
    with open(os.path.join(common.ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


CONTRACT_WORKLOADS = [w["name"] for w in load_contract()["workloads"]]


# ---- the percentile-rank rule ---------------------------------------------

def test_min_samples_leaves_ten_beyond():
    for pct, need in ((50, 20), (60, 25), (70, 34), (75, 40), (80, 50),
                      (90, 100)):
        assert min_samples(pct) == need
        assert samples_beyond(need, pct) >= 10
        assert samples_beyond(need - 1, pct) < 10


def test_percentile_is_nearest_rank():
    values = [float(v) for v in range(1, 41)]  # 1..40
    assert percentile(values, 75) == 30.0
    assert percentile(list(reversed(values)), 75) == 30.0


def test_thin_tail_is_refused():
    with pytest.raises(BenchError, match="needs 40 samples, got 39"):
        percentile([1.0] * 39, 75)


def test_each_workload_tail_is_in_the_contract():
    whys = {w["name"]: w["why"] for w in load_contract()["workloads"]}
    assert set(whys) == set(WORKLOADS)
    for name, why in whys.items():
        assert f"p{WORKLOADS[name].tail_pct:g}" in why


# ---- failure accounting ----------------------------------------------------

def test_failed_ops_count_in_latency_but_not_throughput():
    window = Window([Sample(i, 0.1 * (i + 1), ok=i % 5 != 0)
                     for i in range(20)], wall_s=10.0)
    assert (window.attempted, window.failed) == (20, 4)
    summary = latency_summary(window, 50)
    assert summary["ops_per_s"] == pytest.approx(1.6)
    # the failed ops' latencies (0.1, 0.6, 1.1, 1.6 s) are still counted
    assert summary["op_p50_ms"] == pytest.approx(1050.0)
    assert summary["op_tail_ms"] == pytest.approx(1000.0)


def test_closed_loop_counts_raised_and_refused_ops():
    def op(seed):
        if seed == 3:
            raise RuntimeError("boom")
        return seed != 5, "refused" if seed == 5 else "", None

    window = closed_loop(op, iter(range(100)), seconds=0.0, need=12)
    assert window.attempted == 12
    assert sorted(s.seed for s in window.samples if not s.ok) == [3, 5]
    assert any("RuntimeError: boom" in why for why in window.failures())


def test_closed_loop_extends_until_the_tail_has_its_samples():
    def op(seed):
        time.sleep(0.01)
        return True, "", None

    window = closed_loop(op, iter(range(1000)), seconds=0.05, need=20)
    assert window.attempted >= 20
    assert window.wall_s > 0.05


# ---- injected mismatches ---------------------------------------------------

def test_etag_mismatch_is_a_failed_op():
    wl = ServeWarm(1)
    seed = wl.inputs[0]
    wl.etags = {seed: "recorded-at-setup"}
    wl._submit = lambda s: {"etag": "something-else", "job": "j1"}
    ok, why, _ = wl.op(seed)
    assert not ok and "ETag" in why
    wl._submit = lambda s: {"etag": "recorded-at-setup", "job": "j2"}
    assert wl.op(seed)[0]


class _Run:
    def __init__(self, stdout):
        self.stdout = stdout


def test_reference_core_mismatch_fails_the_sampled_op():
    window = Window([Sample(seed, 1.0, output=_Run(b"fast"))
                     for seed in range(10)])
    CliCold(1).check_after(window, reference=lambda seed: b"fast")
    assert window.failed == 0
    CliCold(1).check_after(window, reference=lambda seed: b"reference")
    assert window.failed == 2  # the first and the middle op are sampled
    assert [s.seed for s in window.samples if not s.ok] == [0, 5]


def daemon_after_window(generated):
    """A ServeWarm whose daemon reports *generated* traces made in the
    timed window, and a window of four correct ops."""
    wl = ServeWarm(1)
    wl.proc = types.SimpleNamespace(pid=os.getpid())
    wl.counters_before = {"workload_trace_generated": 8.0}
    wl.counters = lambda: {"workload_trace_generated": 8.0 + generated}
    wl.job_ms = lambda job: 500.0
    window = Window([Sample(seed, 0.6, output={"etag": "e", "job": "j"})
                     for seed in range(4)])
    return wl, window


def test_trace_generated_in_the_window_is_a_failed_op():
    wl, window = daemon_after_window(0)
    layers = wl.window_layers(window)
    assert window.failed == 0
    assert layers["workloads.generated_per_op"] == 0
    assert layers["serve.overhead_ms"] == pytest.approx(100.0)
    wl, window = daemon_after_window(2)
    layers = wl.window_layers(window)
    assert window.failed == 1
    assert "generated 2 traces" in window.failures()[0]
    assert layers["workloads.generated_per_op"] == pytest.approx(0.5)


# ---- smoke runs of the real program ----------------------------------------

def run_bench(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload",
         workload, "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        cwd=common.ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", CONTRACT_WORKLOADS)
def test_smoke_prints_every_end_to_end_metric(workload):
    stdout, result = run_bench(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= min_samples(WORKLOADS[workload].tail_pct)
    contract = load_contract()["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in contract}
    for metric in contract:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"] and got["value"] > 0
        # printed by name, with its unit and sample count
        assert any(line.split()[:1] == [metric["name"]]
                   and metric["unit"] in line and "(n=" in line
                   for line in stdout.splitlines())


@pytest.mark.parametrize("workload", CONTRACT_WORKLOADS)
def test_smoke_traced_run_prints_every_per_layer_metric(workload):
    stdout, result = run_bench(workload, 1)
    assert result["correct"] and result["failed"] == 0
    contract = load_contract()["per_layer"]
    assert set(result["metrics"]) == {m["name"] for m in contract}
    for metric in contract:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    assert "(no layer: uncovered)" in stdout
    values = {name: got["value"] for name, got in result["metrics"].items()}
    assert values["uarch.cycles"] > 0 and values["graph.sweeps_per_op"] > 0
    if workload == "serve-warm":
        assert values["workloads.generated_per_op"] == 0
        assert values["serve.job_ms"] > 0
    else:
        assert values["workloads.generated_per_op"] == 1
        assert values["cli.import_ms"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in os.listdir(BENCH):
        if name.endswith(".py"):
            (bench / name).write_bytes(
                open(os.path.join(BENCH, name), "rb").read())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
