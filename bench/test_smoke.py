"""Checks of the benchmark itself, at smoke sizes (about half a minute).

Collected only by ``pytest bench/``; the repository's tier-1 suite
(``testpaths = ["tests"]``) does not see this file.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

from bench import compare
from bench.trace import Recorder

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}


def run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd,
        stdout=subprocess.PIPE, text=True, timeout=170,
    )


def test_smoke_run_reports_every_declared_metric(tmp_path):
    out = tmp_path / "smoke.json"
    done = run("--smoke", "--trace", "1", "--out", str(out))
    assert done.returncode == 0, done.stdout
    records = json.loads(out.read_text())["runs"]
    assert [r["workload"] for r in records] == [
        w["name"] for w in SPEC["workloads"]
    ]
    reported = set()
    for record in records:
        assert record["correct"] and record["smoke"], record["problems"]
        assert record["failed"] == 0
        assert set(record["samples"]) == END_TO_END
        assert all(v > 0 for vs in record["samples"].values() for v in vs)
        assert set(record["per_layer"]) <= PER_LAYER
        reported |= set(record["per_layer"])
        assert record["stamp"]["nproc"] >= 1
    # Every declared layer metric is produced by some workload.
    assert reported == PER_LAYER
    by_name = {r["workload"]: r["per_layer"] for r in records}
    assert by_name["net_put"]["net.node.log_entries_per_op"] >= 0.95
    assert by_name["net_read90"]["net.node.log_entries_per_op"] <= 0.2
    for name in ("mc_intact", "mc_hunt_r2", "sim_fig16_chaos"):
        assert (tmp_path / f"smoke.{name}.spans.jsonl").exists()
    # A smoke run is not a measurement: compare refuses it.
    assert compare.main([str(out), str(out)]) == 2


def test_last_line_is_the_contract_object():
    for trace, names in (("0", END_TO_END), ("1", PER_LAYER)):
        done = run("--smoke", "--workload", "sim_fig16_chaos",
                   "--seed", "5", "--seconds", "1", "--trace", trace)
        assert done.returncode == 0, done.stdout
        last = json.loads(done.stdout.splitlines()[-1])
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert last["correct"] is True and last["attempted"] >= 1
        assert set(last["metrics"]) == names
        assert all(set(m) == {"value", "unit"} for m in last["metrics"].values())


def test_fails_without_a_result_where_the_program_is_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run("--workload", "mc_intact", "--seed", "1", "--seconds", "1",
               "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


class _Layers:
    def inner(self):
        time.sleep(0.002)

    def outer(self):
        time.sleep(0.002)
        self.inner()

    def items(self):
        for i in range(3):
            time.sleep(0.002)
            yield i


def test_self_times_add_up_and_generators_are_timed_per_next():
    recorder = Recorder()
    recorder.wrap(_Layers, "inner", "inner")
    recorder.wrap(_Layers, "outer", "outer")
    recorder.wrap(_Layers, "items", "items")
    layers = _Layers()
    start = time.perf_counter()
    with recorder.span("root"):
        layers.outer()
        for _ in layers.items():
            time.sleep(0.01)  # the consumer's time is not the generator's
    total = time.perf_counter() - start
    recorder.unwrap_all()

    assert recorder.calls("inner") == recorder.calls("outer") == 1
    assert recorder.calls("items") == 4  # three items and the final stop
    assert 0.006 <= recorder.self_s("items") < 0.03
    assert recorder.self_s("root") >= 0.03
    parts = sum(recorder.self_s(k) for k in ("root", "inner", "outer", "items"))
    assert abs(parts - total) < 0.002
    # (label, start, end, parent): inner's parent is outer, outer's is root.
    labels = [span[0] for span in recorder.spans]
    outer = recorder.spans[labels.index("outer")]
    assert recorder.spans[labels.index("inner")][3] == labels.index("outer")
    assert outer[3] == labels.index("root")
    # Unwrapping restores the plain functions.
    assert not hasattr(_Layers.inner, "__wrapped__")
    assert recorder.calls("inner") == 1 and layers.inner() is None
