"""The repository's one benchmark command.

    python3 bench/run.py --workload W --seed S --seconds N --trace 0|1

runs workload ``W`` (every workload when ``--workload`` is left out),
checks its output, prints each metric by name with its unit and sample
count and, when one workload was named, ends with the one-line JSON
object ``BENCHMARK.json`` promises.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` adds one traced repeat and reports
the per-layer metrics.  The exit code is non-zero when a correctness
check fails.  See ``bench/README.md`` for the protocol.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from bench import mc, net, sim  # noqa: E402
from bench.calibrate import REFERENCE_S  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m for m in SPEC["per_layer"]}

#: Set-ups timed per run; the reported ``setup_s`` is their median.
SETUP_SAMPLES = 3
#: A child that runs longer than this is told to end and the run fails,
CHILD_TIMEOUT_S = 150
#: and has this long to reap its own processes before it is killed.
CHILD_REAP_S = 15
#: ``--smoke`` is one repeat with this ``net_*`` window.
SMOKE_SECONDS = 1.5

#: Sizes that define the workloads, stamped into every result.
PROTOCOL = {
    "setup_samples": SETUP_SAMPLES,
    "kernel_reference_s": REFERENCE_S,
    "sim_ops": sim.OPS,
    "net_clients": net.CLIENTS,
    "net_keys": net.KEYS,
    "net_warmup_s": net.WARMUP_S,
    "net_slice_s": net.SLICE_S,
    "net_snapshot_threshold": net.SNAPSHOT_THRESHOLD,
    "smoke": {"mc_max_states": mc.SMOKE_MAX_STATES, "sim_ops": sim.SMOKE_OPS,
              "net_window_s": SMOKE_SECONDS},
}


def launch(job: dict) -> dict:
    """Run one job in a fresh child process and return what it measured."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT), str(ROOT / "src")]
        + [p for p in [env.get("PYTHONPATH")] if p]
    )
    env["TMPDIR"] = job["scratch"]
    child = subprocess.Popen(
        [sys.executable, "-m", "bench.child", json.dumps(job)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
    )
    try:
        stdout, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        if child.poll() is None:
            # Late, or this process was told to end: the child reaps
            # what it started when it is told to end in turn.
            child.terminate()
            try:
                child.wait(timeout=CHILD_REAP_S)
            except subprocess.TimeoutExpired:
                child.kill()
                child.wait()
    if child.returncode != 0:
        raise RuntimeError(
            f"{job['workload']}: child exited with code {child.returncode}"
        )
    return json.loads(stdout.splitlines()[-1])


def end_to_end(raw: dict) -> Dict[str, float]:
    """One repeat's end-to-end values, at the speed at which the
    calibration kernel takes its reference time.  The ``net_*`` children
    report medians over their window's slices, and their ``wall_s`` is
    the window, as long as it was asked to be.  The other workloads are
    one call, so a caller waits the call's duration for its verdict,
    which is both latencies."""
    ops, to_reference = raw["ops"], REFERENCE_S / raw["kernel_s"]
    if "ops_per_s" in raw:
        return {
            "setup_s": raw["setup_s"] * to_reference,
            "wall_s": raw["wall_s"],
            "peak_rss_mib": raw["peak_rss_mib"],
            "ops_per_s": raw["ops_per_s"] / to_reference,
            "latency_p50_ms": raw["latency_p50_ms"] * to_reference,
            "latency_p99_ms": raw["latency_p99_ms"] * to_reference,
            "cpu_ms_per_op": raw["cpu_ms_per_op"] * to_reference,
        }
    wall_s = raw["wall_s"] * to_reference
    return {
        "setup_s": raw["setup_s"] * to_reference,
        "wall_s": wall_s,
        "peak_rss_mib": raw["peak_rss_mib"],
        "ops_per_s": ops / wall_s,
        "latency_p50_ms": wall_s * 1e3,
        "latency_p99_ms": wall_s * 1e3,
        "cpu_ms_per_op": raw["cpu_s"] * to_reference * 1e3 / ops,
    }


def measure(workload: str, args, scratch: str) -> dict:
    """All children of one workload; returns its result record."""
    job = {
        "workload": workload, "seed": args.seed, "seconds": args.seconds,
        "smoke": args.smoke, "trace": False, "setup_only": False,
        "scratch": scratch, "spans": None,
    }
    repeats = [launch(job) for _ in range(args.repeats)]
    samples = {name: [] for name in END_TO_END}
    for raw in repeats:
        for name, value in end_to_end(raw).items():
            samples[name].append(value)
    if not args.smoke:
        # Set-up alone takes under a second; the kernel timed around the
        # last repeat stands for the box's speed during these too.
        while len(samples["setup_s"]) < SETUP_SAMPLES:
            extra = launch({**job, "setup_only": True})
            samples["setup_s"].append(
                extra["setup_s"] * REFERENCE_S / raw["kernel_s"]
            )

    problems = [p for raw in repeats for p in raw["problems"]]
    # Counters that must repeat exactly for one seed are compared, not
    # averaged: a difference means the benchmark is broken.
    if any(raw["exact"] != repeats[0]["exact"] for raw in repeats):
        problems.append("exact-repeat counters differ between repeats")

    layers = None
    if args.trace:
        if args.out is not None:
            job["spans"] = str(
                args.out.with_suffix(f".{workload}.spans.jsonl")
            )
        traced = launch({**job, "trace": True})
        repeats.append(traced)
        problems.extend(traced["problems"])
        if traced["exact"] != repeats[0]["exact"]:
            problems.append(
                "the traced run did not reproduce the untraced counters: "
                f"{traced['exact']} != {repeats[0]['exact']}"
            )
        layers = {k: v for k, v in traced["exact"].items() if k in PER_LAYER}
        layers.update(traced["layers"])
        # Time per op, traced over untraced, both at reference speed.
        plain = statistics.median(
            raw["wall_s"] / raw["kernel_s"] / raw["ops"] for raw in repeats[:-1]
        )
        layers["trace.overhead_ratio"] = (
            traced["wall_s"] / traced["kernel_s"] / traced["ops"] / plain
        )
        layers["trace.kernel_ms"] = traced["kernel_s"] * 1e3

    return {
        "workload": workload,
        "seed": args.seed,
        "smoke": args.smoke,
        "correct": not problems,
        "problems": problems,
        "attempted": sum(raw["attempted"] for raw in repeats),
        "failed": sum(raw["failed"] for raw in repeats),
        "repeats": len(samples["wall_s"]),
        "samples": samples,
        "kernel_s": [raw["kernel_s"] for raw in repeats],
        "exact": repeats[0]["exact"],
        "per_layer": layers,
    }


def stamp(args) -> dict:
    """Where and how the numbers were taken."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_1m": os.getloadavg()[0],
        "git_sha": sha,
        "seconds": args.seconds,
        "protocol": PROTOCOL,
    }


def show(record: dict) -> None:
    """One line per metric: name, value, unit, sample count, quartiles."""
    rows = []
    for name, values in record["samples"].items():
        rows.append((name, END_TO_END[name]["unit"], values))
    for name, value in (record["per_layer"] or {}).items():
        rows.append((name, PER_LAYER[name]["unit"], [value]))
    for name, unit, values in rows:
        line = (f"{record['workload']:<16} {name:<36} "
                f"{statistics.median(values):>14.6g} {unit:<6} n={len(values)}")
        if len(values) > 1:
            q1, _, q3 = statistics.quantiles(values, n=4)
            line += f"  q1={q1:.6g} q3={q3:.6g}"
        print(line)
    verdict = "correct" if record["correct"] else f"FAILED {record['problems']}"
    print(f"{record['workload']:<16} {verdict}; {record['failed']} of "
          f"{record['attempted']} ops failed; exact-repeat {record['exact']}")


def contract_line(record: dict, trace: bool) -> str:
    """The JSON object the last line of a one-workload run holds."""
    if trace:
        # A layer the workload does not touch did no work: 0.
        metrics = {
            name: {"value": record["per_layer"].get(name, 0),
                   "unit": PER_LAYER[name]["unit"]}
            for name in PER_LAYER
        }
    else:
        metrics = {
            name: {"value": statistics.median(values),
                   "unit": END_TO_END[name]["unit"]}
            for name, values in record["samples"].items()
        }
    return json.dumps({
        "correct": record["correct"],
        "attempted": max(1, record["attempted"]),
        "failed": record["failed"],
        "metrics": metrics,
    })


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="one workload (default: all of them)")
    parser.add_argument("--seed", type=int, default=3,
                        help="feeds the load generators and the nemesis")
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"],
                        help="measuring time of the net_* workloads (their "
                             "window); the others are one call of fixed work")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeats", type=int, default=1,
                        help="fresh-process repeats per workload (default 1)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, one repeat; results are marked")
    parser.add_argument("--out", type=Path,
                        help="append the result records to this JSON file")
    args = parser.parse_args(argv)
    if args.smoke:
        args.seconds, args.repeats = SMOKE_SECONDS, 1

    # Told to end, unwind: that is what ends the child in flight.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    where = stamp(args)
    scratch = ROOT / ".bench_tmp" / f"run-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    records = []
    try:
        for workload in [args.workload] if args.workload else WORKLOADS:
            record = measure(workload, args, str(scratch))
            record["stamp"] = where
            records.append(record)
            show(record)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if args.out is not None:
        runs = []
        if args.out.exists():
            runs = json.loads(args.out.read_text())["runs"]
        args.out.write_text(json.dumps({"runs": runs + records}, indent=1))
    if args.workload:
        print(contract_line(records[0], bool(args.trace)))
    return 0 if all(record["correct"] for record in records) else 1


if __name__ == "__main__":
    sys.exit(main())
