"""Compare two result files with the bounds ``BENCHMARK.json`` fixes.

    python3 bench/compare.py A.json B.json

``A`` is the parent (or the first of two sets of one commit), ``B`` the
change.  Both come from ``bench/run.py --out``; a file that collected
several runs pools their samples.  One row per workload and end-to-end
metric gives both medians and quartiles and a verdict:

``ok``          B's median is no worse than A's by more than the bound
``worse``       it is
``unresolved``  A's own spread (quartile distance over median) exceeds
                the bound, so the pair cannot show either

A workload is also ``worse`` when a larger share of its ops failed in B
or a run in B failed a correctness check.  The exit code is 1 when
anything is ``worse``, 2 when a file cannot be compared (a smoke run,
or no workload in common).
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def load(path: str) -> Dict[str, List[dict]]:
    """The file's run records by workload."""
    by_workload: Dict[str, List[dict]] = {}
    for record in json.loads(Path(path).read_text())["runs"]:
        if record["smoke"]:
            raise ValueError(f"{path} holds a smoke run: not a measurement")
        by_workload.setdefault(record["workload"], []).append(record)
    return by_workload


def summary(values: List[float]) -> Tuple[float, Optional[float], Optional[float]]:
    """Median and quartiles; no quartiles from a single sample."""
    if len(values) < 2:
        return values[0], None, None
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def cell(median: float, q1: Optional[float], q3: Optional[float], n: int) -> str:
    spread = "" if q1 is None else f" [{q1:.5g}, {q3:.5g}]"
    return f"{median:.5g}{spread} n={n}"


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__)
        return 2
    try:
        a_runs, b_runs = load(argv[0]), load(argv[1])
    except ValueError as refusal:
        print(refusal)
        return 2
    shared = [w["name"] for w in SPEC["workloads"]
              if w["name"] in a_runs and w["name"] in b_runs]
    if not shared:
        print("the two files have no workload in common")
        return 2

    worse = 0
    for workload in shared:
        for metric in SPEC["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a = [v for r in a_runs[workload] for v in r["samples"][name]]
            b = [v for r in b_runs[workload] for v in r["samples"][name]]
            a_med, a_q1, a_q3 = summary(a)
            b_med, b_q1, b_q3 = summary(b)
            change = (b_med - a_med) / a_med
            if metric["better"] == "higher":
                change = -change
            if a_q1 is not None and (a_q3 - a_q1) / a_med > bound:
                verdict = "unresolved"
            elif change > bound:
                verdict = "worse"
                worse += 1
            else:
                verdict = "ok"
            print(f"{workload:<16} {name:<15} {metric['unit']:<4} "
                  f"A {cell(a_med, a_q1, a_q3, len(a)):<38} "
                  f"B {cell(b_med, b_q1, b_q3, len(b)):<38} "
                  f"worse by {change:+.1%} of {bound:.0%}  {verdict}")
        a_failed, b_failed = (
            sum(r["failed"] for r in runs[workload])
            / sum(r["attempted"] for r in runs[workload])
            for runs in (a_runs, b_runs)
        )
        incorrect = [r["problems"] for r in b_runs[workload] if not r["correct"]]
        if b_failed > a_failed or incorrect:
            worse += 1
            print(f"{workload:<16} failed share A {a_failed:.3%} B {b_failed:.3%}; "
                  f"failed checks in B: {incorrect}  worse")
        # Counters that repeat exactly for one seed: a difference means
        # the program's behaviour changed, which a pure speed-up must not.
        a_exact = {r["seed"]: r["exact"] for r in a_runs[workload]}
        for r in b_runs[workload]:
            before = a_exact.get(r["seed"])
            if before is not None and before != r["exact"]:
                print(f"{workload:<16} seed {r['seed']}: exact-repeat counters "
                      f"changed: {before} -> {r['exact']}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
