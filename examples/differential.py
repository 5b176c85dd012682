#!/usr/bin/env python3
"""Differential model checking across the seven reconfiguration schemes.

Adore's safety proof is parameterized over the reconfiguration scheme,
so every scheme runs on the same Adore semantics -- and can therefore
be compared head-to-head: identical exploration budgets, each design
rule (R2, R3, OVERLAP, ``insertBtw``) ablated in turn, and a record of
who survives what.  The headline result is the MongoDB logless scheme:
its protocol carries its own analogues of R2/R3 as enabling conditions
(the Q1 config-quorum and Q2 oplog-commitment checks), so ablating
Adore's rules leaves it SAFE where Raft single-node falls to the
Fig. 4 counterexample.

Run:  python examples/differential.py           (small smoke budgets)
      python examples/differential.py --full    (Fig. 4-class budgets)
      python examples/differential.py --json report.json
"""

import argparse
import sys
from typing import Optional, Sequence

from repro.mc.differential import (
    ABLATIONS,
    DEFAULT_BUDGETS,
    MATRIX,
    SMOKE_BUDGETS,
    run_differential,
)
from repro.schemes import SCHEMES


def main(
    full: bool = False,
    json_path: Optional[str] = None,
    workers: int = 1,
    schemes: Optional[Sequence[str]] = None,
    ablations: Optional[Sequence[str]] = None,
    expect_separation: bool = False,
) -> int:
    budgets = DEFAULT_BUDGETS if full else SMOKE_BUDGETS
    max_states = 250_000 if full else 50_000
    rows = MATRIX
    if schemes is not None:
        rows = [s for s in SCHEMES.values() if s.name in set(schemes)]
    mode = "full (Fig. 4-class budgets)" if full else "smoke budgets"
    print(f"== Differential check, {len(rows)} schemes, {mode} ==\n")
    report = run_differential(
        schemes=rows,
        budgets=budgets,
        ablations=tuple(ablations) if ablations else ABLATIONS,
        max_states=max_states,
        workers=workers,
        progress=lambda message: print(f"  {message}"),
    )
    print()
    print(report.render())

    deaths = [rec for rec in report.records if not rec.safe]
    print(
        f"\n{len(deaths)} violations found across "
        f"{len(report.records)} (scheme, ablation) cells."
    )
    separating = []
    names = {scheme.name for scheme in rows}
    if {"raft-single-node", "mongo-logless"} <= names:
        separating = report.separations("raft-single-node", "mongo-logless")
        if separating:
            print(
                "ablations separating mongo-logless from raft-single-node: "
                + ", ".join(separating)
            )
        else:
            print(
                "no separating ablation at this budget -- the Fig. 4-class "
                "separation (logless survives no-r3, raft dies) needs --full"
            )

    if json_path:
        with open(json_path, "w") as handle:
            handle.write(report.to_json())
        print(f"machine-readable report written to {json_path}")

    # Self-checks (the CI gate): an intact scheme must never violate
    # safety, and --expect-separation demands at least one ablation on
    # which raft-single-node dies while mongo-logless stays SAFE.
    intact_deaths = [
        rec.scheme for rec in report.records
        if rec.ablation == "intact" and not rec.safe
    ]
    if intact_deaths:
        print(f"FAIL: intact violation(s): {', '.join(intact_deaths)}")
        return 1
    if expect_separation and not separating:
        print("FAIL: expected a raft/logless separating ablation, found none")
        return 1
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--full",
        action="store_true",
        help="use the Fig. 4-class budgets (minutes, shows the "
        "logless/raft no-r3 separation)",
    )
    parser.add_argument("--json", metavar="PATH", help="write the JSON report")
    parser.add_argument(
        "--workers", type=int, default=1,
        help="worker processes per cell (default: 1, in-process)",
    )
    parser.add_argument(
        "--scheme", action="append", dest="schemes", metavar="NAME",
        help="restrict to named schemes (repeatable)",
    )
    parser.add_argument(
        "--ablation", action="append", dest="ablations", metavar="NAME",
        choices=ABLATIONS, help="restrict to named ablations (repeatable)",
    )
    parser.add_argument(
        "--expect-separation", action="store_true",
        help="exit non-zero unless some ablation separates "
        "mongo-logless from raft-single-node",
    )
    args = parser.parse_args()
    sys.exit(main(
        full=args.full,
        json_path=args.json,
        workers=args.workers,
        schemes=args.schemes,
        ablations=args.ablations,
        expect_separation=args.expect_separation,
    ))
