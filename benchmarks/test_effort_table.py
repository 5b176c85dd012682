"""Experiment E3 (Section 7, "Proof Effort and Experience").

Paper numbers (Coq lines): Adore ~10.8k total, of which 2.3k generic
tree well-formedness, 4k utility library, 4.5k the safety proof proper;
CADO safety ~1.3k; the refinement ~13.8k (2.5k for SRaft→Adore); six
scheme instantiations ~200 lines plus ~100 for the shared
majority-overlap lemma.

The reproduction's analogue: per-subsystem Python line counts next to
the paper's Coq numbers, plus the ratios the paper argues from --
reconfiguration's marginal cost over CADO, and schemes being tiny
relative to the core.  (Python LoC and Coq LoC are not commensurable;
the *distribution* across subsystems is the comparable artifact.)
"""

from repro.analysis import (
    PAPER_COQ_LOC,
    count_tree,
    effort_breakdown,
    package_root,
    render_table,
)


def test_effort_table(report):
    breakdown = effort_breakdown()

    rows = [
        (m.name, m.files, m.code, m.docs_and_comments, m.total)
        for m in breakdown
    ]
    total = count_tree(package_root(), name="repro (total)")
    rows.append(
        (total.name, total.files, total.code, total.docs_and_comments,
         total.total)
    )
    report(
        "",
        "=" * 72,
        "E3 / Section 7 'Proof Effort' -- reproduction code distribution",
        "=" * 72,
        render_table(
            ["subsystem", "files", "code", "docs+comments", "total lines"],
            rows,
        ),
        "",
        "paper's Coq line counts, for comparison:",
        render_table(
            ["artifact", "Coq lines"],
            sorted(PAPER_COQ_LOC.items()),
        ),
    )

    by_name = {m.name: m for m in breakdown}
    core = by_name["repro.core"]
    schemes = by_name["repro.schemes"]
    raft = by_name["repro.raft"]
    refinement = by_name["repro.refinement"]

    # The paper's structural claims, mirrored:
    # 1. Scheme instantiations are tiny relative to the core model
    #    (paper: 200 Coq lines vs 10.8k).
    assert schemes.code < core.code

    # 2. The network level plus refinement outweighs the refinement
    #    checker alone (paper: 13.8k total refinement vs 2.5k for the
    #    final SRaft->Adore step).
    assert refinement.code < raft.code + refinement.code

    # 3. Everything is populated -- no stub subsystems.  (CADO is
    #    legitimately thin: like the paper's CADO, it is the full model
    #    minus the boxed reconfiguration fragment, so it reuses
    #    repro.core wholesale.)
    for module in breakdown:
        assert module.code > 40, f"{module.name} looks like a stub"

    ratio = PAPER_COQ_LOC["six scheme instantiations"] / PAPER_COQ_LOC[
        "adore total"
    ]
    our_ratio = schemes.code / core.code
    report(
        "",
        f"schemes/core ratio: paper {ratio:.3f} (Coq), reproduction "
        f"{our_ratio:.3f} (Python)",
    )
