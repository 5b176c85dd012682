"""Exhaustive checking of the scheme assumptions of Fig. 7.

The paper's safety proof is parameterized: it holds for *any* scheme
whose ``R1⁺``/``isQuorum`` satisfy

* REFLEXIVE -- ``R1⁺(cf, cf)`` for every valid configuration, and
* OVERLAP -- ``R1⁺(cf, cf') ∧ isQuorum(Q, cf) ∧ isQuorum(Q', cf')
  ⟹ Q ∩ Q' ≠ ∅``.

In Coq these are per-scheme side-condition proofs (~200 lines for six
schemes).  Here :func:`check_assumptions` verifies them *exhaustively*
over every configuration of the scheme's bounded universe
(:meth:`~repro.core.config.ReconfigScheme.configs`) and every pair of
quorums, reporting the number of cases covered -- the small-scope
analogue of the proof obligations.  It also checks QUORUM-EXISTS: every
configuration has at least one quorum.  A configuration without one
satisfies OVERLAP vacuously and passes every safety check, because
nothing can ever commit under it.

:class:`OverlapAblation` is any scheme with OVERLAP broken on purpose,
for the checkers to catch.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Sequence, Tuple

from ..core.cache import Config, NodeId
from ..core.config import ReconfigScheme, nonempty_subsets


@dataclass(frozen=True)
class ReflexiveWitness:
    """A configuration at which ``R1⁺(cf, cf)`` failed."""

    config: Config
    described: str

    def describe(self) -> str:
        return f"R1+ not reflexive at {self.described}"


@dataclass(frozen=True)
class QuorumWitness:
    """A valid configuration no group of its members is a quorum of."""

    config: Config
    described: str

    def describe(self) -> str:
        return f"no quorum exists in {self.described}"


@dataclass(frozen=True)
class OverlapWitness:
    """A concrete OVERLAP counterexample: an R1⁺-related config pair
    plus one disjoint quorum of each."""

    old_config: Config
    new_config: Config
    old_described: str
    new_described: str
    quorum_old: Tuple[NodeId, ...]
    quorum_new: Tuple[NodeId, ...]

    def describe(self) -> str:
        return (
            f"disjoint quorums {list(self.quorum_old)} / "
            f"{list(self.quorum_new)} for {self.old_described} → "
            f"{self.new_described}"
        )


@dataclass
class AssumptionReport:
    """The result of exhaustively checking REFLEXIVE, QUORUM-EXISTS and
    OVERLAP.

    A violated assumption carries its concrete witnesses: the
    configuration (REFLEXIVE, QUORUM-EXISTS) or the config pair with one
    disjoint quorum of each (OVERLAP), both as raw values and as
    rendered strings, so a failure report shows *why* the scheme is
    broken rather than just that it is.
    """

    scheme: str
    universe: Tuple[NodeId, ...]
    configs_checked: int = 0
    transition_pairs: int = 0
    quorum_pairs_checked: int = 0
    reflexive_witnesses: List[ReflexiveWitness] = field(default_factory=list)
    quorum_witnesses: List[QuorumWitness] = field(default_factory=list)
    overlap_witnesses: List[OverlapWitness] = field(default_factory=list)

    @property
    def reflexive_violations(self) -> List[str]:
        return [w.describe() for w in self.reflexive_witnesses]

    @property
    def quorum_violations(self) -> List[str]:
        return [w.describe() for w in self.quorum_witnesses]

    @property
    def overlap_violations(self) -> List[str]:
        return [w.describe() for w in self.overlap_witnesses]

    @property
    def ok(self) -> bool:
        """True when every assumption held over the entire universe."""
        return not (
            self.reflexive_witnesses
            or self.quorum_witnesses
            or self.overlap_witnesses
        )

    def summary(self) -> str:
        status = "OK" if self.ok else "VIOLATED"
        return (
            f"{self.scheme}: {status} -- {self.configs_checked} configs, "
            f"{self.transition_pairs} R1+ transitions, "
            f"{self.quorum_pairs_checked} quorum pairs "
            f"(universe {list(self.universe)})"
        )


def check_assumptions(
    scheme: ReconfigScheme,
    nodes: Sequence[NodeId],
    configs: Iterable[Config] = None,
    stop_at_first: bool = False,
) -> AssumptionReport:
    """Exhaustively verify REFLEXIVE, QUORUM-EXISTS and OVERLAP over a
    bounded universe.

    ``configs`` defaults to ``scheme.configs(nodes)``.
    ``stop_at_first`` aborts on the first violation (useful when
    demonstrating that an ablated scheme is broken without enumerating
    every witness).
    """
    config_list = list(configs) if configs is not None else scheme.configs(nodes)
    report = AssumptionReport(scheme=scheme.name, universe=tuple(sorted(nodes)))
    report.configs_checked = len(config_list)

    quorums: Dict[Config, List[frozenset]] = {}
    for conf in config_list:
        quorums[conf] = [
            group
            for group in nonempty_subsets(scheme.members(conf))
            if scheme.is_quorum(group, conf)
        ]
        if not scheme.r1_plus(conf, conf):
            report.reflexive_witnesses.append(
                ReflexiveWitness(conf, scheme.describe_config(conf))
            )
        if not quorums[conf]:
            report.quorum_witnesses.append(
                QuorumWitness(conf, scheme.describe_config(conf))
            )
        if stop_at_first and not report.ok:
            return report

    for old, new in itertools.product(config_list, repeat=2):
        if not scheme.r1_plus(old, new):
            continue
        report.transition_pairs += 1
        for q_old in quorums[old]:
            for q_new in quorums[new]:
                report.quorum_pairs_checked += 1
                if not q_old & q_new:
                    report.overlap_witnesses.append(OverlapWitness(
                        old_config=old,
                        new_config=new,
                        old_described=scheme.describe_config(old),
                        new_described=scheme.describe_config(new),
                        quorum_old=tuple(sorted(q_old)),
                        quorum_new=tuple(sorted(q_new)),
                    ))
                    if stop_at_first:
                        return report
    return report


class OverlapAblation(ReconfigScheme):
    """A scheme with OVERLAP ablated: R1⁺ accepts *any* valid config.

    Wraps a base scheme, delegating membership, quorums and the config
    universe, but lets a single reconfiguration jump to an arbitrary
    valid configuration: its protocol moves are the base scheme's
    :meth:`~repro.core.config.ReconfigScheme.jumps`.  REFLEXIVE still
    holds; OVERLAP is the assumption under test.  Over set
    configurations (``OverlapAblation(RaftSingleNodeScheme())``) R1⁺ is
    "any non-empty member set".
    """

    def __init__(self, base: ReconfigScheme) -> None:
        self.base = base
        self.name = f"{base.name}+no-overlap"

    def members(self, conf: Config) -> FrozenSet[NodeId]:
        return self.base.members(conf)

    def is_quorum(self, group: Iterable[NodeId], conf: Config) -> bool:
        return self.base.is_quorum(group, conf)

    def r1_plus(self, old: Config, new: Config) -> bool:
        return self.base.is_valid_config(new)

    def is_valid_config(self, conf: Config) -> bool:
        return self.base.is_valid_config(conf)

    def describe_config(self, conf: Config) -> str:
        return self.base.describe_config(conf)

    def initial(self, universe: Iterable[NodeId]) -> Config:
        return self.base.initial(universe)

    def configs(self, nodes: Iterable[NodeId]) -> List[Config]:
        return self.base.configs(nodes)

    def moves(self, state, nid, conf, universe, removals_only=False):
        return self.base.jumps(state, nid, conf, universe)

    def jumps(self, state, nid, conf, universe):
        return self.base.jumps(state, nid, conf, universe)
