"""The CADO machine: Adore with the reconfiguration fragment removed."""

from __future__ import annotations

from typing import Optional

from ..core.cache import Config, NodeId
from ..core.config import ReconfigScheme, StaticScheme
from ..core.errors import InvalidOperation
from ..core.oracle import Oracle
from ..core.semantics import AdoreMachine, OpResult
from ..mc.explorer import Explorer, OpBudget


class CadoMachine(AdoreMachine):
    """An Adore machine whose ``reconfig`` operation does not exist.

    The underlying scheme defaults to :class:`StaticScheme` (majority
    quorums, R1⁺ reflexive only), matching the paper's presentation of
    CADO as the non-boxed fragment of Fig. 6-11.
    """

    @classmethod
    def create(
        cls,
        conf0: Config,
        scheme: Optional[ReconfigScheme] = None,
        oracle: Oracle = None,
        strict: bool = False,
        **_ignored,
    ) -> "CadoMachine":
        base = AdoreMachine.create(
            conf0, scheme or StaticScheme(), oracle, strict=strict
        )
        return cls(
            scheme=base.scheme,
            oracle=base.oracle,
            state=base.state,
            strict=base.strict,
        )

    def reconfig(self, nid: NodeId, new_conf: Config) -> OpResult:
        raise InvalidOperation(
            "CADO has no reconfiguration operation; use AdoreMachine for "
            "the full model"
        )


def cado_explorer(
    conf0: Config,
    budget: Optional[OpBudget] = None,
    **explorer_kwargs,
) -> Explorer:
    """A model-checker over the CADO transition relation.

    :class:`StaticScheme` proposes no reconfiguration move (its R1⁺
    would reject every one anyway), so none is ever generated.
    """
    return Explorer(
        StaticScheme(),
        conf0,
        budget=budget or OpBudget(pulls=2, invokes=2, reconfigs=0, pushes=2),
        **explorer_kwargs,
    )
