"""Safety properties and their checkers (Section 4 and Appendix B).

The centrepiece is *replicated state safety* (Definition 4.1): every
CCache lies on a single branch of the cache tree, i.e. there is global
agreement on a consistent commit history.  The paper proves this in Coq
by induction on ``rdist``; here each named lemma/theorem of Appendix B
becomes an executable predicate over a cache tree, and the model checker
(:mod:`repro.mc`) validates them over every reachable state of bounded
instances.

Checker naming follows the paper: each function's docstring cites the
corresponding Coq theorem name (``rado_inv_*``).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, List, Optional, Tuple

from .cache import (
    CCache,
    Cid,
    MCache,
    RCache,
    cache_gt,
    is_ccache,
    is_committable,
    is_ecache,
    is_rcache,
    order_key,
)
from .errors import SafetyViolation
from .state import AdoreState, TimeMap
from .tree import ROOT_CID, CacheTree


# ----------------------------------------------------------------------
# rdist (Definition 4.2)
# ----------------------------------------------------------------------

def _build_rprefix(tree: CacheTree) -> dict:
    table = {}
    stack = [(ROOT_CID, 0)]
    while stack:
        cid, above = stack.pop()
        count = above + (1 if is_rcache(tree.cache(cid)) else 0)
        table[cid] = count
        for child in tree.children(cid):
            stack.append((child, count))
    return table


def _extend_rprefix(
    tree: CacheTree, base: dict, op: str, new_cid: Cid, parent_cid: Cid
) -> Optional[dict]:
    # A new leaf adds one entry, and a non-RCache inserted into an
    # edge (the semantics only ever insert CCaches) changes no existing
    # path's RCache count either: both copy the predecessor's table and
    # add the new node's entry.  An RCache inserted into an edge would
    # shift the counts below it, so that case rebuilds.
    new_is_r = is_rcache(tree.cache(new_cid))
    if op != "leaf" and new_is_r:
        return None
    table = dict(base)
    table[new_cid] = base[parent_cid] + (1 if new_is_r else 0)
    return table


def _rprefix(tree: CacheTree) -> dict:
    """Per-cid count of RCaches on the root-to-cid path (inclusive).

    Memoized on the (hash-consed) tree; turns :func:`rdist` into O(depth)
    arithmetic instead of materializing the path.  Built by walking down
    from the root, so it covers exactly the caches reachable from it --
    the only ones ``rdist`` is ever asked about on well-formed trees.
    """
    return tree.derive("rprefix", _extend_rprefix, _build_rprefix)


def rdist(tree: CacheTree, a: Cid, b: Cid) -> int:
    """The number of RCaches on the path between ``a`` and ``b``.

    The path runs through the nearest common ancestor and excludes both
    endpoints (Definition 4.2).  This counts exactly the
    reconfigurations that can make the two caches' configurations
    diverge.  Computed from the per-branch RCache prefix counts: each
    leg contributes its prefix-count difference to the NCA minus the
    excluded endpoint, and the NCA itself counts when it is interior.
    """
    nca = tree.nearest_common_ancestor(a, b)
    table = _rprefix(tree)
    at_nca = table[nca]
    total = 0
    if a != nca:
        total += table[a] - at_nca - (1 if is_rcache(tree.cache(a)) else 0)
    if b != nca:
        total += table[b] - at_nca - (1 if is_rcache(tree.cache(b)) else 0)
    if nca != a and nca != b and is_rcache(tree.cache(nca)):
        total += 1
    return total


def tree_rdist(tree: CacheTree) -> int:
    """The maximum ``rdist`` between any two caches in the tree."""
    cids = list(tree.cids())
    best = 0
    for a, b in combinations(cids, 2):
        best = max(best, rdist(tree, a, b))
    return best


# ----------------------------------------------------------------------
# Committed log extraction
# ----------------------------------------------------------------------

def is_committed(tree: CacheTree, cid: Cid) -> bool:
    """A cache is committed iff a CCache is among its descendants-or-self.

    (Section 2.4: MCaches and RCaches are implicitly committed if a
    CCache is among their descendants; this keeps the tree append-only.)
    """
    return any(
        is_ccache(tree.cache(d)) for d in tree.descendants(cid, include_self=True)
    )


def max_ccache(tree: CacheTree) -> Cid:
    """The greatest CCache under the cache order (the deepest commit)."""
    best = tree.max_cache(tree.kind_cids("C"))
    return ROOT_CID if best is None else best


def committed_log(tree: CacheTree) -> List[Cid]:
    """The globally committed command sequence (the SMR persistent log).

    The MCaches/RCaches on the branch of the greatest CCache that lie
    above it, in root-to-leaf order.  Well-defined whenever replicated
    state safety holds (all CCaches are on that branch).
    """
    tip = max_ccache(tree)
    return [
        cid
        for cid in tree.branch(tip)
        if is_committable(tree.cache(cid))
    ]


def committed_methods(tree: CacheTree) -> List[object]:
    """The committed payloads: method names, or configs for RCaches."""
    out: List[object] = []
    for cid in committed_log(tree):
        cache = tree.cache(cid)
        out.append(cache.method if hasattr(cache, "method") else cache.conf)
    return out


# ----------------------------------------------------------------------
# Invariant checkers (Definition 4.1 and Appendix B)
# ----------------------------------------------------------------------

def check_replicated_state_safety(tree: CacheTree) -> List[str]:
    """Definition 4.1 / Theorem B.9 [rado_inv_C_linear].

    For any two CCaches, one must be a descendant of the other.  Returns
    violation descriptions (empty when safe).
    """
    problems: List[str] = []
    ccaches = tree.kind_cids("C")
    for a, b in combinations(ccaches, 2):
        if not tree.same_branch(a, b):
            problems.append(
                f"CCaches {a} ({tree.cache(a).describe()}) and "
                f"{b} ({tree.cache(b).describe()}) lie on different branches "
                f"(rdist={rdist(tree, a, b)})"
            )
    return problems


def check_descendant_order(tree: CacheTree) -> List[str]:
    """Lemma B.1 [rado_inv_descendant_lt]: descendants are greater.

    If ``C_Y`` is a descendant of ``C_X`` then ``C_Y > C_X``.
    """
    problems: List[str] = []
    for cid, parent, cache in tree.parent_items():
        if parent is None:
            continue
        if not cache_gt(cache, tree.cache(parent)):
            problems.append(
                f"cache {cid} ({cache.describe()}) is not greater "
                f"than its parent {parent} ({tree.cache(parent).describe()})"
            )
    return problems


def check_leader_time_uniqueness(
    tree: CacheTree, max_rdist: Optional[int] = None
) -> List[str]:
    """Lemmas B.2/B.5 [rado_inv_E_unique_time_no_R / _overlap].

    Two distinct ECaches within ``max_rdist`` reconfigurations of each
    other must have distinct timestamps.  ``max_rdist=None`` checks all
    pairs (which holds on reachable states of the *correct* model and is
    what the ablations break).
    """
    problems: List[str] = []
    etimes = [(cid, tree.cache(cid).time) for cid in tree.kind_cids("E")]
    for (a, ta), (b, tb) in combinations(etimes, 2):
        if ta != tb:
            continue
        if max_rdist is not None and rdist(tree, a, b) > max_rdist:
            continue
        problems.append(
            f"ECaches {a} and {b} share timestamp {ta} "
            f"(rdist={rdist(tree, a, b)})"
        )
    return problems


def check_election_commit_order(
    tree: CacheTree, max_rdist: Optional[int] = None
) -> List[str]:
    """Theorems B.3/B.6 [rado_inv_EC_descendant_no_R and kin].

    For a CCache ``C_C`` and an ECache ``C_E`` with ``C_E > C_C`` and
    rdist within bound, ``C_E`` must be a descendant of ``C_C``: later
    leaders must have every earlier commit in their history.
    """
    problems: List[str] = []
    ckeys = [(c, order_key(tree.cache(c))) for c in tree.kind_cids("C")]
    for e in tree.kind_cids("E"):
        ekey = order_key(tree.cache(e))
        for c, ckey in ckeys:
            if not ekey > ckey:
                continue
            if max_rdist is not None and rdist(tree, e, c) > max_rdist:
                continue
            if not tree.is_ancestor(c, e, strict=True):
                problems.append(
                    f"ECache {e} ({tree.cache(e).describe()}) > CCache {c} "
                    f"({tree.cache(c).describe()}) but is not its descendant "
                    f"(rdist={rdist(tree, e, c)})"
                )
    return problems


def check_ccache_in_rcache_fork(tree: CacheTree) -> List[str]:
    """Lemma 4.4 / B.8 [rado_inv_R_branch_case].

    For RCaches ``C_R1``/``C_R2`` with ``rdist = 0`` on diverging
    branches, some CCache must sit strictly between their nearest common
    ancestor and one of them.  This is the consequence of R3 that breaks
    the circularity in the general safety proof.
    """
    problems: List[str] = []
    for a, b in combinations(tree.kind_cids("R"), 2):
        if tree.same_branch(a, b):
            continue
        if rdist(tree, a, b) != 0:
            continue
        nca = tree.nearest_common_ancestor(a, b)
        found = any(
            is_ccache(tree.cache(mid))
            for target in (a, b)
            for mid in tree.ancestors(target)
            if tree.is_ancestor(nca, mid, strict=True)
        )
        if not found:
            problems.append(
                f"RCaches {a} and {b} fork at {nca} with no intervening CCache"
            )
    return problems


def check_version_reset(tree: CacheTree) -> List[str]:
    """ECaches reset the version number to 0; M/RCaches increment it."""
    problems: List[str] = []
    for cid, parent, cache in tree.parent_items():
        if is_ecache(cache) and cache.vrsn != 0:
            problems.append(f"ECache {cid} has version {cache.vrsn}")
        if parent is not None and is_committable(cache):
            parent_cache = tree.cache(parent)
            if cache.time == parent_cache.time and cache.vrsn != parent_cache.vrsn + 1:
                problems.append(
                    f"cache {cid} does not increment its parent's version "
                    f"({cache.vrsn} after {parent_cache.vrsn})"
                )
    return problems


@dataclass(frozen=True)
class SafetyReport:
    """The aggregated result of all invariant checks over one state.

    Immutable (frozen, tuple fields): a report is memoized on its
    hash-consed tree and handed to every caller that checks the tree,
    and every clean verdict in the process is the one :data:`_CLEAN`
    instance, so a report that could be appended to would let one
    caller rewrite what all the others see.
    """

    safety: Tuple[str, ...] = ()
    well_formedness: Tuple[str, ...] = ()
    descendant_order: Tuple[str, ...] = ()
    leader_time_uniqueness: Tuple[str, ...] = ()
    election_commit_order: Tuple[str, ...] = ()
    ccache_in_rcache_fork: Tuple[str, ...] = ()
    version_reset: Tuple[str, ...] = ()

    #: Checker labels in reporting order; also the keys accepted by
    #: :meth:`filtered`.
    LABELS = (
        "safety",
        "well-formedness",
        "descendant-order",
        "leader-time-uniqueness",
        "election-commit-order",
        "ccache-in-rcache-fork",
        "version-reset",
    )

    @property
    def ok(self) -> bool:
        """True when no checker reported a violation."""
        return not (
            self.safety
            or self.well_formedness
            or self.descendant_order
            or self.leader_time_uniqueness
            or self.election_commit_order
            or self.ccache_in_rcache_fork
            or self.version_reset
        )

    def _by_label(self) -> List[Tuple[str, Tuple[str, ...]]]:
        return [
            ("safety", self.safety),
            ("well-formedness", self.well_formedness),
            ("descendant-order", self.descendant_order),
            ("leader-time-uniqueness", self.leader_time_uniqueness),
            ("election-commit-order", self.election_commit_order),
            ("ccache-in-rcache-fork", self.ccache_in_rcache_fork),
            ("version-reset", self.version_reset),
        ]

    def all_violations(self) -> List[str]:
        """All violation descriptions, tagged by checker."""
        out: List[str] = []
        for label, items in self._by_label():
            out.extend(f"[{label}] {item}" for item in items)
        return out

    def violation_count(self) -> int:
        """``len(self.all_violations())`` without formatting any."""
        return sum(len(items) for _, items in self._by_label())

    def filtered(self, labels: "Iterable[str]") -> "SafetyReport":
        """A report keeping only the named checkers' findings.

        Used by ablation experiments to target one invariant (e.g. only
        top-level ``"safety"``) while ignoring the auxiliary lemmas that
        break earlier.
        """
        wanted = set(labels)
        unknown = wanted - set(self.LABELS)
        if unknown:
            raise ValueError(f"unknown invariant labels: {sorted(unknown)}")
        kept = {
            label.replace("-", "_"): (items if label in wanted else ())
            for label, items in self._by_label()
        }
        return SafetyReport(**kept)


def validate_invariant_labels(labels: Iterable[str]) -> Tuple[str, ...]:
    """Check ``labels`` against :attr:`SafetyReport.LABELS` and return
    them as a tuple.

    Raises ``ValueError`` on unknown labels.  Callers that defer the
    actual checking (the model checker validates at construction, then
    checks states in worker processes) use this to fail fast in the
    submitting process rather than with a cross-process traceback.
    """
    labels = tuple(labels)
    unknown = set(labels) - set(SafetyReport.LABELS)
    if unknown:
        raise ValueError(f"unknown invariant labels: {sorted(unknown)}")
    return labels


#: The verdict of every clean tree in the process: one shared object,
#: not one per tree (immutable, see :class:`SafetyReport`).
_CLEAN = SafetyReport()

#: Validated ``(memo_key, extend, build)`` per ``(lemma_rdist_bound,
#: only)``: the report's memo key on a tree and its derivation pair for
#: :meth:`CacheTree.derive` (see :func:`_check_config`).
_CHECK_CONFIGS: dict = {}


#: The invariants that read :func:`rdist`.
_RDIST_LEMMAS = frozenset(
    {"leader-time-uniqueness", "election-commit-order", "ccache-in-rcache-fork"}
)


def _delta_clean(
    tree: CacheTree,
    op: str,
    new_cid: Cid,
    parent_cid: Cid,
    wanted: set,
    bound: Optional[int],
) -> bool:
    """True iff adding one node to a *clean* tree stays clean.

    Incremental form of the checkers for the two growth operations: a
    clean parent report plus clean delta pairs implies a clean report,
    because (a) adding a leaf, or inserting a non-RCache into an edge,
    changes no existing pair's rdist, branch membership, or pairwise
    ancestry, so every previously-checked pair checks identically, and
    (b) the only new pairs involve the new node, which are exactly the
    ones examined here (for ``insert_btw`` also the reparented
    children's parent-edge conditions).  The one exception to (a) is
    suspect by rule: a node inserted below an RCache with two or more
    children takes over from it as their fork point, so every pair
    across two of them has one RCache fewer between it and may have
    come within a lemma's reach.  Any failed or *suspect* delta
    returns False and the caller recomputes the full report, so
    violation messages and their order always come from the full
    checkers.  Callers must not use this when inserting an RCache
    between existing nodes (that can change existing rdists).
    """
    new_cache = tree.cache(new_cid)
    pcache = tree.cache(parent_cid)
    new_is_c = is_ccache(new_cache)
    new_is_e = is_ecache(new_cache)
    reparented = tree.children(new_cid) if op == "btw" else ()

    if len(reparented) > 1 and is_rcache(pcache) and wanted & _RDIST_LEMMAS:
        return False
    if "well-formedness" in wanted:
        if new_is_e and new_cache.vrsn != 0:
            return False
        if new_is_c and (
            not is_committable(pcache)
            or (pcache.time, pcache.vrsn) != (new_cache.time, new_cache.vrsn)
        ):
            return False
        for child in reparented:
            cc = tree.cache(child)
            if is_ccache(cc) and (
                not is_committable(new_cache)
                or (new_cache.time, new_cache.vrsn) != (cc.time, cc.vrsn)
            ):
                return False
    if "descendant-order" in wanted:
        if not cache_gt(new_cache, pcache):
            return False
        for child in reparented:
            if not cache_gt(tree.cache(child), new_cache):
                return False
    if "version-reset" in wanted:
        if new_is_e and new_cache.vrsn != 0:
            return False
        if (
            is_committable(new_cache)
            and new_cache.time == pcache.time
            and new_cache.vrsn != pcache.vrsn + 1
        ):
            return False
        for child in reparented:
            cc = tree.cache(child)
            if (
                is_committable(cc)
                and cc.time == new_cache.time
                and cc.vrsn != new_cache.vrsn + 1
            ):
                return False
    if "safety" in wanted and new_is_c:
        # Same predicate as ``same_branch`` over every other CCache, in
        # O(depth + |C|) instead of O(|C| * depth): a CCache shares a
        # branch with the new one iff it lies on the new node's root
        # path (membership in ``on_branch``) or is its descendant (the
        # rare direction -- on clean trees almost every existing CCache
        # is an ancestor of the newly committed one).
        on_branch = set(tree.branch(new_cid))
        for other in tree.kind_cids("C"):
            if other == new_cid or other in on_branch:
                continue
            if not tree.is_ancestor(new_cid, other, strict=True):
                return False
    if "leader-time-uniqueness" in wanted and new_is_e:
        for other in tree.kind_cids("E"):
            if other == new_cid or tree.cache(other).time != new_cache.time:
                continue
            if bound is None or rdist(tree, other, new_cid) <= bound:
                return False
    if "election-commit-order" in wanted:
        if new_is_e:
            nkey = order_key(new_cache)
            for c in tree.kind_cids("C"):
                if not nkey > order_key(tree.cache(c)):
                    continue
                if bound is not None and rdist(tree, new_cid, c) > bound:
                    continue
                if not tree.is_ancestor(c, new_cid, strict=True):
                    return False
        elif new_is_c:
            nkey = order_key(new_cache)
            for e in tree.kind_cids("E"):
                if not order_key(tree.cache(e)) > nkey:
                    continue
                if bound is not None and rdist(tree, e, new_cid) > bound:
                    continue
                if not tree.is_ancestor(new_cid, e, strict=True):
                    return False
    if "ccache-in-rcache-fork" in wanted and is_rcache(new_cache):
        for other in tree.kind_cids("R"):
            if other == new_cid or tree.same_branch(other, new_cid):
                continue
            if rdist(tree, other, new_cid) != 0:
                continue
            nca = tree.nearest_common_ancestor(other, new_cid)
            found = any(
                is_ccache(tree.cache(mid))
                for target in (other, new_cid)
                for mid in tree.ancestors(target)
                if tree.is_ancestor(nca, mid, strict=True)
            )
            if not found:
                return False
    return True


def check_state(
    state: AdoreState,
    lemma_rdist_bound: Optional[int] = 1,
    only: Optional[Iterable[str]] = None,
) -> SafetyReport:
    """Run the invariant checkers over ``state``.

    ``lemma_rdist_bound`` bounds the rdist at which the Appendix-B
    lemmas are checked (the paper proves them for rdist ≤ 1 and derives
    the general safety theorem from them); the top-level safety check is
    always unbounded.  ``only`` restricts which checkers *run* (labels
    from ``SafetyReport.LABELS``) -- unlike :meth:`SafetyReport.filtered`
    this skips the computation entirely, which matters inside the model
    checker's inner loop.

    Every checker reads only ``state.tree`` (the time map never appears
    in an invariant), so the report is pure in the tree, the rdist
    bound, and the selection -- and is memoized on the (hash-consed)
    tree.  States that differ only in their time maps share one report;
    the *set of checks run per distinct tree* is unchanged.
    """
    # The checker selection is validated and keyed once per distinct
    # (bound, only) pair -- the explorer asks with the same pair for
    # every state it visits.
    try:
        config = _CHECK_CONFIGS.get((lemma_rdist_bound, only))
    except TypeError:  # unhashable `only` (e.g. a list)
        config = None
        only = tuple(only)
    if config is None:
        config = _CHECK_CONFIGS[(lemma_rdist_bound, only)] = _check_config(
            lemma_rdist_bound, only
        )
    return state.tree.derive(*config)


def _check_config(bound: Optional[int], only: Optional[Tuple[str, ...]]):
    """The memo key and :meth:`CacheTree.derive` pair of one selection."""
    wanted = set(SafetyReport.LABELS) if only is None else set(only)
    unknown = wanted - set(SafetyReport.LABELS)
    if unknown:
        raise ValueError(f"unknown invariant labels: {sorted(unknown)}")

    def extend(tree, base, op, new_cid, parent_cid):
        # Incremental fast path: the predecessor's report (same bound +
        # selection) is known clean.  If the delta pairs are clean too,
        # the report is clean; anything suspect falls through to the
        # full recomputation, so violating states always get the full
        # checkers' messages in their exact order.
        if (
            base is _CLEAN
            and (op == "leaf" or not is_rcache(tree.cache(new_cid)))
            and _delta_clean(tree, op, new_cid, parent_cid, wanted, bound)
        ):
            return _CLEAN
        return None

    def run(label, checker, *args):
        return tuple(checker(*args)) if label in wanted else ()

    def build(tree):
        report = SafetyReport(
            safety=run("safety", check_replicated_state_safety, tree),
            well_formedness=run(
                "well-formedness", tree.well_formedness_violations
            ),
            descendant_order=run(
                "descendant-order", check_descendant_order, tree
            ),
            leader_time_uniqueness=run(
                "leader-time-uniqueness",
                check_leader_time_uniqueness, tree, bound,
            ),
            election_commit_order=run(
                "election-commit-order",
                check_election_commit_order, tree, bound,
            ),
            ccache_in_rcache_fork=run(
                "ccache-in-rcache-fork", check_ccache_in_rcache_fork, tree
            ),
            version_reset=run("version-reset", check_version_reset, tree),
        )
        return report if not report.ok else _CLEAN

    return ("safety_report", bound, tuple(sorted(wanted))), extend, build


def assert_safe(state: AdoreState, lemma_rdist_bound: Optional[int] = 1) -> None:
    """Raise :class:`SafetyViolation` when any invariant fails."""
    report = check_state(state, lemma_rdist_bound)
    if not report.ok:
        raise SafetyViolation(
            "; ".join(report.all_violations()), witness=state
        )


# ----------------------------------------------------------------------
# Incremental checking over observed logs (one engine, three consumers)
# ----------------------------------------------------------------------

#: Sentinel for an ``(absolute position, entry)`` pair observed at two
#: distinct tree nodes -- re-anchoring across an export gap must refuse
#: to guess between branches.
_AMBIGUOUS = object()


def _freeze(value):
    """An equal-by-value hashable form of an observed payload.

    Log payloads come from client commands and wire-decoded JSON, so
    they may contain dicts/lists (a kvstore ``put`` of a JSON object).
    The engine keys its trie -- and builds hash-consed caches -- on
    payloads, so they must hash; identical payloads must freeze
    identically regardless of dict insertion order.

    A value that hashes already is its own frozen form (it is equal to,
    and hashes as, the tuple/frozenset rebuild of it), so only
    unhashable containers are walked: a plain command costs one
    ``hash``, not a call per element.
    """
    try:
        hash(value)
    except TypeError:
        pass
    else:
        return value
    if isinstance(value, dict):
        return tuple(sorted((k, _freeze(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    if isinstance(value, (set, frozenset)):
        return frozenset(_freeze(v) for v in value)
    return value

#: Invariants vacuous on treeified logs: log observations never create
#: ECaches, so the election lemmas have nothing to say and skipping them
#: saves the (empty) scans.
DEFAULT_LOG_INVARIANTS = (
    "safety",
    "well-formedness",
    "descendant-order",
    "ccache-in-rcache-fork",
    "version-reset",
)

_NO_TIMES = TimeMap()

#: Entries after a commit marker whose trees still carry the marker
#: tables (see :class:`IncrementalTreeChecker`).
_CARRY_RUN = 16


class IncrementalTreeChecker:
    """Maintain the Appendix-B invariants over *observed* replica logs.

    This is the one incremental engine behind three consumers: the model
    checker reaches the same machinery through :func:`check_state` on
    states it generates itself; the simulated cluster's ``check_safety``
    and the live-cluster monitor (:mod:`repro.monitor`) instead *observe*
    per-node logs and fold them into a single growing cache tree here.

    Observations are duck-typed log entries carrying ``time`` (term),
    ``vrsn``, ``payload``, and ``is_config`` -- the shape of
    :class:`repro.raft.messages.LogEntry`, without importing it.  Each
    distinct entry-at-a-position becomes one tree node (a trie over
    logs, so agreeing replicas share structure); a node's committed
    length plants a CCache at its committed tip via ``insert_btw``, the
    same growth operation ``push`` uses in the model.  Unlike the batch
    refinement mapping, commit markers are never retired: a commit
    observed on a branch that later loses stays in the tree, so
    divergent commits are caught even after the losing replica adopts
    the winner's log.

    Every growth step is checked through :func:`check_state`, which
    takes the provenance fast path (:func:`_delta_clean`) because the
    previous tree's clean report is always in its memo, so the *check*
    of an observed entry looks only at the new node and its parent.
    The tables that check reads are extended from the previous tree's
    where it holds them (:meth:`CacheTree.derive`), and the branch
    table of a committed tip is one tuple, its root path, not one per
    link of the chain.  Growing the tree is O(new node) in interpreted
    work as well: ``add_leaf`` / ``insert_btw`` assemble the successor
    from the predecessor's own entries and item pairs (one C-level dict
    copy, one tuple concatenation; ``CacheTree._shared``), so folding a
    log of plain entries is linear in its length
    (``tests/core/test_tree_growth_cost.py`` holds that line in call
    counts).  After each step the new tree forgets its provenance
    (``trim=True``), so the superseded tree dies with its last
    reference (the hash-consing table is weak) and a monitor that runs
    for days holds one tree, not its whole history.

    A *commit marker*'s check reads the kind partition and the child
    map (a configuration entry's the kind partition), and
    ``insert_btw`` the child map; a plain entry's check asks for
    neither.  The first marker therefore builds both from scratch (one
    pass over every node each), and :meth:`_grew` hands them on from
    tree to tree (:meth:`CacheTree.release_predecessor`) for the next
    ``_CARRY_RUN`` entries: a marker that arrives within that run
    finds them, a later one builds them again, and a fold that has met
    no marker derives nothing it does not read.  Handing on is one
    C-level copy of the child map per tree, about a twentieth of a
    build, so it pays while markers are close and would tax a replica
    that commits in large batches, hence the bound.  The live monitor
    folds 1.0 (one client) to 5.8 (16 closed-loop clients) entries per
    marker, in runs of at most 32, and 16 keeps all that such streams
    gain (DESIGN.md section 8, ROADMAP item 2: measured at this engine,
    not assumed).  4,000 entries each followed by its marker took
    9.8-13.6 s with a rebuild per marker and take 4.4-5.1 s; a marker
    every 64 entries 0.25-0.28 s then, 0.28-0.31 s now (0.38-0.45 s
    carried without the bound); a marker every 17-40 entries pays the
    16 copies and the build, 0.30-0.33 -> 0.39-0.47 s at one per 32.

    What is still not flat is the marker's own root path: the branch
    table is *not* carried forward the same way -- cubic, 27 s at 2,000
    entries and seven times that per doubling, because
    ``_inherit_branches`` filters every held path at each
    ``insert_btw`` -- so each marker's check walks its path again, one
    ``list.append`` per ancestor (1.45 M of the 1.76 M calls of 1,200
    entry + marker pairs; everything else is linear, see
    ``tests/core/test_tree_growth_cost.py``).  That table wants a
    different shape first (ROADMAP item 2).
    """

    def __init__(
        self,
        conf0,
        nodes: Optional[Iterable[int]] = None,
        lemma_rdist_bound: Optional[int] = 1,
        invariants: Optional[Iterable[str]] = DEFAULT_LOG_INVARIANTS,
        trim: bool = True,
    ) -> None:
        members = frozenset(nodes) if nodes is not None else frozenset(conf0)
        self._tree = CacheTree.initial(
            CCache(caller=0, time=0, vrsn=0, conf=conf0, voters=members)
        )
        self._bound = lemma_rdist_bound
        self._invariants = (
            None if invariants is None else validate_invariant_labels(invariants)
        )
        self._trim = trim
        #: (parent cid, entry key) -> the entry's cid: the log trie.
        self._edges: dict = {}
        #: entry cid -> cid new children attach under (the commit marker
        #: once the entry is marked; itself otherwise, via .get default).
        self._attach: dict = {}
        #: entry cids whose commit marker exists already.
        self._marked: set = set()
        #: (absolute position, entry key) -> cid, for gap re-anchoring.
        self._placed: dict = {}
        #: nid -> entry cid per absolute log position (None = unknown).
        self._paths: dict = {}
        #: nid -> highest committed length folded in so far.
        self._commits: dict = {}
        #: Entries added since the last commit marker.
        self._run = 0
        self.events = 0
        self.entries_added = 0
        self.gaps = 0
        self.violation: Optional[SafetyReport] = None
        self.violation_event: Optional[str] = None

    # -- construction helpers ------------------------------------------

    @staticmethod
    def _entry_key(entry, frozen_payload) -> Tuple:
        return (entry.time, entry.vrsn, bool(entry.is_config), frozen_payload)

    @staticmethod
    def _cache_for(entry, frozen_payload):
        """The cache of ``entry``, whose payload freezes to
        ``frozen_payload``."""
        if entry.is_config:
            return RCache(
                caller=0, time=entry.time, vrsn=entry.vrsn,
                conf=frozenset(entry.payload),
            )
        return MCache(
            caller=0, time=entry.time, vrsn=entry.vrsn, conf=None,
            method=frozen_payload,
        )

    def _grew(self, tree: CacheTree, description: str) -> None:
        self._tree = tree
        if self.violation is None:
            report = check_state(
                AdoreState(tree, _NO_TIMES), self._bound, only=self._invariants
            )
            if not report.ok:
                self.violation = report
                self.violation_event = description
        if self._trim:
            # Drop the provenance (it pins the superseded tree, which
            # then dies with it) -- handing on the tables a commit
            # marker reads while markers are close (see the class
            # docstring).
            tree.release_predecessor(carry=self._run <= _CARRY_RUN)

    # -- observations --------------------------------------------------

    def observe(
        self, nid: int, base: int, entries, commit_len: int, anchor_entry=None
    ) -> Optional[SafetyReport]:
        """Fold one replica's log advance into the tree and check it.

        ``base`` is the absolute length of the prefix shared with the
        replica's previous observation, ``entries`` the suffix from
        there, and ``commit_len`` its absolute committed length.  When
        ``base`` lies beyond everything previously observed from this
        replica (it adopted a snapshot covering entries it never
        exported), ``anchor_entry`` -- the last entry of the elided
        prefix -- lets the engine re-anchor onto a position another
        replica already placed; without a unique anchor the advance is
        counted in :attr:`gaps` and skipped.

        Returns the violation report if *this* call detected the first
        violation, else ``None`` (also after a violation: the tree keeps
        growing so the trie stays consistent, but checking stops).
        """
        already = self.violation
        self.events += 1
        path = self._paths.setdefault(nid, [])
        if base > len(path):
            anchored = False
            if anchor_entry is not None and base > 0:
                anchor_key = self._entry_key(
                    anchor_entry, _freeze(anchor_entry.payload)
                )
                cid = self._placed.get((base - 1, anchor_key))
                if cid is not None and cid is not _AMBIGUOUS:
                    path.extend([None] * (base - len(path)))
                    path[base - 1] = cid
                    anchored = True
            if not anchored:
                self.gaps += 1
                return None
        else:
            del path[base:]
        parent = path[base - 1] if base > 0 else ROOT_CID
        if parent is None:
            self.gaps += 1
            return None
        for offset, entry in enumerate(entries):
            pos = base + offset
            frozen = _freeze(entry.payload)
            entry_key = self._entry_key(entry, frozen)
            key = (parent, entry_key)
            cid = self._edges.get(key)
            if cid is None:
                attach = self._attach.get(parent, parent)
                tree, cid = self._tree.add_leaf(
                    attach, self._cache_for(entry, frozen)
                )
                self._edges[key] = cid
                placed_key = (pos, entry_key)
                held = self._placed.get(placed_key)
                if held is None:
                    self._placed[placed_key] = cid
                elif held is not _AMBIGUOUS and held != cid:
                    self._placed[placed_key] = _AMBIGUOUS
                self.entries_added += 1
                self._run += 1
                self._grew(
                    tree,
                    f"S{nid} appended entry #{pos} "
                    f"(t{entry.time},v{entry.vrsn}, {entry.payload!r})",
                )
            path.append(cid)
            parent = cid
        self._mark_commit(nid, commit_len, path)
        if self.violation is not already:
            return self.violation
        return None

    def _mark_commit(self, nid: int, commit_len: int, path) -> None:
        if commit_len <= self._commits.get(nid, 0):
            return
        self._commits[nid] = commit_len
        tip_pos = commit_len - 1
        if tip_pos >= len(path):
            self.gaps += 1
            return
        tip = path[tip_pos]
        if tip is None or tip in self._marked:
            return
        cache = self._tree.cache(tip)
        marker = CCache(
            caller=0,
            time=cache.time,
            vrsn=cache.vrsn,
            conf=None,
            voters=frozenset({nid}),
        )
        tree, marker_cid = self._tree.insert_btw(tip, marker)
        self._marked.add(tip)
        # Extensions of a committed prefix must land *below* the marker:
        # attaching them as siblings would put a later commit of the
        # same branch off-branch from this one and fabricate violations.
        self._attach[tip] = marker_cid
        self._run = 0
        self._grew(tree, f"S{nid} committed through entry #{tip_pos}")

    # -- reporting -----------------------------------------------------

    @property
    def tree(self) -> CacheTree:
        """The current (hash-consed) cache tree."""
        return self._tree

    @property
    def ok(self) -> bool:
        return self.violation is None

    def stats(self) -> dict:
        return {
            "events": self.events,
            "entries": self.entries_added,
            "caches": len(self._tree),
            "commits": len(self._marked),
            "nodes": sorted(self._paths),
            "gaps": self.gaps,
            "ok": self.ok,
        }

    def violations(self) -> List[str]:
        """The first violation's descriptions (empty while clean)."""
        if self.violation is None:
            return []
        return self.violation.all_violations()
