"""Generic, table-driven property tests for the scheme protocol.

``test_scheme_properties`` hand-crafts transitions per scheme; these
tests instead drive *every* scheme of ``SCHEMES`` through the same two
properties, using the bounded config universe each scheme states for
the exhaustive checker (its ``configs`` method):

* any config pair related by ``R1⁺`` satisfies OVERLAP on randomly
  drawn quorum pairs (the proof's load-bearing assumption), and
* ``mbrs``/``isQuorum`` agree with the exhaustive checker's quorum
  enumeration: nodes outside ``mbrs`` never matter, so enumerating
  subsets of the member set (as ``check_assumptions`` does) covers
  every group.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.schemes import SCHEMES, check_assumptions

ALL_SCHEMES = list(SCHEMES.values())

UNIVERSE = [1, 2, 3]


def _subsets(members):
    ordered = sorted(members)
    for size in range(1, len(ordered) + 1):
        for combo in itertools.combinations(ordered, size):
            yield frozenset(combo)


@pytest.mark.parametrize("scheme", ALL_SCHEMES, ids=lambda s: s.name)
@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_r1_plus_pairs_satisfy_overlap(scheme, data):
    """Random R1⁺-related config pairs have intersecting quorums."""
    configs = scheme.configs(UNIVERSE)
    old = data.draw(st.sampled_from(configs), label="old")
    related = [new for new in configs if scheme.r1_plus(old, new)]
    assert related, "REFLEXIVE guarantees at least the identity transition"
    new = data.draw(st.sampled_from(related), label="new")
    q_old = data.draw(
        st.sampled_from(sorted(_subsets(scheme.members(old)), key=sorted)),
        label="q_old",
    )
    q_new = data.draw(
        st.sampled_from(sorted(_subsets(scheme.members(new)), key=sorted)),
        label="q_new",
    )
    if scheme.is_quorum(q_old, old) and scheme.is_quorum(q_new, new):
        assert q_old & q_new, (
            scheme.describe_config(old),
            scheme.describe_config(new),
            sorted(q_old),
            sorted(q_new),
        )


@pytest.mark.parametrize("scheme", ALL_SCHEMES, ids=lambda s: s.name)
@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_reflexive_on_registered_universe(scheme, data):
    conf = data.draw(st.sampled_from(scheme.configs(UNIVERSE)))
    assert scheme.r1_plus(conf, conf)


@pytest.mark.parametrize("scheme", ALL_SCHEMES, ids=lambda s: s.name)
@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_is_quorum_ignores_non_members(scheme, data):
    """``isQuorum`` depends only on the group's member intersection --
    the property that lets the exhaustive checker enumerate subsets of
    ``mbrs`` only."""
    conf = data.draw(st.sampled_from(scheme.configs(UNIVERSE)))
    members = scheme.members(conf)
    outsiders = data.draw(
        st.frozensets(
            st.integers(min_value=90, max_value=99), min_size=0, max_size=3
        )
    )
    group = data.draw(
        st.frozensets(st.sampled_from(sorted(members) + [77]), min_size=0)
        if members
        else st.just(frozenset())
    )
    assert scheme.is_quorum(group | outsiders, conf) == scheme.is_quorum(
        group & members, conf
    )


@pytest.mark.parametrize("scheme", ALL_SCHEMES, ids=lambda s: s.name)
def test_quorum_enumeration_agrees_with_checker(scheme):
    """Brute force over *all* groups (members plus outsiders) agrees
    with the checker's subset-of-members enumeration, and the checker's
    verdict matches a direct exhaustive OVERLAP check."""
    report = check_assumptions(scheme, UNIVERSE)
    assert report.ok, report.summary()
    for conf in scheme.configs(UNIVERSE):
        members = scheme.members(conf)
        checker_quorums = {
            group for group in _subsets(members)
            if scheme.is_quorum(group, conf)
        }
        for group in _subsets(set(UNIVERSE) | {42}):
            assert scheme.is_quorum(group, conf) == (
                (group & members) in checker_quorums
            ), (scheme.describe_config(conf), sorted(group))
