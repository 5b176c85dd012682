"""A config dataclass is a command line, stated once.

``NodeConfig`` / ``MonitorConfig`` are the only place a served
process's options are declared: the ``node`` / ``serve`` flags are
derived from their fields (``add_config_flags``), the launcher's argv
is the inverse (``argv_of``), and ``LocalCluster`` forwards node
options by field name.  These tests pin that there is no second
statement to keep in sync.
"""

import argparse
import dataclasses
import inspect
import re
import typing
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.monitor.__main__ import main as monitor_main
from repro.monitor.service import MonitorConfig
from repro.net import procs
from repro.net.__main__ import main as net_main
from repro.net.node import NodeConfig
from repro.net.procs import (
    LocalCluster,
    add_config_flags,
    argv_of,
    config_from,
)

_HOSTS = st.sampled_from(["127.0.0.1", "localhost", "::1", "node-7.example"])
_ADDRS = st.tuples(_HOSTS, st.integers(0, 65535))
_NIDS = st.integers(0, 999)

#: How to draw a value of each field type the derivation can write.
_DRAW = {
    int: st.integers(-10**9, 10**9),
    float: st.floats(allow_nan=False, allow_infinity=False),
    str: st.text(
        st.characters(blacklist_categories=("Cs", "Cc")), min_size=1
    ),
    frozenset: st.frozensets(_NIDS),
    Tuple[str, int]: _ADDRS,
    Dict[int, Tuple[str, int]]: st.dictionaries(_NIDS, _ADDRS, max_size=6),
}


def configs(cls):
    """Instances of ``cls`` with every field drawn from its type."""
    hints = typing.get_type_hints(cls)
    draws = {}
    for f in dataclasses.fields(cls):
        hint = hints[f.name]
        if "choices" in f.metadata:
            draws[f.name] = st.sampled_from(f.metadata["choices"])
        elif typing.get_origin(hint) is typing.Union:
            inner, = (a for a in typing.get_args(hint) if a is not type(None))
            draws[f.name] = st.none() | _DRAW[inner]
        else:
            draws[f.name] = _DRAW[hint]
    return st.builds(cls, **draws)


def parse(cls, argv):
    parser = argparse.ArgumentParser()
    add_config_flags(parser, cls)
    return config_from(cls, parser.parse_args(argv))


@dataclass
class ScratchConfig(NodeConfig):
    """``NodeConfig`` plus one throw-away option: the whole edit it
    takes to give a node a new option."""

    data_dir: Optional[str] = field(
        default=None, metadata={"help": "where the WAL would live"}
    )


def with_text(cls, text):
    """A ``cls`` with ``text`` in every free-text field."""
    node = dict(nid=1, port=7001, peers={}, conf0=frozenset({1}), host=text)
    if cls is MonitorConfig:
        return cls(port=7000, conf0=frozenset({1}), host=text, bundle_dir=text)
    if cls is ScratchConfig:
        return cls(data_dir=text, **node)
    return cls(**node)


@pytest.mark.parametrize("cls", [NodeConfig, MonitorConfig, ScratchConfig])
def test_argv_round_trips_every_field(cls):
    # argparse drops a bare "--" even from "--host=--" (it parsed back
    # as host=[]); argv_of escapes it, and the escape itself.
    @example(with_text(cls, "--"))
    @example(with_text(cls, "\\--"))
    @settings(max_examples=60, deadline=None)
    @given(configs(cls))
    def round_trip(config):
        assert parse(cls, argv_of(config)) == config

    round_trip()


def test_a_new_field_is_a_new_flag_with_no_other_edit():
    base = dict(nid=1, port=7001, peers={1: ("127.0.0.1", 7001)},
                conf0=frozenset({1}))
    config = ScratchConfig(data_dir="/var/lib/adore", **base)
    assert "--data-dir=/var/lib/adore" in argv_of(config)
    assert parse(ScratchConfig, argv_of(config)).data_dir == "/var/lib/adore"
    # Unset, it is simply absent -- like every other None.
    assert not any(
        arg.startswith("--data-dir") for arg in argv_of(ScratchConfig(**base))
    )


def _flags_of(cls):
    return {
        "--" + f.metadata.get("flag", f.name).replace("_", "-")
        for f in dataclasses.fields(cls)
    }


@pytest.mark.parametrize("main, command, cls", [
    (net_main, "node", NodeConfig),
    (monitor_main, "serve", MonitorConfig),
])
def test_help_lists_exactly_one_flag_per_field(main, command, cls, capsys):
    with pytest.raises(SystemExit) as exit_:
        main([command, "--help"])
    assert exit_.value.code == 0
    options = capsys.readouterr().out.split("options:")[1]
    listed = re.findall(r"^ +(--[a-z0-9-]+)", options, re.M)
    assert sorted(listed) == sorted(_flags_of(cls) | {"--verbose"})


def test_the_by_hand_flags_keep_their_spelling():
    # README "Served over TCP" shows these for starting a node by hand.
    assert _flags_of(NodeConfig) >= {
        "--nid", "--host", "--port", "--peers", "--conf", "--monitor",
        "--seed", "--snapshot-threshold", "--spec",
    }
    assert _flags_of(MonitorConfig) >= {
        "--host", "--port", "--conf", "--nodes", "--bundle-dir",
    }


def test_required_and_enumerated_fields_are_enforced_by_the_parser(capsys):
    with pytest.raises(SystemExit):
        parse(NodeConfig, ["--nid=1"])  # port, peers, conf missing
    with pytest.raises(SystemExit):
        parse(NodeConfig, ["--nid=1", "--port=1", "--peers=", "--conf=1",
                           "--spec=paxos"])
    capsys.readouterr()


def test_local_cluster_rejects_an_unknown_node_option():
    with pytest.raises(TypeError) as err:
        LocalCluster(bogus=1)
    message = str(err.value)
    assert "bogus" in message
    # ... and says what a node *can* be told.
    for option in ("snapshot_threshold", "heartbeat_ms", "spec"):
        assert option in message


def test_local_cluster_forwards_node_options_by_field_name(tmp_path):
    cluster = LocalCluster(
        nids=(1, 2), seed=3, log_dir=str(tmp_path), snapshot_threshold=16,
        heartbeat_ms=10.0, spec="buggy",
    )
    config = cluster.node_config(2)
    assert (config.snapshot_threshold, config.heartbeat_ms, config.spec) == (
        16, 10.0, "buggy"
    )
    assert config.peers == cluster.addresses and config.seed == 3002
    assert parse(NodeConfig, argv_of(config)) == config


def test_the_launcher_spells_no_flag_itself():
    source = inspect.getsource(procs)
    spelled = [
        flag for flag in _flags_of(NodeConfig) | _flags_of(MonitorConfig)
        if flag in source
    ]
    assert spelled == []
