"""Shared helpers for the experiment suite.

Each module regenerates one table or figure of the paper's evaluation
(see DESIGN.md's experiment index) or holds one within-run bound, and
prints what it reproduces directly to the terminal (bypassing capture),
so ``python -m pytest benchmarks/ -q -s`` output contains the
reproduced rows and series.  Every check is an assertion in the test
that makes the measurement.

The whole directory runs in one process, so a model-checking test
leaves the process-wide intern tables holding up to ~1.5 M objects
(``repro.core.cachemgr``).  A later within-run bound would then time
both of its legs against that heap: ``test_obs_overhead`` read 1.06x
and 1.16x against its 1.05x bound after ``test_model_check_safety``,
and ~1.00x on its own.  Every test therefore starts from flushed tables
and a collected heap (~35 k objects), so each measures only itself.
"""

import gc

import pytest

from repro.core import cachemgr


@pytest.fixture(autouse=True)
def _clean_heap():
    """Start each test with empty intern tables and a collected heap."""
    cachemgr.flush()
    gc.collect()


@pytest.fixture
def report(capfd):
    """Print experiment output to the real terminal, uncaptured."""

    def emit(*lines):
        with capfd.disabled():
            for line in lines:
                print(line)

    return emit
