"""Corrupt-checkpoint robustness (ISSUE 3 bugfix b).

``load_checkpoint`` promises *None on any unusable file*: a resumed CI
run must redo work, never crash, when a checkpoint was half-written by
a killed worker or mangled on disk.  The original handler caught only
``(OSError, UnpicklingError, EOFError, AttributeError)``; real corrupt
pickles also raise ``ValueError`` (bad opcode arguments, including its
``UnicodeDecodeError`` subclass), ``OverflowError``, ``IndexError``,
and ``ModuleNotFoundError`` (a damaged GLOBAL opcode).  Each test here
pins one concrete corruption; the module-rename and bad-int cases fail
with the broadened handler reverted.
"""

import os
import pickle
import random
import warnings

import pytest

from repro.mc import (
    Checkpoint,
    FingerprintSet,
    OpBudget,
    explore,
    load_checkpoint,
    save_checkpoint,
    verify_intact_explorer,
)
from repro.mc.bounded_cli import signature

SMALL = OpBudget(pulls=1, invokes=1, reconfigs=1, pushes=1)


def make_checkpoint(path: str) -> bytes:
    checkpoint = Checkpoint(
        fingerprint="f", level=2, frontier=[], visited_keys={1, 2, 3},
        transitions=9, max_depth=2, exhausted=False,
    )
    save_checkpoint(path, checkpoint)
    with open(path, "rb") as handle:
        return handle.read()


def assert_ignored_with_warning(path: str) -> None:
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert load_checkpoint(path) is None
    assert any("ignoring" in str(w.message) for w in caught)


class TestCorruptPickles:
    def test_truncated_file(self, tmp_path):
        path = str(tmp_path / "trunc.ckpt")
        data = make_checkpoint(path)
        with open(path, "wb") as handle:
            handle.write(data[: len(data) // 2])
        assert_ignored_with_warning(path)

    @pytest.mark.parametrize(
        "seed",
        # Seeds chosen so the 256 random bytes deterministically raise,
        # in order: UnpicklingError, ValueError, UnicodeDecodeError,
        # and OverflowError inside pickle.load.
        [0, 5, 26, 124],
    )
    def test_random_bytes_file(self, tmp_path, seed):
        rng = random.Random(seed)
        path = str(tmp_path / f"noise{seed}.ckpt")
        with open(path, "wb") as handle:
            handle.write(bytes(rng.randrange(256) for _ in range(256)))
        assert_ignored_with_warning(path)

    def test_bad_int_literal_raises_value_error_and_is_ignored(self, tmp_path):
        # A protocol-0 INT opcode with a mangled argument: pickle.load
        # raises plain ValueError, which the original handler missed.
        path = str(tmp_path / "badint.ckpt")
        with open(path, "wb") as handle:
            handle.write(b"Iabc\n.")
        with pytest.raises(ValueError):
            with open(path, "rb") as handle:
                pickle.load(handle)
        assert_ignored_with_warning(path)

    def test_damaged_module_name_is_ignored(self, tmp_path):
        # Same-length byte damage to the GLOBAL opcode's module name:
        # pickle.load raises ModuleNotFoundError, which the original
        # handler missed.
        path = str(tmp_path / "badmod.ckpt")
        data = make_checkpoint(path)
        assert b"repro.mc.checkpoint" in data
        with open(path, "wb") as handle:
            handle.write(
                data.replace(b"repro.mc.checkpoint", b"repro.mc.checkpoinX")
            )
        with pytest.raises(ModuleNotFoundError):
            with open(path, "rb") as handle:
                pickle.load(handle)
        assert_ignored_with_warning(path)

    def test_wrong_type_pickle_is_ignored(self, tmp_path):
        # Loads fine but is not a Checkpoint: the isinstance gate.
        path = str(tmp_path / "dict.ckpt")
        with open(path, "wb") as handle:
            pickle.dump({"not": "a checkpoint"}, handle)
        assert_ignored_with_warning(path)

    def test_intact_checkpoint_still_loads(self, tmp_path):
        # The broadened handler must not eat healthy files.
        path = str(tmp_path / "ok.ckpt")
        make_checkpoint(path)
        loaded = load_checkpoint(path, "f")
        assert loaded is not None
        assert loaded.states_visited == 3

    def test_missing_file_is_silently_none(self, tmp_path):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert load_checkpoint(str(tmp_path / "absent.ckpt")) is None
        assert caught == []


class TestVersioning:
    """One version loads: the one this code writes.  Every other is
    refused with a warning, and the run starts fresh."""

    def test_v3_sidecar_checkpoint_is_refused_and_the_run_starts_fresh(
        self, tmp_path
    ):
        # What a version-3 engine wrote for a run that kept its frontier
        # and visited set on disk: empty embedded fields plus sidecar
        # references.  Loaded as if it were current, the empty frontier
        # would "resume" straight to an exhausted SAFE verdict.
        explorer = verify_intact_explorer(budget=SMALL)
        path = str(tmp_path / "v3.ckpt")
        old = Checkpoint(
            fingerprint=explorer.config_fingerprint(), level=2,
            frontier=[], visited_keys=set(), transitions=40, max_depth=2,
            exhausted=True, version=3,
        )
        old.frontier_ref = {"file": "v3.ckpt.frontier", "sha256": "0", "count": 9}
        old.visited_ref = {"file": "v3.ckpt.visited", "sha256": "0", "count": 30}
        save_checkpoint(path, old)
        with pytest.warns(UserWarning, match="version 3 != 4"):
            assert load_checkpoint(path, old.fingerprint) is None
        with pytest.warns(UserWarning, match="version 3 != 4"):
            resumed = explore(explorer, checkpoint=path)
        assert signature(resumed) == signature(verify_intact_explorer(budget=SMALL).run())
        assert resumed.transitions > old.transitions
        assert not os.path.exists(path)

    def test_v1_checkpoint_rejected_with_versioned_message(self, tmp_path):
        path = str(tmp_path / "v1.ckpt")
        old = Checkpoint(
            fingerprint="f", level=1, frontier=[], visited_keys={1, 2},
            transitions=3, max_depth=1, exhausted=False, version=1,
        )
        save_checkpoint(path, old)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert load_checkpoint(path, "f") is None
        messages = [str(w.message) for w in caught]
        assert any(
            "version 1" in m and "starting fresh" in m for m in messages
        ), messages

    def test_future_version_rejected(self, tmp_path):
        path = str(tmp_path / "v9.ckpt")
        future = Checkpoint(
            fingerprint="f", level=0, frontier=[], visited_keys=set(),
            transitions=0, max_depth=0, exhausted=True, version=99,
        )
        save_checkpoint(path, future)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert load_checkpoint(path, "f") is None
        assert any("99" in str(w.message) for w in caught)


class TestFingerprintVisited:
    """The compact visited-set payload round-trips exactly."""

    @staticmethod
    def make_fps(n):
        rng = random.Random(42)
        fps = FingerprintSet()
        while len(fps) < n:
            value = rng.getrandbits(128)
            if value:
                fps.add(value)
        return fps

    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "fp.ckpt")
        fps = self.make_fps(500)
        checkpoint = Checkpoint(
            fingerprint="f", level=4, frontier=[], visited_keys=set(),
            transitions=123, max_depth=4, exhausted=False,
            visited_fps=fps.to_bytes(),
        )
        save_checkpoint(path, checkpoint)
        loaded = load_checkpoint(path, "f")
        assert loaded is not None
        assert loaded.states_visited == 500
        restored = loaded.restore_visited()
        assert isinstance(restored, FingerprintSet)
        assert restored.to_bytes() == fps.to_bytes()

    def test_exact_equality_keys_still_supported(self, tmp_path):
        # Exact-equality (fingerprints=False) runs keep pickling their
        # key sets; a checkpoint without visited_fps restores a set.
        path = str(tmp_path / "keys.ckpt")
        checkpoint = Checkpoint(
            fingerprint="f", level=1, frontier=[], visited_keys={1, 2, 3},
            transitions=5, max_depth=1, exhausted=True,
        )
        save_checkpoint(path, checkpoint)
        loaded = load_checkpoint(path, "f")
        assert loaded.states_visited == 3
        assert loaded.restore_visited() == {1, 2, 3}

    def test_checkpoint_size_shrinks(self, tmp_path):
        # The point of the format: 16 bytes per state instead of a
        # pickled state object (hundreds of bytes).
        fps = self.make_fps(1000)
        compact = pickle.dumps(Checkpoint(
            fingerprint="f", level=1, frontier=[], visited_keys=set(),
            transitions=0, max_depth=1, exhausted=False,
            visited_fps=fps.to_bytes(),
        ))
        # A very conservative stand-in for "state object": a 10-tuple
        # of small tuples per state.
        fat_keys = {
            tuple((i, j, f"label{j}") for j in range(10)) for i in range(1000)
        }
        fat = pickle.dumps(Checkpoint(
            fingerprint="f", level=1, frontier=[], visited_keys=fat_keys,
            transitions=0, max_depth=1, exhausted=False,
        ))
        assert len(compact) < len(fat) / 5
