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

import pickle
import random
import warnings

import pytest

from repro.mc import Checkpoint, FingerprintSet, load_checkpoint, save_checkpoint
from repro.mc.checkpoint import CHECKPOINT_VERSION


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
    """Format versioning (v2: compact visited set; v3: spill sidecars)."""

    def test_current_version_is_three(self):
        assert CHECKPOINT_VERSION == 3

    def test_v2_checkpoint_still_loads(self, tmp_path):
        # A pre-spill checkpoint (no sidecar fields) must resume: its
        # dataclass defaults (`None` refs) mean "everything embedded".
        path = str(tmp_path / "v2.ckpt")
        old = Checkpoint(
            fingerprint="f", level=1, frontier=[("s", "b", ())],
            visited_keys={1, 2}, transitions=3, max_depth=1,
            exhausted=False, version=2,
        )
        save_checkpoint(path, old)
        loaded = load_checkpoint(path, "f")
        assert loaded is not None
        assert loaded.frontier_ref is None and loaded.visited_ref is None
        assert list(loaded.restore_frontier(path)) == [("s", "b", ())]
        assert loaded.restore_visited(path) == {1, 2}

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
            "version 1" in m and "re-run" in m for m in messages
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
        # key sets; a v2 checkpoint without visited_fps restores a set.
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


class TestSpillSidecars:
    """v3 sidecar references: verified by content fingerprint at load."""

    @staticmethod
    def make_v3(tmp_path, mutate=None):
        import os

        from repro.mc.spill import file_sha256, write_packed_records

        path = str(tmp_path / "run.ckpt")
        entries = [("state-a", "budget", ()), ("state-b", "budget", ("op",))]
        sha_frontier = write_packed_records(path + ".frontier", iter(entries))
        fps = FingerprintSet.spilled(str(tmp_path / "work.fps"), expected=8)
        for value in (10, 20, 30):
            fps.add(value)
        fps.sync()
        import shutil

        shutil.copyfile(fps.spill_path, path + ".visited")
        fps.close()
        checkpoint = Checkpoint(
            fingerprint="f", level=2, frontier=[], visited_keys=set(),
            transitions=7, max_depth=2, exhausted=False,
            frontier_ref={
                "file": os.path.basename(path + ".frontier"),
                "sha256": sha_frontier,
                "count": len(entries),
            },
            visited_ref={
                "file": os.path.basename(path + ".visited"),
                "sha256": file_sha256(path + ".visited"),
                "count": 3,
            },
        )
        if mutate is not None:
            mutate(path, checkpoint)
        save_checkpoint(path, checkpoint)
        return path, entries

    def test_round_trip(self, tmp_path):
        path, entries = self.make_v3(tmp_path)
        loaded = load_checkpoint(path, "f")
        assert loaded is not None
        assert loaded.states_visited == 3
        assert loaded.frontier_len == 2
        assert list(loaded.restore_frontier(path)) == entries
        restored = loaded.restore_visited(path)
        assert sorted(restored) == [10, 20, 30]

    def test_restore_visited_into_working_spill_file(self, tmp_path):
        path, _ = self.make_v3(tmp_path)
        loaded = load_checkpoint(path, "f")
        working = str(tmp_path / "spill" / "visited.fps")
        restored = loaded.restore_visited(path, spill_to=working)
        try:
            assert restored.spill_path == working
            assert sorted(restored) == [10, 20, 30]
            restored.add(40)  # mutating the working copy...
        finally:
            restored.close()
        # ...leaves the snapshot pristine: a second resume still loads.
        assert load_checkpoint(path, "f") is not None

    def test_missing_sidecar_rejected(self, tmp_path):
        import os

        path, _ = self.make_v3(tmp_path)
        os.unlink(path + ".frontier")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert load_checkpoint(path, "f") is None
        assert any("missing or unreadable" in str(w.message) for w in caught)

    @pytest.mark.parametrize("sidecar", [".frontier", ".visited"])
    def test_corrupt_sidecar_rejected(self, tmp_path, sidecar):
        path, _ = self.make_v3(tmp_path)
        with open(path + sidecar, "r+b") as handle:
            handle.seek(3)
            byte = handle.read(1)
            handle.seek(3)
            handle.write(bytes([byte[0] ^ 0xFF]))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert load_checkpoint(path, "f") is None
        assert any("content fingerprint" in str(w.message) for w in caught)

    def test_truncated_sidecar_rejected(self, tmp_path):
        import os

        path, _ = self.make_v3(tmp_path)
        size = os.path.getsize(path + ".visited")
        with open(path + ".visited", "r+b") as handle:
            handle.truncate(size // 2)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert load_checkpoint(path, "f") is None
        assert any("content fingerprint" in str(w.message) for w in caught)

    def test_sidecar_needs_checkpoint_path(self, tmp_path):
        path, _ = self.make_v3(tmp_path)
        loaded = load_checkpoint(path, "f")
        with pytest.raises(ValueError):
            loaded.restore_frontier(None)

    def test_truncated_frontier_records_raise(self, tmp_path):
        from repro.mc.spill import iter_packed_records, write_packed_records

        path = str(tmp_path / "records.spill")
        write_packed_records(path, iter([("a", 1), ("b", 2)]))
        import os

        with open(path, "r+b") as handle:
            handle.truncate(os.path.getsize(path) - 3)
        with pytest.raises(ValueError):
            list(iter_packed_records(path))
