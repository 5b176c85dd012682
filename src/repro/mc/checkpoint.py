"""Durable checkpoints for interruptible model-checking runs.

A checkpoint captures everything the search loop
(:func:`repro.mc.parallel.search`) needs to continue exactly where it
stopped at a round boundary: the frontier's pending records, the
visited-key set, the aggregate counters, and a fingerprint of the
exploration configuration so a resume against a *different* model is
detected instead of silently merging incompatible state spaces.

The on-disk format is a pickled :class:`Checkpoint` written atomically
(temp file + ``os.replace``), so a run killed mid-write never corrupts
an existing checkpoint.  Checkpoints are an internal engine format --
they are only guaranteed to resume under the same code version that
wrote them, which is all a CI time-slice needs.
"""

from __future__ import annotations

import os
import pickle
import shutil
import tempfile
import warnings
from dataclasses import dataclass, field
from typing import Any, List, Optional, Set

from .fpset import FingerprintSet
from .spill import file_sha256, iter_packed_records

#: Bumped whenever the pickled layout changes; a loader seeing a
#: different version discards the checkpoint rather than guessing.
#:
#: Version history:
#:
#: 1. Pickled full state objects in ``visited_keys`` -- by far the
#:    largest part of a checkpoint.
#: 2. Fingerprint-mode runs store the visited set as packed sorted
#:    128-bit fingerprints in ``visited_fps`` (16 bytes per state,
#:    canonical byte form of :class:`repro.mc.fpset.FingerprintSet`);
#:    ``visited_keys`` stays for exact-equality runs.
#: 3. Spill-aware: a disk-spilled run references its frontier/visited
#:    snapshots as *sidecar files* (``<checkpoint>.frontier`` in packed
#:    spill-record format, ``<checkpoint>.visited`` as a raw
#:    FingerprintSet table) via ``frontier_ref``/``visited_ref`` --
#:    ``{"file": basename, "sha256": hex, "count": n}`` -- instead of
#:    re-pickling gigabytes into the checkpoint itself.  The sha256 is
#:    verified at load, so a mutated or corrupt sidecar is rejected
#:    like a corrupt checkpoint.  Unspilled runs keep the embedded v2
#:    fields; v2 files still load.
CHECKPOINT_VERSION = 3

#: Versions this loader can resume.  v2 lacks the sidecar fields, whose
#: dataclass defaults (``None``) apply -- exactly the meaning a v2
#: checkpoint had.
_LOADABLE_VERSIONS = (2, 3)


@dataclass
class Checkpoint:
    """A resumable snapshot of one bounded exploration."""

    #: :meth:`repro.mc.explorer.Explorer.config_fingerprint` of the run.
    fingerprint: str
    #: Rounds completed so far; for a breadth-first run the BFS level
    #: the frontier sits at (== depth of every frontier trace).
    level: int
    #: The frontier's pending records, as its ``__iter__`` yields and its
    #: ``restore`` takes them: ``(state, remaining_budget, trace)``
    #: triples in queue order for a breadth-first run, heap records for
    #: a guided one.
    frontier: List[Any]
    #: Dedup keys of every visited state.
    visited_keys: Set[Any]
    transitions: int
    max_depth: int
    exhausted: bool
    #: Violations found so far (normally empty: with
    #: ``stop_at_first_violation`` the run finalizes instead of
    #: checkpointing).
    violations: List[Any] = field(default_factory=list)
    #: Wall-clock seconds already spent across previous slices.
    elapsed_seconds: float = 0.0
    version: int = CHECKPOINT_VERSION
    #: Fingerprint-mode visited set: sorted 16-byte little-endian
    #: records (:meth:`repro.mc.fpset.FingerprintSet.to_bytes`).
    #: ``None`` for exact-equality runs, which keep using
    #: ``visited_keys``.
    visited_fps: Optional[bytes] = None
    #: v3 spill-mode sidecar references (see the version history);
    #: ``None`` for unspilled checkpoints.
    frontier_ref: Optional[dict] = None
    visited_ref: Optional[dict] = None

    @property
    def states_visited(self) -> int:
        if self.visited_ref is not None:
            return self.visited_ref["count"]
        if self.visited_fps is not None:
            return len(self.visited_fps) // 16
        return len(self.visited_keys)

    @property
    def frontier_len(self) -> int:
        if self.frontier_ref is not None:
            return self.frontier_ref["count"]
        return len(self.frontier)

    def restore_frontier(self, checkpoint_path: Optional[str] = None):
        """Iterate the frontier entries, embedded or from the sidecar."""
        if self.frontier_ref is None:
            return iter(self.frontier)
        return iter_packed_records(sidecar_path(checkpoint_path, self.frontier_ref))

    def restore_visited(
        self,
        checkpoint_path: Optional[str] = None,
        spill_to: Optional[str] = None,
    ):
        """The live visited-set this checkpoint describes.

        A :class:`repro.mc.fpset.FingerprintSet` for fingerprint-mode
        checkpoints, a plain ``set`` otherwise.  For a v3 sidecar
        checkpoint, ``spill_to`` names the working spill file to copy
        the snapshot into (the snapshot itself stays untouched, so a
        second resume from the same checkpoint still verifies); without
        it the snapshot is loaded into RAM.
        """
        if self.visited_ref is not None:
            src = sidecar_path(checkpoint_path, self.visited_ref)
            if spill_to is not None:
                os.makedirs(os.path.dirname(os.path.abspath(spill_to)), exist_ok=True)
                shutil.copyfile(src, spill_to)
                return FingerprintSet.spilled(spill_to, clear=False)
            with open(src, "rb") as handle:
                snapshot = FingerprintSet.attach(bytearray(handle.read()))
            live = FingerprintSet(capacity=max(64, snapshot.capacity))
            for fp in snapshot:
                live.add(fp)
            snapshot.release()
            return live
        if self.visited_fps is not None:
            return FingerprintSet.from_packed(self.visited_fps)
        return set(self.visited_keys)


def sidecar_path(checkpoint_path: Optional[str], ref: dict) -> str:
    """Resolve a sidecar reference next to its checkpoint file."""
    if checkpoint_path is None:
        raise ValueError("sidecar checkpoint needs the checkpoint path to resolve files")
    directory = os.path.dirname(os.path.abspath(checkpoint_path))
    return os.path.join(directory, ref["file"])


def write_checkpoint(path: str, frontier, visited, **counters: Any) -> None:
    """Snapshot a run at a round boundary into the checkpoint at ``path``.

    ``counters`` are the remaining :class:`Checkpoint` fields.  What
    lives in RAM is embedded in the pickle; what is spilled is
    *snapshotted* into a sidecar next to it (the working spill files
    keep mutating after this point, so the checkpoint must reference
    copies, not the live files) and recorded by content fingerprint.
    The frontier and the visited set decide independently.
    """
    records: List[Any] = []
    visited_keys: Set[Any] = set()
    visited_fps = None
    refs = {}
    if frontier.spill_path is not None:
        sidecar = path + ".frontier"
        refs["frontier_ref"] = {
            "file": os.path.basename(sidecar),
            "sha256": frontier.snapshot_to(sidecar),
            "count": len(frontier),
        }
    else:
        records = list(frontier)
    if getattr(visited, "spill_path", None) is not None:
        visited.sync()
        sidecar = path + ".visited"
        shutil.copyfile(visited.spill_path, sidecar + ".tmp")
        os.replace(sidecar + ".tmp", sidecar)
        refs["visited_ref"] = {
            "file": os.path.basename(sidecar),
            "sha256": file_sha256(sidecar),
            "count": len(visited),
        }
    elif isinstance(visited, FingerprintSet):
        visited_fps = visited.to_bytes()
    else:
        visited_keys = set(visited)
    save_checkpoint(path, Checkpoint(
        frontier=records,
        visited_keys=visited_keys,
        visited_fps=visited_fps,
        **refs,
        **counters,
    ))


def discard_checkpoint(path: str) -> None:
    """Remove the checkpoint of a run that reached a final verdict,
    along with any sidecar snapshots it referenced."""
    for name in (path, path + ".frontier", path + ".visited"):
        try:
            os.unlink(name)
        except OSError:
            pass


def save_checkpoint(path: str, checkpoint: Checkpoint) -> None:
    """Atomically persist ``checkpoint`` to ``path``.

    The temp file lives in the destination directory so ``os.replace``
    stays a same-filesystem atomic rename.
    """
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp_path = tempfile.mkstemp(
        dir=directory, prefix=os.path.basename(path) + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            pickle.dump(checkpoint, handle, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def load_checkpoint(
    path: str, fingerprint: Optional[str] = None
) -> Optional[Checkpoint]:
    """Load the checkpoint at ``path``, or ``None`` when unusable.

    Unusable means: missing file, unreadable/truncated pickle, a layout
    version mismatch, or -- when ``fingerprint`` is given -- a
    checkpoint written by a differently configured exploration.  Each
    non-missing rejection warns, because the caller is about to redo
    work the checkpoint was supposed to save.
    """
    if not os.path.exists(path):
        return None
    try:
        with open(path, "rb") as handle:
            checkpoint = pickle.load(handle)
    except (
        OSError,
        pickle.UnpicklingError,
        EOFError,
        AttributeError,
        # Corrupt pickle streams surface more than UnpicklingError:
        # flipped bytes raise ValueError (bad opcode arguments; its
        # UnicodeDecodeError subclass from mangled strings),
        # OverflowError (absurd lengths), IndexError (a damaged mark
        # stack), or ImportError / ModuleNotFoundError (a damaged
        # GLOBAL opcode naming a module that does not exist).  All mean
        # the same thing here: redo the work the checkpoint was
        # supposed to save.
        ValueError,
        ImportError,
        IndexError,
        OverflowError,
    ) as exc:
        warnings.warn(
            f"ignoring unreadable checkpoint {path!r}: {exc}", stacklevel=2
        )
        return None
    if not isinstance(checkpoint, Checkpoint):
        warnings.warn(
            f"ignoring {path!r}: not a model-checker checkpoint", stacklevel=2
        )
        return None
    if checkpoint.version not in _LOADABLE_VERSIONS:
        if checkpoint.version == 1:
            # v1 checkpoints predate the compact visited set; their
            # visited_keys pickles full state objects from the old
            # engine and cannot be mapped onto fingerprint-mode dedup.
            warnings.warn(
                f"ignoring checkpoint {path!r}: version 1 checkpoints "
                "(pre-compact-visited-set) cannot be resumed by this "
                f"engine (version {CHECKPOINT_VERSION}); delete it and "
                "re-run from scratch",
                stacklevel=2,
            )
        else:
            warnings.warn(
                f"ignoring checkpoint {path!r}: version "
                f"{checkpoint.version} != {CHECKPOINT_VERSION}",
                stacklevel=2,
            )
        return None
    if fingerprint is not None and checkpoint.fingerprint != fingerprint:
        warnings.warn(
            f"ignoring checkpoint {path!r}: it was written by a "
            "differently configured exploration (fingerprint mismatch); "
            "starting fresh",
            stacklevel=2,
        )
        return None
    # v3 sidecars: the checkpoint is only as good as the spill files it
    # references -- verify each by content fingerprint before trusting
    # it, exactly like a corrupt pickle.
    for label, ref in (
        ("frontier", checkpoint.frontier_ref),
        ("visited", checkpoint.visited_ref),
    ):
        if ref is None:
            continue
        try:
            side = sidecar_path(path, ref)
            actual = file_sha256(side)
        except (OSError, KeyError, ValueError) as exc:
            warnings.warn(
                f"ignoring checkpoint {path!r}: its {label} spill file "
                f"is missing or unreadable ({exc}); starting fresh",
                stacklevel=2,
            )
            return None
        if actual != ref.get("sha256"):
            warnings.warn(
                f"ignoring checkpoint {path!r}: its {label} spill file "
                f"{ref.get('file')!r} does not match the recorded content "
                "fingerprint (corrupt or overwritten); starting fresh",
                stacklevel=2,
            )
            return None
    return checkpoint
