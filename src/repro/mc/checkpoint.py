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
import tempfile
import warnings
from dataclasses import dataclass, field
from typing import Any, List, Optional, Set

from .fpset import FingerprintSet

#: Bumped whenever the pickled layout changes; a loader seeing any
#: other version discards the checkpoint rather than guessing.
#:
#: Version history:
#:
#: 1. Pickled full state objects in ``visited_keys``.
#: 2. Fingerprint-mode runs store the visited set as packed sorted
#:    128-bit fingerprints in ``visited_fps``.
#: 3. A run that kept its frontier and visited set on disk referenced
#:    them as sidecar files instead of embedding them.
#: 4. The frontier and the visited set are always embedded (the disk
#:    tier is gone).  A v3 file would unpickle here with an empty
#:    embedded frontier, so it must not load.
CHECKPOINT_VERSION = 4


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

    @property
    def states_visited(self) -> int:
        if self.visited_fps is not None:
            return len(self.visited_fps) // 16
        return len(self.visited_keys)

    def restore_visited(self):
        """The live visited-set this checkpoint describes: a
        :class:`repro.mc.fpset.FingerprintSet` for fingerprint-mode
        checkpoints, a plain ``set`` otherwise."""
        if self.visited_fps is not None:
            return FingerprintSet.from_packed(self.visited_fps)
        return set(self.visited_keys)


def write_checkpoint(path: str, frontier, visited, **counters: Any) -> None:
    """Snapshot a run at a round boundary into the checkpoint at ``path``.

    ``counters`` are the remaining :class:`Checkpoint` fields.
    """
    if isinstance(visited, FingerprintSet):
        visited_keys, visited_fps = set(), visited.to_bytes()
    else:
        visited_keys, visited_fps = set(visited), None
    save_checkpoint(path, Checkpoint(
        frontier=list(frontier),
        visited_keys=visited_keys,
        visited_fps=visited_fps,
        **counters,
    ))


def discard_checkpoint(path: str) -> None:
    """Remove the checkpoint of a run that reached a final verdict."""
    try:
        os.unlink(path)
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
    if checkpoint.version != CHECKPOINT_VERSION:
        warnings.warn(
            f"ignoring checkpoint {path!r}: version "
            f"{checkpoint.version} != {CHECKPOINT_VERSION}; starting fresh",
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
    return checkpoint
