"""Atomic checkpoint management for resumable training jobs.

A :class:`CheckpointManager` owns a directory of numbered snapshots
(``ckpt-<global_step>.npz``).  Writes go through
:func:`repro.nn.serialization.save_training_state`
(write-tmp-then-rename), so a crash — real or injected — during a write
can never corrupt the latest durable checkpoint: restart always finds
either the previous complete snapshot or the new complete one.  A
snapshot damaged *after* it landed (a truncating copy, bit rot) is
refused by the reader and skipped: restore falls back to the newest
snapshot that still reads.

A storage fault drawn from the :class:`repro.resilience.FaultSchedule`
(site ``write``, keyed on the write's index) makes a write *fail
cleanly*: the manager reports the failure, leaves the previous
checkpoint in place, and the training loop simply tries again at the
next interval — exactly the graceful-degradation contract a parallel
filesystem hiccup demands.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Union

import numpy as np

from ..nn.model import Model
from ..nn.optim import Optimizer
from ..nn.serialization import (
    CheckpointIntegrityError,
    load_training_state,
    save_training_state,
)
from .faults import STORAGE, FaultSchedule, record

_PREFIX = "ckpt-"


class CheckpointManager:
    """Numbered atomic snapshots with retention.

    Parameters
    ----------
    directory:
        Where snapshots live; created if missing.
    keep:
        How many most-recent snapshots to retain (older ones pruned).
        The step-0 baseline snapshot is always kept: it anchors restarts
        that happen before the first periodic checkpoint succeeds.
    faults:
        Optional fault schedule consulted before every write.
    """

    def __init__(
        self,
        directory: Union[str, Path],
        keep: int = 3,
        faults: Optional[FaultSchedule] = None,
    ) -> None:
        if keep < 1:
            raise ValueError("keep must be >= 1")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.keep = keep
        self.faults = faults
        self.writes_attempted = 0
        self.writes_failed = 0
        self.snapshots_skipped = 0  # unreadable snapshots restore() stepped over

    def _path_for(self, global_step: int) -> Path:
        return self.directory / f"{_PREFIX}{global_step:08d}.npz"

    def snapshots(self) -> List[Path]:
        """All snapshot paths, oldest first."""
        return sorted(self.directory.glob(f"{_PREFIX}*.npz"))

    def latest(self) -> Optional[Path]:
        snaps = self.snapshots()
        return snaps[-1] if snaps else None

    def save(
        self,
        model: Model,
        optimizer: Optional[Optimizer],
        *,
        epoch: int,
        step: int,
        global_step: int,
        rng: Optional[np.random.Generator] = None,
        extra_arrays: Optional[Dict[str, np.ndarray]] = None,
        history: Optional[List[Dict[str, float]]] = None,
        metadata: Optional[Dict] = None,
        force: bool = False,
    ) -> Optional[Path]:
        """Write one snapshot; returns its path, or None on an injected
        storage failure (the previous snapshot stays valid).  ``force``
        bypasses fault injection (baseline snapshots must land)."""
        self.writes_attempted += 1
        if (
            not force
            and self.faults is not None
            and self.faults.draw("write", self.writes_attempted) == STORAGE
        ):
            record(STORAGE)
            self.writes_failed += 1
            return None
        path = save_training_state(
            model, optimizer, self._path_for(global_step),
            epoch=epoch, step=step, global_step=global_step,
            rng=rng, extra_arrays=extra_arrays, history=history, metadata=metadata,
        )
        self._prune()
        return path

    def restore(self, model: Model, optimizer: Optional[Optimizer]) -> Optional[Dict]:
        """Load the newest *readable* snapshot into model/optimizer;
        returns its header (see :func:`load_training_state`) or None if
        the directory is empty.

        A snapshot the reader refuses is left on disk, counted in
        :attr:`snapshots_skipped`, and the next-older one is tried; when
        none reads, :class:`CheckpointIntegrityError` names the directory.
        """
        snaps = self.snapshots()
        for path in reversed(snaps):
            try:
                return load_training_state(model, optimizer, path)
            except CheckpointIntegrityError:
                self.snapshots_skipped += 1
        if snaps:
            raise CheckpointIntegrityError(
                f"{self.directory}: none of the {len(snaps)} snapshots is readable"
            )
        return None

    def _prune(self) -> None:
        snaps = self.snapshots()
        # Keep the baseline (first) snapshot plus the newest `keep`.
        baseline = snaps[0] if snaps else None
        for old in snaps[:-self.keep]:
            if old != baseline:
                old.unlink()
