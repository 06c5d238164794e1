"""Mini-batch iteration over in-memory arrays.

The loader models the per-node data pipeline the keynote describes: each
"node" holds (or stages, see :mod:`repro.hpc.storage`) its shard of the
training set and iterates shuffled mini-batches from it.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence, Tuple

import numpy as np


class DataLoader:
    """Iterate (x_batch, y_batch) pairs with optional shuffling.

    Parameters
    ----------
    x, y:
        Arrays whose first axis is the sample axis.  ``y`` may be None for
        unsupervised workloads (the P1B1 autoencoder).
    batch_size:
        Mini-batch size; the last batch may be smaller unless
        ``drop_last`` is set.
    shuffle:
        Reshuffle indices at the start of every epoch.
    rng:
        Generator used for shuffling (reproducible pipelines).  Mutually
        exclusive with ``seed``.
    seed:
        Convenience for ``rng=np.random.default_rng(seed)``.
    dtype:
        Optional cast applied **once at construction** to ``x`` (and to a
        float ``y``; integer labels pass through).  Batches then slice
        the pre-cast arrays, so a reduced-precision fit pays zero
        per-batch cast cost and no batch ever round-trips through
        float64.  Without ``dtype`` the loader is dtype-transparent:
        slicing and fancy indexing both preserve the input dtype.

    Reproducibility contract: when neither ``rng`` nor ``seed`` is
    given, each loader gets its own fresh ``default_rng(0)`` — so two
    loaders built without an explicit generator produce *identical*
    permutation sequences.  That default keeps pipelines reproducible
    by construction; pass distinct ``seed`` values (or share one
    ``rng``) when you want decorrelated shuffles.
    """

    def __init__(
        self,
        x: np.ndarray,
        y: Optional[np.ndarray] = None,
        batch_size: int = 32,
        shuffle: bool = True,
        drop_last: bool = False,
        rng: Optional[np.random.Generator] = None,
        seed: Optional[int] = None,
        dtype=None,
    ) -> None:
        self.x = np.asarray(x)
        self.y = None if y is None else np.asarray(y)
        if dtype is not None:
            dtype = np.dtype(dtype)
            if self.x.dtype != dtype:
                self.x = self.x.astype(dtype)
            if self.y is not None and self.y.dtype.kind == "f" and self.y.dtype != dtype:
                self.y = self.y.astype(dtype)
        if self.y is not None and len(self.x) != len(self.y):
            raise ValueError(f"x and y length mismatch: {len(self.x)} vs {len(self.y)}")
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if rng is not None and seed is not None:
            raise ValueError("pass rng or seed, not both")
        self.batch_size = batch_size
        self.shuffle = shuffle
        self.drop_last = drop_last
        self.rng = rng if rng is not None else np.random.default_rng(0 if seed is None else seed)

    def __len__(self) -> int:
        n = len(self.x)
        if self.drop_last:
            return n // self.batch_size
        return (n + self.batch_size - 1) // self.batch_size

    @property
    def n_samples(self) -> int:
        return len(self.x)

    def __iter__(self) -> Iterator[Tuple[np.ndarray, Optional[np.ndarray]]]:
        n = len(self.x)
        if not self.shuffle:
            # Sequential epochs take contiguous basic slices — views into
            # the dataset, zero bytes copied per batch.
            stop = (n // self.batch_size) * self.batch_size if self.drop_last else n
            for start in range(0, stop, self.batch_size):
                sl = slice(start, min(start + self.batch_size, stop))
                yield self.x[sl], (None if self.y is None else self.y[sl])
            return
        yield from self.batches(self.rng.permutation(n))

    def batches(
        self, idx: np.ndarray, first: int = 0
    ) -> Iterator[Tuple[np.ndarray, Optional[np.ndarray]]]:
        """The batches of one epoch whose sample order is ``idx``, from
        batch number ``first`` on — how a resumed fit re-enters an epoch
        under the permutation it was drawn with."""
        stop = (len(idx) // self.batch_size) * self.batch_size if self.drop_last else len(idx)
        for start in range(first * self.batch_size, stop, self.batch_size):
            batch_idx = idx[start : start + self.batch_size]
            yield self.x[batch_idx], (None if self.y is None else self.y[batch_idx])


def shard(x: np.ndarray, y: Optional[np.ndarray], rank: int, world: int) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Contiguous shard of a dataset for data-parallel rank ``rank`` of
    ``world`` — mirrors how CANDLE distributes training data per node."""
    if not 0 <= rank < world:
        raise ValueError(f"rank {rank} out of range for world size {world}")
    n = len(x)
    per = n // world
    lo = rank * per
    hi = n if rank == world - 1 else lo + per
    return x[lo:hi], (None if y is None else y[lo:hi])


def train_val_split(
    x: np.ndarray,
    y: Optional[np.ndarray],
    val_frac: float = 0.2,
    rng: Optional[np.random.Generator] = None,
):
    """Shuffled train/validation split; returns (x_tr, y_tr, x_va, y_va)."""
    if not 0.0 < val_frac < 1.0:
        raise ValueError("val_frac must be in (0, 1)")
    rng = rng or np.random.default_rng(0)
    n = len(x)
    idx = rng.permutation(n)
    n_val = max(1, int(round(n * val_frac)))
    val_idx, tr_idx = idx[:n_val], idx[n_val:]
    y_tr = None if y is None else y[tr_idx]
    y_va = None if y is None else y[val_idx]
    return x[tr_idx], y_tr, x[val_idx], y_va
