"""Model persistence: the one module that knows the on-disk layout.

Every file this repo writes for a model — bare weights
(:func:`save_weights`), resumable training snapshots
(:func:`save_training_state`, what :mod:`repro.resilience` restarts
from) and registry artifacts (:func:`repro.registry.write_artifact`) —
is one ``.npz``: the parameters in order as ``param_0000``…, any
further named arrays, and a ``_meta`` member holding a JSON header with
``n_params``.  :func:`write_npz` is the only writer (always through
:func:`atomic_savez`: temp file, then ``os.replace``, so a reader never
finds a torn file) and :func:`read_npz` the only reader (a file that is
unreadable, truncated or fails a CRC is refused with
:class:`CheckpointIntegrityError`, whoever asks).
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .model import Model
from .optim import Optimizer


class CheckpointIntegrityError(RuntimeError):
    """A stored model failed its integrity check: the file is truncated,
    a member is corrupt, or (for registry artifacts) the weights no
    longer match the checksum recorded at publish time.  Raised *before*
    any weights are installed into a model."""


def atomic_savez(path: Union[str, Path], arrays: Dict[str, np.ndarray]) -> Path:
    """Write an .npz atomically: savez to a temp file, then rename.

    ``os.replace`` is atomic on POSIX, so readers either see the previous
    complete checkpoint or the new complete one — never a torn write.
    Returns the final path (with the ``.npz`` suffix ``np.savez`` adds).
    """
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(path.suffix + ".npz")
    fd, tmp_name = tempfile.mkstemp(suffix=".npz", dir=path.parent, prefix=".tmp_ckpt_")
    os.close(fd)
    try:
        with open(tmp_name, "wb") as fh:
            np.savez(fh, **arrays)
        os.replace(tmp_name, path)
    except BaseException:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)
        raise
    return path


def write_npz(
    path: Union[str, Path],
    weights: Sequence[np.ndarray],
    header: Dict,
    arrays: Optional[Dict[str, np.ndarray]] = None,
) -> Path:
    """The writer: ``weights`` in order, ``arrays`` by name, ``header``
    (plus ``n_params``) as JSON — atomically.  Returns the final path."""
    members = {f"param_{i:04d}": w for i, w in enumerate(weights)}
    members.update(arrays or {})
    members["_meta"] = np.frombuffer(
        json.dumps({"n_params": len(weights), **header}).encode(), dtype=np.uint8
    )
    return atomic_savez(path, members)


def read_npz(path: Union[str, Path]) -> Tuple[Dict, List[np.ndarray], Dict[str, np.ndarray]]:
    """The reader: ``(header, weights, other arrays)`` of a file written
    by :func:`write_npz`, every member decoded in this one pass.

    ``path`` may omit the ``.npz`` suffix.  A missing file raises
    ``FileNotFoundError``; anything else that stops the decode — a
    truncated zip, a member failing its CRC, a mangled array or JSON
    header, a missing parameter, two members under one name (a damaged
    directory entry shadowing a neighbour, which would otherwise just
    vanish) — raises :class:`CheckpointIntegrityError`.
    """
    path = Path(path)
    if not path.exists() and path.with_suffix(path.suffix + ".npz").exists():
        path = path.with_suffix(path.suffix + ".npz")
    try:
        with np.load(path) as data:
            arrays = {key: data[key] for key in data.files}
            if len(arrays) != len(data.files):
                raise ValueError("two members share a name")
        header = json.loads(bytes(arrays.pop("_meta")).decode())
        weights = [arrays.pop(f"param_{i:04d}") for i in range(header["n_params"])]
    except FileNotFoundError:
        raise
    except Exception as exc:  # BadZipFile, zlib.error, EOFError, KeyError, ValueError…
        raise CheckpointIntegrityError(
            f"{path}: unreadable ({type(exc).__name__}: {exc}) — "
            "file is truncated or corrupt; refusing to load"
        ) from exc
    return header, weights, arrays


def save_weights(model: Model, path: Union[str, Path], metadata: Optional[Dict] = None) -> None:
    """Write all model parameters (ordered) plus optional JSON metadata."""
    write_npz(path, model.get_weights(), {"metadata": metadata or {}})


def load_weights(model: Model, path: Union[str, Path]) -> Dict:
    """Restore parameters saved by :func:`save_weights`; returns metadata.

    The model must already be built with matching shapes.
    """
    header, weights, _ = read_npz(path)
    model.set_weights(weights)
    return header["metadata"]


def _pack_optimizer(optimizer: Optional[Optimizer], arrays: Dict[str, np.ndarray]) -> Dict:
    """Append the optimizer's slot vectors to ``arrays`` as ``opt_<slot>``;
    return the JSON header, which names them."""
    if optimizer is None:
        return {"type": None}
    state = optimizer.state
    for name, flat in (state or {}).items():
        arrays[f"opt_{name}"] = flat
    return {"type": type(optimizer).__name__, "lr": optimizer.lr, "step_count": optimizer.step_count,
            "slots": None if state is None else sorted(state)}


def _unpack_optimizer(optimizer: Optional[Optimizer], opt_state: Dict, data) -> None:
    """Restore what :func:`_pack_optimizer` saved from ``data``, the
    arrays :func:`read_npz` decoded.  The restore is *exact*: a snapshot
    taken before the first step has no slots and clears the optimizer's —
    a run restored to it must not carry stale moments from the incarnation
    that died."""
    if optimizer is None or opt_state.get("type") != type(optimizer).__name__:
        return
    slots = opt_state.get("slots")
    try:
        state = None if slots is None else {name: data[f"opt_{name}"] for name in slots}
    except KeyError as exc:
        raise CheckpointIntegrityError(
            f"the header lists optimizer slot {exc} and the file lacks it; refusing to load"
        ) from None
    optimizer.load_state(state)
    optimizer.lr = opt_state["lr"]
    optimizer.step_count = opt_state["step_count"]


def rng_state(rng: np.random.Generator) -> Dict:
    """JSON-serializable snapshot of a Generator's bit-generator state."""
    return rng.bit_generator.state


def restore_rng(state: Dict) -> np.random.Generator:
    """Reconstruct a Generator bit-identical to the one snapshotted."""
    bit_gen_cls = getattr(np.random, state["bit_generator"])
    gen = np.random.Generator(bit_gen_cls())
    gen.bit_generator.state = state
    return gen


def save_training_state(
    model: Model,
    optimizer: Optional[Optimizer],
    path: Union[str, Path],
    *,
    epoch: int = 0,
    step: int = 0,
    global_step: int = 0,
    rng: Optional[np.random.Generator] = None,
    extra_arrays: Optional[Dict[str, np.ndarray]] = None,
    history: Optional[List[Dict[str, float]]] = None,
    metadata: Optional[Dict] = None,
) -> Path:
    """Atomic, fully-resumable training snapshot.

    Weights and optimizer moments plus the position *inside* training —
    (epoch, step-in-epoch, global step), the shuffle RNG's exact
    bit-generator state, arbitrary extra arrays (e.g. the current
    epoch's permutation), and the per-epoch history so a resumed run
    replays nothing and reports a seamless record.  Returns the final
    checkpoint path.
    """
    arrays: Dict[str, np.ndarray] = {}
    opt_state = _pack_optimizer(optimizer, arrays)
    for key, arr in (extra_arrays or {}).items():
        arrays[f"extra_{key}"] = np.asarray(arr)
    header = {
        "epoch": epoch,
        "step": step,
        "global_step": global_step,
        "optimizer": opt_state,
        "rng": rng_state(rng) if rng is not None else None,
        "history": history or [],
        "extra_keys": sorted((extra_arrays or {}).keys()),
        "metadata": metadata or {},
    }
    return write_npz(path, model.get_weights(), header, arrays)


def load_training_state(
    model: Model,
    optimizer: Optional[Optimizer],
    path: Union[str, Path],
) -> Dict:
    """Restore a snapshot written by :func:`save_training_state`.

    Returns the header with two additions: ``"rng"`` is replaced by a
    restored ``np.random.Generator`` (or None) and ``"extra"`` maps the
    saved extra-array names to their arrays.
    """
    header, weights, arrays = read_npz(path)
    # The optimizer first: what it refuses is refused before any weight is installed.
    _unpack_optimizer(optimizer, header.get("optimizer", {}), arrays)
    model.set_weights(weights)
    header["extra"] = {key: arrays[f"extra_{key}"] for key in header.get("extra_keys", [])}
    header["rng"] = restore_rng(header["rng"]) if header.get("rng") else None
    return header
