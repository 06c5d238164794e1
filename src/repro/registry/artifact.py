"""Self-describing model artifacts: what the registry stores.

An *artifact* is every model parameter (ordered) plus a JSON header
carrying the benchmark name, input shape, builder hyperparameters,
per-parameter dtypes, optional quantization spec, lineage back to the
producing campaign/trial, and a SHA-256 content checksum over the
weights.  The bytes are the ``.npz`` layout of
:mod:`repro.nn.serialization` — this module never touches the file
format, only what the header means: :func:`write_artifact` hands
weights and header to the one atomic writer, :func:`load_artifact`
takes them back from the one reader and checks the weights against the
recorded checksum *before* anything is installed into a model, and
:func:`build_from_artifact` turns the pair into a served model.
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple, Union

import numpy as np

from ..nn.serialization import CheckpointIntegrityError, read_npz, write_npz


class UnsupportedDtypeError(RuntimeError):
    """An artifact's weights use a dtype the host kernels cannot serve.
    Raised at load time, before any weights are installed — loading would
    otherwise silently cast into the model's built dtype and serve
    different numerics than were published."""


#: Weight dtypes the NumPy serving kernels handle natively.  int8
#: checkpoints are served as fp32 weights *plus* quantization metadata
#: (the int8 plan is rebuilt from recorded scales), so int8 never appears
#: as a raw weight dtype here.
SUPPORTED_SERVING_DTYPES = frozenset({"float64", "float32", "float16"})


def weights_checksum(weights: Iterable[np.ndarray]) -> str:
    """SHA-256 over every weight array's dtype, shape, and raw bytes.

    Order-sensitive by design — swapping two layers' weights is corruption
    even though the multiset of bytes is unchanged.  This hash is also the
    registry's *content address*: two publishes of byte-identical weights
    share one stored object and one warm-cache slot.
    """
    h = hashlib.sha256()
    for w in weights:
        arr = np.ascontiguousarray(w)
        h.update(str(arr.dtype).encode())
        h.update(repr(arr.shape).encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def check_serving_dtypes(dtypes) -> set:
    """Refuse weight dtypes the host kernels cannot serve.

    Called before any weight array is decoded or installed; raises
    :class:`UnsupportedDtypeError`.  Returns the dtype-name set.
    """
    dtypes = set(dtypes)
    unsupported = dtypes - SUPPORTED_SERVING_DTYPES
    if unsupported:
        raise UnsupportedDtypeError(
            f"artifact weight dtype(s) {sorted(unsupported)} are not servable by "
            f"the host kernels (supported: {sorted(SUPPORTED_SERVING_DTYPES)})"
        )
    return dtypes


def json_safe(value):
    """Recursively convert numpy scalars/arrays, tuples, sets, and Paths
    into plain JSON types (campaign configs carry ``np.int64`` etc.)."""
    if isinstance(value, dict):
        return {str(k): json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [json_safe(v) for v in value]
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, Path):
        return str(value)
    return value


def build_artifact_meta(
    model,
    benchmark: str,
    input_shape: tuple,
    hparams: Optional[Dict] = None,
    metadata: Optional[Dict] = None,
    quantization: Optional[Dict] = None,
    lineage: Optional[Dict] = None,
) -> Dict:
    """Assemble the self-describing header for one model artifact.

    ``benchmark`` must name an entry of :data:`repro.candle.registry.REGISTRY`
    (the loader rebuilds the architecture through its ``build_model``);
    ``hparams`` are the builder kwargs the weights were trained with;
    ``lineage`` records where the weights came from (campaign/trial obs
    span ids, strategy, final metric — whatever the producer knows).
    """
    from ..candle.registry import get_benchmark

    get_benchmark(benchmark)  # validate early, not at first request
    weights = model.get_weights()
    if quantization is None:
        plan = getattr(model, "_int8_plan", None)
        quantization = plan.spec() if plan is not None else None
    return json_safe({
        "benchmark": benchmark,
        "input_shape": list(input_shape),
        "hparams": hparams or {},
        "checksum": weights_checksum(weights),
        "dtypes": [str(w.dtype) for w in weights],
        "quantization": quantization,
        "lineage": lineage or {},
        "extra": metadata or {},
    })


def write_artifact(model, path: Union[str, Path], meta: Dict) -> Path:
    """Atomically write ``model``'s weights + ``meta`` as an artifact:
    concurrent readers see either the previous complete artifact or the
    new complete one — never a torn write."""
    return write_npz(path, model.get_weights(), {"metadata": meta})


def load_artifact(path: Union[str, Path]) -> Tuple[Dict, List[np.ndarray]]:
    """Read and verify one artifact in a single pass; ``(meta, weights)``.

    A truncated or undecodable file, or weights that no longer hash to
    the checksum recorded at publish time, raise
    :class:`CheckpointIntegrityError` — corrupt weights never reach a
    model.  (Artifacts published before checksums existed carry none;
    there is nothing to compare.)  A well-formed ``.npz`` that is not an
    artifact raises ``ValueError``.
    """
    header, weights, _ = read_npz(path)
    meta = header.get("metadata")
    if not isinstance(meta, dict) or "benchmark" not in meta or "input_shape" not in meta:
        raise ValueError(
            f"{path} is not a serving checkpoint (write one with ArtifactStore.publish)"
        )
    if "checksum" in meta:
        actual = weights_checksum(weights)
        if actual != meta["checksum"]:
            raise CheckpointIntegrityError(
                f"{path}: weight checksum mismatch (expected "
                f"{str(meta['checksum'])[:16]}…, got {actual[:16]}…) — "
                "artifact is corrupt; refusing to load"
            )
    return meta, weights


def build_from_artifact(
    meta: Dict,
    weights: List[np.ndarray],
    warmup: bool = True,
    warmup_batch: int = 1,
):
    """Materialize a served model from already-read artifact contents.

    Refuses unservable weight dtypes *before* building anything, rebuilds
    the architecture from :mod:`repro.candle.registry`, casts the built
    skeleton into the published dtype (so an fp32 artifact is not
    silently upcast), installs the weights, restores the int8 plan when
    quantization metadata is present, and optionally runs one throwaway
    forward so first-request latency excludes lazy buffer allocation.
    """
    from ..candle.registry import get_benchmark
    from ..nn.tensor import no_grad

    dtypes = check_serving_dtypes(meta.get("dtypes") or (str(w.dtype) for w in weights))
    spec = get_benchmark(meta["benchmark"])
    model = spec.materialize(input_shape=tuple(meta["input_shape"]), **meta["hparams"])
    if len(dtypes) == 1:
        # Serve in the published dtype: materialize builds float64
        # parameters, and set_weights casts *into* the existing buffers —
        # without this cast an fp32 artifact would be silently upcast and
        # served at the wrong precision.
        model.astype(np.dtype(next(iter(dtypes))))
    model.set_weights(weights)
    quant = meta.get("quantization")
    if quant is not None:
        # Rebuild the int8 plan from recorded scales: deterministic, so
        # the served datapath is bit-identical to the published one.
        from ..precision.int8 import plan_from_spec

        model._int8_plan = plan_from_spec(model, quant)
    if warmup:
        # One throwaway forward allocates every layer's scratch and
        # triggers BLAS thread-pool spin-up off the request path, in the
        # served dtype (a float64 warmup on an fp32 model would exercise
        # — and cache-prime — the wrong path).
        p0 = next(iter(model.parameters()), None)
        wdtype = p0.data.dtype if p0 is not None else np.float64
        x = np.zeros((warmup_batch,) + tuple(meta["input_shape"]), dtype=wdtype)
        with no_grad():
            model.predict(x, batch_size=warmup_batch)
    return model
