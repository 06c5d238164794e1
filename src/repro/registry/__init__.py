"""Content-addressed model registry: one artifact flow from campaign
publish to serving load.

The paper's CANDLE workflow publishes thousands of models per search
campaign and serves the winners; this package is the load-bearing link
between those two ends — a versioned, content-addressed artifact store
with pluggable storage backends and a warm model cache:

* :mod:`repro.registry.artifact` — what a self-describing artifact's
  header means: SHA-256 content addressing, checksum verification on
  load, dtype refusal, building the served model (the ``.npz`` bytes
  themselves belong to :mod:`repro.nn.serialization`);
* :mod:`repro.registry.backends` — the :class:`RegistryBackend` ABC
  (local directory now, S3-style remotes by the same seven-method
  contract) with atomic-write semantics;
* :mod:`repro.registry.cache` — :class:`WarmModelCache`, an LRU of built
  models keyed by content hash so aliases of the same bytes share one
  resident model;
* :mod:`repro.registry.store` — :class:`ArtifactStore`, tying it
  together: ``publish`` appends ``name@version`` manifests over deduped
  blobs (with lineage back to the producing campaign/trial), ``get``
  serves warm models bit-identically to ``Model.predict``.

The serving layer loads only through :meth:`ArtifactStore.get`
(``InferenceServer.from_store``, ``ReplicaGroup.from_store``); the
``registry_churn`` workload of ``bench/`` measures publish throughput
beside a cold-loading reader and fails on a torn read.
"""

from .artifact import (
    SUPPORTED_SERVING_DTYPES,
    CheckpointIntegrityError,
    UnsupportedDtypeError,
    build_artifact_meta,
    build_from_artifact,
    encode_artifact,
    load_artifact,
    weights_checksum,
)
from .backends import InMemoryBackend, LocalDirBackend, RegistryBackend
from .cache import WarmModelCache
from .store import ArtifactRef, ArtifactStore

__all__ = [
    "ArtifactRef",
    "ArtifactStore",
    "CheckpointIntegrityError",
    "InMemoryBackend",
    "LocalDirBackend",
    "RegistryBackend",
    "SUPPORTED_SERVING_DTYPES",
    "UnsupportedDtypeError",
    "WarmModelCache",
    "build_artifact_meta",
    "build_from_artifact",
    "encode_artifact",
    "load_artifact",
    "weights_checksum",
]
