"""The content-addressed, versioned model artifact store.

The campaign → publish → resolve → serve pipeline flows through this
store as one artifact path, and :meth:`ArtifactStore.get` is the only
code that turns stored bytes into a built, warm model:

* **Objects** are immutable blobs named by their weights SHA-256
  (``objects/<hash>.npz``) — publishing byte-identical weights twice
  stores one object, and a hash-named blob can never go stale.
* **Manifests** are tiny JSON aliases, ``name@version``: each publish of
  a name appends a monotonically numbered manifest carrying the content
  hash, benchmark/input-shape/hparams, dtype + quantization metadata,
  and lineage back to the producing campaign/trial (obs span ids).  A
  publish claims its number with an exclusive create of the complete
  manifest and takes the next number if another publisher got there
  first, so concurrent publishers of one name never overwrite each
  other and the numbers stay contiguous.  ``latest.json`` is a hint at
  the newest version that readers step forward from; concurrent
  readers always resolve a complete version — old or new, never torn.
* **Loading** is one sequence, written once: resolve the manifest →
  probe the content-keyed :class:`~repro.registry.cache.WarmModelCache`
  (a warm hit costs zero file I/O, the manifest already carries the
  hash) → refuse unservable dtypes → read the blob once, verifying its
  own checksum and that it is the object its address names → build →
  cache.  :class:`repro.serve.InferenceServer` and
  :class:`repro.serve.ReplicaGroup` both serve what ``get`` returns.

Storage is pluggable (:mod:`repro.registry.backends`): a local directory
today, an S3-style remote by implementing the same seven-method contract.
"""

from __future__ import annotations

import json
import re
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union

from .artifact import (
    CheckpointIntegrityError,
    build_artifact_meta,
    build_from_artifact,
    check_serving_dtypes,
    encode_artifact,
    load_artifact,
)
from .backends import LocalDirBackend, RegistryBackend
from .cache import WarmModelCache

OBJECTS = "objects"
MANIFESTS = "manifests"
_DIGEST = re.compile(r"[0-9a-f]{64}")  # weights_checksum's hex SHA-256


@dataclass(frozen=True)
class ArtifactRef:
    """A resolved ``name@version`` → content-hash binding."""

    name: Optional[str]
    version: Optional[int]
    content_hash: str
    meta: Dict = field(default_factory=dict, compare=False)

    @property
    def benchmark(self) -> Optional[str]:
        return self.meta.get("benchmark")

    @property
    def input_shape(self) -> tuple:
        return tuple(self.meta.get("input_shape", ()))

    @property
    def hparams(self) -> Dict:
        return self.meta.get("hparams", {})

    @property
    def lineage(self) -> Dict:
        return self.meta.get("lineage", {})

    @property
    def precision(self) -> Optional[str]:
        """The serving datapath the artifact was published for: ``"int8"``
        when it carries quantization metadata, else ``None`` (the weights'
        own dtype).  What a ``from_store`` serves at unless told otherwise."""
        return "int8" if self.meta.get("quantization") is not None else None

    @property
    def spec(self) -> str:
        if self.name is None:
            return f"sha256:{self.content_hash}"
        return f"{self.name}@{self.version}"


def _version_key(name: str, version: int) -> str:
    return f"{MANIFESTS}/{name}/{version:06d}.json"


def _object_key(content_hash: str) -> str:
    return f"{OBJECTS}/{content_hash}.npz"


class ArtifactStore:
    """Versioned, content-addressed model registry with a warm cache.

    Parameters
    ----------
    root:
        Directory for the default :class:`LocalDirBackend`; ignored when
        ``backend`` is given.
    backend:
        Any :class:`RegistryBackend` (local dir, in-memory/S3-shaped…).
    capacity / warmup / warmup_batch:
        Warm-cache sizing and warm-up policy for loaded models; pass a
        shared :class:`WarmModelCache` via ``cache`` to pool residency
        across stores.
    """

    def __init__(
        self,
        root: Optional[Union[str, Path]] = None,
        backend: Optional[RegistryBackend] = None,
        capacity: int = 4,
        warmup: bool = False,
        warmup_batch: int = 1,
        cache: Optional[WarmModelCache] = None,
    ) -> None:
        if backend is None:
            if root is None:
                raise ValueError("pass a root directory or an explicit backend")
            backend = LocalDirBackend(root)
        self.backend = backend
        self.warmup = warmup
        self.warmup_batch = warmup_batch
        # `cache or ...` would discard an *empty* shared cache (len 0 is
        # falsy) — the whole point of passing one is pooled residency.
        self.cache = cache if cache is not None else WarmModelCache(capacity)
        self.publishes = 0
        self.dedup_hits = 0  # publishes whose object already existed
        self.loads = 0
        self.hits = 0
        self.evictions = 0

    # -- publish ---------------------------------------------------------
    def publish(
        self,
        model,
        name: str,
        benchmark: str,
        input_shape: Optional[tuple] = None,
        hparams: Optional[Dict] = None,
        lineage: Optional[Dict] = None,
        metadata: Optional[Dict] = None,
        quantization: Optional[Dict] = None,
    ) -> ArtifactRef:
        """Store the model's weights and append a new ``name@version``.

        Three atomic writes (two when the object already exists): the
        blob, then the manifest, created exclusively at the first free
        version, then the ``latest`` hint, so a crash at any point leaves
        every already-visible reference loadable.  Returns the new
        version's :class:`ArtifactRef`.
        """
        if not name or name.startswith(".") or "/" in name or "@" in name:
            raise ValueError(f"invalid artifact name {name!r} ('/' and '@' are reserved, "
                             f"and a name does not start with '.')")
        if input_shape is None:
            from ..candle.registry import get_benchmark

            input_shape = get_benchmark(benchmark).input_shape()
        meta, weights = build_artifact_meta(
            model, benchmark, tuple(input_shape), hparams=hparams,
            metadata=metadata, quantization=quantization, lineage=lineage,
        )
        content_hash = meta["checksum"]
        obj_key = _object_key(content_hash)
        if self.backend.exists(obj_key):
            self.dedup_hits += 1
        else:
            self.backend.write_bytes(obj_key, encode_artifact(weights, meta))
        version = self.latest_version(name)
        while True:  # each lost race means one more publisher took a number
            version += 1
            manifest = dict(
                meta,
                name=name,
                version=version,
                content_hash=content_hash,
                published_at=time.time(),
            )
            if self.backend.create_bytes(
                _version_key(name, version), json.dumps(manifest, sort_keys=True).encode()
            ):
                break
        self.backend.write_bytes(
            f"{MANIFESTS}/{name}/latest.json", json.dumps({"version": version}).encode()
        )
        self.publishes += 1
        return ArtifactRef(name=name, version=version, content_hash=content_hash, meta=manifest)

    # -- catalog ---------------------------------------------------------
    def names(self) -> List[str]:
        """Every published alias name."""
        return self.backend.list_dir(MANIFESTS)

    def versions(self, name: str) -> List[int]:
        """All published versions of ``name``, ascending."""
        out = []
        for key in self.backend.list_keys(f"{MANIFESTS}/{name}/"):
            stem = key.rsplit("/", 1)[-1]
            if stem.endswith(".json") and stem[:-5].isdigit():
                out.append(int(stem[:-5]))
        return sorted(out)

    def latest_version(self, name: str) -> int:
        """Newest version of ``name`` (0 if never published).

        ``latest.json`` is a hint: a publisher that lost a race may write
        an older number after a newer one.  Versions are claimed
        contiguously and only complete manifests are created, so stepping
        forward from the hint while the next manifest exists ends on the
        newest version."""
        try:
            pointer = json.loads(self.backend.read_bytes(f"{MANIFESTS}/{name}/latest.json"))
            version = int(pointer["version"])
        except (FileNotFoundError, ValueError, KeyError):
            versions = self.versions(name)
            version = versions[-1] if versions else 0
        while self.backend.exists(_version_key(name, version + 1)):
            version += 1
        return version

    def resolve(self, spec: Union[str, ArtifactRef]) -> ArtifactRef:
        """``"name"`` / ``"name@latest"`` / ``"name@<v>"`` / ``"sha256:<hex>"``
        → :class:`ArtifactRef`; raises ``KeyError`` for unknown or
        malformed specs (a non-integer version, a digest that is not 64
        hex characters, a name containing ``/``)."""
        if isinstance(spec, ArtifactRef):
            return spec
        if spec.startswith("sha256:"):
            content_hash = spec.split(":", 1)[1]
            if not _DIGEST.fullmatch(content_hash) or not self.backend.exists(_object_key(content_hash)):
                raise KeyError(f"no stored object {spec!r}")
            return ArtifactRef(name=None, version=None, content_hash=content_hash)
        name, _, version_s = spec.partition("@")
        if "/" in name:
            raise KeyError(f"invalid artifact name {name!r} in {spec!r}")
        if not version_s or version_s == "latest":
            version = self.latest_version(name)
            if version == 0:
                raise KeyError(f"unknown artifact {name!r}; published: {self.names()}")
        elif version_s.isascii() and version_s.isdigit():
            version = int(version_s)
        else:
            raise KeyError(f"invalid version {version_s!r} in {spec!r}; use an integer or 'latest'")
        try:
            manifest = json.loads(self.backend.read_bytes(_version_key(name, version)))
        except FileNotFoundError:
            raise KeyError(
                f"unknown artifact {name}@{version}; versions: {self.versions(name)}"
            ) from None
        return ArtifactRef(
            name=name, version=version,
            content_hash=manifest["content_hash"], meta=manifest,
        )

    # -- load ------------------------------------------------------------
    def path_for(self, spec: Union[str, ArtifactRef]) -> Path:
        """Local filesystem path of the resolved artifact blob (for tools
        that inspect the file itself; models come from :meth:`get`)."""
        ref = self.resolve(spec)
        return self.backend.open_local(_object_key(ref.content_hash))

    def _read(self, ref: ArtifactRef):
        """Decode the blob ``ref`` names, verified twice over: against
        its own recorded checksum, and against the address it sits at."""
        path = self.path_for(ref)
        meta, weights = load_artifact(path)
        if meta.get("checksum") and meta["checksum"] != ref.content_hash:
            raise CheckpointIntegrityError(
                f"{path}: stored object does not match its address "
                f"(manifest says {ref.content_hash[:16]}…, object says "
                f"{meta['checksum'][:16]}…)"
            )
        return meta, weights

    def get(self, spec: Union[str, ArtifactRef]):
        """The built model for ``spec``, warm-cached by content hash.

        A warm hit is free of file I/O — the manifest already names the
        content.  A cold load reads the blob exactly once: verify and
        install from the same decoded arrays.
        """
        ref = self.resolve(spec)
        model = self.cache.get(ref.content_hash)
        if model is not None:
            self.hits += 1
            return model
        if ref.meta.get("dtypes"):
            check_serving_dtypes(ref.meta["dtypes"])  # refuse before any blob I/O
        meta, weights = self._read(ref)
        model = build_from_artifact(
            meta, weights, warmup=self.warmup, warmup_batch=self.warmup_batch
        )
        self.loads += 1
        self.evictions += self.cache.put(ref.content_hash, model)
        return model

    def verify(self, spec: Union[str, ArtifactRef]) -> bool:
        """Full integrity check of one artifact (decode + checksum +
        address); raises :class:`CheckpointIntegrityError` on any
        corruption."""
        self._read(self.resolve(spec))
        return True

    def stats(self) -> Dict[str, int]:
        return {
            "names": len(self.names()),
            "objects": len(self.backend.list_keys(f"{OBJECTS}/")),
            "publishes": self.publishes,
            "dedup_hits": self.dedup_hits,
            "loads": self.loads,
            "hits": self.hits,
            "evictions": self.evictions,
            "resident": len(self.cache),
        }
