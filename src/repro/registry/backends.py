"""Pluggable storage backends for the artifact store.

The :class:`ArtifactStore` never touches the filesystem directly — every
blob and manifest goes through a :class:`RegistryBackend`, a small
key/value contract (string keys with ``/`` separators, byte values,
atomic writes) chosen so an S3/MinIO-style remote drops in without
changing the store: ``exists/read_bytes/write_bytes/list_keys`` map
1:1 onto HEAD/GET/PUT/LIST, and :meth:`~RegistryBackend.open_local`
is the one extra affordance NumPy needs — a real local path to ``np.load``
— which a remote backend satisfies by materializing the object into a
local blob cache (exactly what :class:`InMemoryBackend` demonstrates).

Two implementations ship today:

* :class:`LocalDirBackend` — a directory tree; every write is temp-file
  + ``os.replace`` so concurrent readers never observe a torn object;
* :class:`InMemoryBackend` — a dict, standing in for the remote shape
  (``open_local`` spools through a local cache directory); used by the
  tests and as the template for a real S3 backend.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from abc import ABC, abstractmethod
from pathlib import Path
from typing import Dict, List, Union


class RegistryBackend(ABC):
    """Key/value contract the artifact store runs on.

    Keys are relative POSIX-style paths (``objects/<hash>.npz``,
    ``manifests/<name>/000003.json``).  Implementations must make
    :meth:`write_bytes` and :meth:`put_file` atomic — a reader that
    races a writer sees the old value or the new value, never a torn
    one — because the store's crash-safety argument rests on it.
    """

    @abstractmethod
    def exists(self, key: str) -> bool:
        """Whether ``key`` holds a complete object."""

    @abstractmethod
    def read_bytes(self, key: str) -> bytes:
        """The object's bytes; raises ``FileNotFoundError`` if absent."""

    @abstractmethod
    def write_bytes(self, key: str, data: bytes) -> None:
        """Atomically (over)write ``key`` with ``data``."""

    @abstractmethod
    def put_file(self, key: str, src: Union[str, Path]) -> None:
        """Atomically install a finished local file as ``key`` (consumes
        ``src``).  The bulk-upload path — blobs are written locally first
        (atomic temp file), then installed/uploaded in one step."""

    @abstractmethod
    def list_keys(self, prefix: str = "") -> List[str]:
        """All keys under ``prefix``, sorted."""

    @abstractmethod
    def open_local(self, key: str) -> Path:
        """A local filesystem path holding the object's current bytes.

        Local backends return the object's own path; remote backends
        download into a blob cache and return the cached copy (content
        addressing makes the cache trivially coherent — a hash-named
        blob never changes).
        """


class LocalDirBackend(RegistryBackend):
    """Registry storage on a local directory tree.

    Every write lands as a temp file in the destination directory and is
    ``os.replace``d into place — atomic on POSIX — so a publisher crash
    mid-write leaves at most a stray temp file, never a torn object.
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _path(self, key: str) -> Path:
        path = (self.root / key).resolve()
        if self.root.resolve() not in path.parents and path != self.root.resolve():
            raise ValueError(f"key {key!r} escapes the registry root")
        return path

    def exists(self, key: str) -> bool:
        return self._path(key).is_file()

    def read_bytes(self, key: str) -> bytes:
        return self._path(key).read_bytes()

    def write_bytes(self, key: str, data: bytes) -> None:
        dest = self._path(key)
        dest.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=dest.parent, prefix=".tmp_reg_")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(data)
            os.replace(tmp, dest)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise

    def put_file(self, key: str, src: Union[str, Path]) -> None:
        dest = self._path(key)
        dest.parent.mkdir(parents=True, exist_ok=True)
        src = Path(src)
        try:
            os.replace(src, dest)  # atomic when src is on the same filesystem
        except OSError:
            fd, tmp = tempfile.mkstemp(dir=dest.parent, prefix=".tmp_reg_")
            os.close(fd)
            try:
                shutil.copyfile(src, tmp)
                os.replace(tmp, dest)
            except BaseException:
                if os.path.exists(tmp):
                    os.unlink(tmp)
                raise
            src.unlink(missing_ok=True)

    def list_keys(self, prefix: str = "") -> List[str]:
        base = self.root
        keys = []
        for path in base.rglob("*"):
            if not path.is_file() or path.name.startswith(".tmp_reg_"):
                continue
            key = path.relative_to(base).as_posix()
            if key.startswith(prefix):
                keys.append(key)
        return sorted(keys)

    def open_local(self, key: str) -> Path:
        path = self._path(key)
        if not path.is_file():
            raise FileNotFoundError(path)
        return path


class InMemoryBackend(RegistryBackend):
    """Dict-backed backend shaped like a remote object store.

    Objects live in memory (the stand-in for S3); :meth:`open_local`
    spools the requested object into a local blob-cache directory the
    way a remote backend would download it, so ``np.load`` gets a real
    path.  Used by the failure-path tests and as the template for an
    S3/MinIO backend: replace the dict with GET/PUT/LIST calls and keep
    the blob cache verbatim.
    """

    def __init__(self) -> None:
        self._objects: Dict[str, bytes] = {}
        self._cache_dir = Path(tempfile.mkdtemp(prefix="repro_registry_cache_"))
        self.downloads = 0  # blob-cache misses (what a remote would fetch)

    def exists(self, key: str) -> bool:
        return key in self._objects

    def read_bytes(self, key: str) -> bytes:
        try:
            return self._objects[key]
        except KeyError:
            raise FileNotFoundError(key) from None

    def write_bytes(self, key: str, data: bytes) -> None:
        self._objects[key] = bytes(data)  # dict assignment: atomic by construction
        cached = self._cache_dir / key.replace("/", "_")
        if cached.exists():
            cached.unlink()  # manifest repoint: invalidate the spooled copy

    def put_file(self, key: str, src: Union[str, Path]) -> None:
        src = Path(src)
        self.write_bytes(key, src.read_bytes())
        src.unlink(missing_ok=True)

    def list_keys(self, prefix: str = "") -> List[str]:
        return sorted(k for k in self._objects if k.startswith(prefix))

    def open_local(self, key: str) -> Path:
        if key not in self._objects:
            raise FileNotFoundError(key)
        cached = self._cache_dir / key.replace("/", "_")
        if not cached.exists():
            self.downloads += 1
            fd, tmp = tempfile.mkstemp(dir=self._cache_dir, prefix=".tmp_reg_")
            with os.fdopen(fd, "wb") as fh:
                fh.write(self._objects[key])
            os.replace(tmp, cached)
        return cached
