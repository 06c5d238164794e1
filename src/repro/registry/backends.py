"""Pluggable storage backends for the artifact store.

The :class:`ArtifactStore` never touches the filesystem directly — every
blob and manifest goes through a :class:`RegistryBackend`, a small
key/value contract (string keys with ``/`` separators, byte values,
atomic writes) chosen so an S3/MinIO-style remote drops in without
changing the store: ``exists/read_bytes/write_bytes/list_keys`` map
1:1 onto HEAD/GET/PUT/LIST, ``create_bytes`` onto a conditional PUT
(``If-None-Match: *``), ``list_dir`` onto a LIST with a ``/``
delimiter, and :meth:`~RegistryBackend.open_local`
is the one extra affordance NumPy needs — a real local path to ``np.load``
— which a remote backend satisfies by materializing the object into a
local blob cache (exactly what :class:`InMemoryBackend` demonstrates).

Two implementations ship today:

* :class:`LocalDirBackend` — a directory tree; every write is one temp
  file beside its key + ``os.replace`` (``os.link`` for a create), so
  readers never see a torn object;
* :class:`InMemoryBackend` — a dict, standing in for the remote shape
  (``open_local`` spools through a local cache directory); used by the
  tests and as the template for a real S3 backend.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import weakref
from abc import ABC, abstractmethod
from pathlib import Path
from stat import S_ISLNK, S_ISREG
from typing import Dict, List, Optional, Tuple, Union


class RegistryBackend(ABC):
    """Key/value contract the artifact store runs on.

    Keys are relative POSIX-style paths (``objects/<hash>.npz``,
    ``manifests/<name>/000003.json``).  Implementations must make
    :meth:`write_bytes` atomic — a reader that races a writer sees the
    old value or the new value, never a torn one — because the store's
    crash-safety argument rests on it.
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
    def create_bytes(self, key: str, data: bytes) -> bool:
        """Atomically write ``key`` with ``data`` only if no object holds
        it yet; whether this call created it.  Of two racing creates of
        one key exactly one wins, and the loser changes nothing."""

    @abstractmethod
    def list_keys(self, prefix: str = "") -> List[str]:
        """All keys under ``prefix``, sorted."""

    @abstractmethod
    def list_dir(self, key: str) -> List[str]:
        """The names one level under the directory ``key`` (``""`` is the
        root): its objects' and its sub-directories' last components,
        sorted.  As in an object store, a sub-directory is there only
        while it holds an object."""

    @abstractmethod
    def open_local(self, key: str) -> Path:
        """A local filesystem path holding the object's current bytes.

        Local backends return the object's own path; remote backends
        download into a blob cache and return the cached copy (content
        addressing makes the cache trivially coherent — a hash-named
        blob never changes).
        """


def _lstat(path: str) -> Optional[os.stat_result]:
    try:
        return os.lstat(path)
    except OSError:  # missing, or below a file
        return None


class LocalDirBackend(RegistryBackend):
    """Registry storage on a local directory tree.

    Every write lands as a temp file in the destination directory and is
    ``os.replace``d into place (a create ``os.link``s it, which fails if
    the key exists) — atomic on POSIX — so a publisher crash mid-write
    leaves at most a stray temp file, never a torn object.

    A key is checked by walking its own components below the root, one
    ``os.lstat`` each; only a key with a ``..`` or a symlink in it is
    resolved in full and must land inside the root.
    """

    def __init__(self, root: Union[str, Path]) -> None:
        Path(root).mkdir(parents=True, exist_ok=True)
        # Resolved once: a relative root keeps naming the same directory
        # after a chdir, and a key access walks only the key.
        self.root = Path(root).resolve()
        self._root = str(self.root)

    def _path(self, key: str) -> Tuple[str, Optional[os.stat_result]]:
        """The key's path, and the ``lstat`` of what is there (``None``
        if nothing).  The walk stops at the first missing component:
        nothing below it can be a symlink."""
        if key.startswith("/"):  # the root does not prefix an absolute key
            return self._resolve(key)
        path, st = self._root.rstrip("/"), None
        parts = key.split("/")
        for i, part in enumerate(parts):
            if part in ("", "."):
                continue
            if part == "..":
                return self._resolve(key)
            path = f"{path}/{part}"
            st = _lstat(path)
            if st is None:
                rest = [p for p in parts[i + 1:] if p not in ("", ".")]
                if ".." in rest:
                    return self._resolve(key)
                return "/".join([path, *rest]), None
            if S_ISLNK(st.st_mode):
                return self._resolve(key)
        if st is None:  # no component: the key names the root
            return self._root, _lstat(self._root)
        return path, st

    def _resolve(self, key: str) -> Tuple[str, Optional[os.stat_result]]:
        """The fallback for a key with a ``..``, a symlink or a leading
        ``/``: resolved in full, it must land inside the root."""
        path = (self.root / key).resolve()  # follows symlinks, collapses ".."
        if self.root not in path.parents and path != self.root:
            raise ValueError(f"key {key!r} escapes the registry root")
        return str(path), _lstat(str(path))  # no symlink is left in it

    def exists(self, key: str) -> bool:
        st = self._path(key)[1]
        return st is not None and S_ISREG(st.st_mode)

    def read_bytes(self, key: str) -> bytes:
        with open(self._path(key)[0], "rb") as fh:
            return fh.read()

    @staticmethod
    def _install(dest: str, data: bytes, exclusive: bool) -> None:
        """Write ``data`` to a temp file beside ``dest``, then
        ``os.replace`` it there (``os.link`` if ``exclusive``); the temp
        file never outlives the call unless the replace moved it."""
        parent = os.path.dirname(dest)
        try:
            fd, tmp = tempfile.mkstemp(dir=parent, prefix=".tmp_reg_")
        except FileNotFoundError:  # a new directory: only its first write pays
            os.makedirs(parent, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=parent, prefix=".tmp_reg_")
        moved = False
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(data)
            if exclusive:
                os.link(tmp, dest)  # EEXIST if taken
            else:
                os.replace(tmp, dest)
                moved = True
        finally:
            if not moved:
                os.unlink(tmp)

    def write_bytes(self, key: str, data: bytes) -> None:
        self._install(self._path(key)[0], data, exclusive=False)

    def create_bytes(self, key: str, data: bytes) -> bool:
        try:
            self._install(self._path(key)[0], data, exclusive=True)
        except FileExistsError:
            return False
        return True

    def list_keys(self, prefix: str = "") -> List[str]:
        # Walk only the directory the prefix names or ends in, and name
        # each key by that directory, not by where a symlink led the walk.
        keys = []
        base = prefix.rpartition("/")[0]
        top = self._path(base)[0]
        for dirpath, _, files in os.walk(top):
            rel = "/".join(p for p in (base, dirpath[len(top) + 1:]) if p)
            for name in files:
                key = f"{rel}/{name}" if rel else name
                if key.startswith(prefix) and not name.startswith(".tmp_reg_"):
                    keys.append(key)
        return sorted(keys)

    def list_dir(self, key: str) -> List[str]:
        try:
            with os.scandir(self._path(key)[0]) as entries:
                return sorted(e.name for e in entries if not e.name.startswith(".tmp_reg_")
                              and (not e.is_symlink() or self._follows(e.path))
                              and (not e.is_dir() or self._holds_any(e.path)))
        except FileNotFoundError:
            return []

    def _follows(self, link: str) -> bool:
        """Whether the symlink at ``link`` leads, as every access through
        it is resolved, to something inside the root."""
        try:
            return self._resolve(link)[1] is not None
        except ValueError:
            return False

    @staticmethod
    def _holds_any(path: str) -> bool:
        """Whether a directory holds anything but temp files: one that a
        killed first write left empty is no directory of keys.  Stops at
        the first entry that is not a temp file."""
        with os.scandir(path) as entries:
            return any(not e.name.startswith(".tmp_reg_") for e in entries)

    def open_local(self, key: str) -> Path:
        path, st = self._path(key)
        if st is None or not S_ISREG(st.st_mode):
            raise FileNotFoundError(path)
        return Path(path)


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
        # The blob cache is the backend's own: it goes when the backend is collected.
        weakref.finalize(self, shutil.rmtree, self._cache_dir, ignore_errors=True)
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

    def create_bytes(self, key: str, data: bytes) -> bool:
        # setdefault is the dict's atomic check-and-set; a fresh object
        # tells whose value stuck.
        blob = bytes(memoryview(data))
        return self._objects.setdefault(key, blob) is blob

    def list_keys(self, prefix: str = "") -> List[str]:
        return sorted(k for k in self._objects if k.startswith(prefix))

    def list_dir(self, key: str) -> List[str]:
        base = f"{key}/" if key else ""
        return sorted({k[len(base):].split("/", 1)[0] for k in self._objects if k.startswith(base)})

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
