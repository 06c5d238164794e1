"""Content-keyed warm cache of built models.

The expensive part of serving a checkpoint is not the catalog lookup —
it is decoding the weight arrays, materializing the architecture, and
running the warm-up forward.  This cache keeps those built models
resident under an LRU policy, keyed by the artifact's **content hash**:
two aliases (``winner@3`` and ``canary@1``, or names in two stores
pointing at byte-identical weights) share one resident model and pay
one load between them.

Eviction never invalidates handed-out models: callers holding a model
reference keep a perfectly usable object (the registry's artifacts are
the source of truth — eviction loses nothing but the warm state), the
cache merely drops *its* reference so the next ``get`` reloads.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List


class WarmModelCache:
    """LRU of built models keyed by content hash.

    ``capacity`` bounds how many built models stay resident.  The cache
    is shareable: several :class:`~repro.registry.ArtifactStore`
    instances may pool one cache so aliases of the same bytes stay
    deduplicated process-wide.
    """

    def __init__(self, capacity: int = 2) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._models: "OrderedDict[str, object]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __contains__(self, key: str) -> bool:
        return key in self._models

    def __len__(self) -> int:
        return len(self._models)

    def keys(self) -> List[str]:
        """Resident content keys, least- to most-recently used."""
        return list(self._models)

    def get(self, key: str):
        """The resident model for ``key`` (marking it used), else None."""
        model = self._models.get(key)
        if model is None:
            self.misses += 1
            return None
        self.hits += 1
        self._models.move_to_end(key)
        return model

    def put(self, key: str, model) -> int:
        """Insert a freshly built model; returns how many were evicted."""
        self._models[key] = model
        self._models.move_to_end(key)
        evicted = 0
        while len(self._models) > self.capacity:
            self._models.popitem(last=False)
            evicted += 1
        self.evictions += evicted
        return evicted

    def clear(self) -> None:
        self._models.clear()

