"""Content-addressed on-disk result cache for farm tasks.

A cached entry is keyed by two hashes:

* the spec's :meth:`~repro.farm.spec.TaskSpec.content_hash` — any
  change to a param, the task kind, or a runner's registered version
  produces a different key (a *miss*, never a stale hit);
* the **code fingerprint** — a sha256 over the contents of every
  ``.py`` file in the installed ``repro`` package.  Editing any
  simulator source invalidates the whole cache generation, because a
  result is only reusable if the code that produced it is bit-for-bit
  the same.

Layout: ``<root>/<fingerprint[:16]>/<kind>/<spec_hash>.json``; each
entry stores the spec alongside the result so a cache directory is a
self-describing archive of completed experiments.  Entries are written
atomically (tmp + rename) so a crashed writer can never leave a
half-entry that later reads as a corrupt hit.

Nothing is cached unless a cache is given: a
:class:`~repro.farm.executor.FarmExecutor` built without one neither
reads nor writes here.  ``repro farm`` names one (``--cache-dir``, else
:func:`default_cache_dir`); ``repro validate``, ``scale`` and
``serve`` name one only with ``--cache-dir``.

Invalidation is explicit: ``--no-cache`` bypasses reads (but still
writes, warming the cache for the next run), ``ResultCache.clear()``
deletes the current generation's directory tree
(``<root>/<fingerprint[:16]>/``), and stale generations are simply
unreferenced directories a janitor may delete at leisure.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, Optional

from .spec import TaskSpec, canonical_json

__all__ = ["CacheStats", "ResultCache", "code_fingerprint",
           "default_cache_dir"]

_FINGERPRINT_CACHE: Dict[str, str] = {}


def default_cache_dir() -> Path:
    """``$REPRO_FARM_CACHE`` or ``~/.cache/repro-farm``."""
    override = os.environ.get("REPRO_FARM_CACHE")
    if override:
        return Path(override).expanduser()
    return Path("~/.cache/repro-farm").expanduser()


def code_fingerprint() -> str:
    """sha256 over every ``repro`` source file's path and contents.

    Computed once per process (the package cannot change under a
    running interpreter in any way the cache could safely track).
    """
    import repro
    package_dir = Path(repro.__file__).resolve().parent
    key = str(package_dir)
    cached = _FINGERPRINT_CACHE.get(key)
    if cached is not None:
        return cached
    digest = hashlib.sha256()
    for path in sorted(package_dir.rglob("*.py")):
        digest.update(str(path.relative_to(package_dir)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    fingerprint = digest.hexdigest()
    _FINGERPRINT_CACHE[key] = fingerprint
    return fingerprint


@dataclass
class CacheStats:
    """Hit/miss/store counters for one executor run."""

    hits: int = 0
    misses: int = 0
    stores: int = 0

    def to_dict(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses,
                "stores": self.stores}


@dataclass
class ResultCache:
    """Spec-hash + code-fingerprint addressed store of task results."""

    #: ``None`` means :func:`default_cache_dir`.
    root: Optional[Path] = None
    #: override for tests; ``None`` means the live code fingerprint.
    fingerprint: Optional[str] = None
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self) -> None:
        self.root = default_cache_dir() if self.root is None \
            else Path(self.root).expanduser()

    # -- keys ----------------------------------------------------------------
    def _generation_dir(self) -> Path:
        fingerprint = self.fingerprint or code_fingerprint()
        return self.root / fingerprint[:16]

    def entry_path(self, spec: TaskSpec) -> Path:
        return self._generation_dir() / spec.kind \
            / f"{spec.content_hash}.json"

    # -- read/write ----------------------------------------------------------
    def get(self, spec: TaskSpec) -> Optional[Dict[str, Any]]:
        """The stored entry for ``spec``, or ``None`` (a miss)."""
        path = self.entry_path(spec)
        try:
            entry = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            self.stats.misses += 1
            return None
        if entry.get("spec_hash") != spec.content_hash:
            # A hash collision inside one filename is impossible; this
            # guards against a hand-edited or truncated entry.
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return entry

    def put(self, spec: TaskSpec, result: Any,
            elapsed_s: float = 0.0) -> Path:
        """Atomically store one successful result."""
        path = self.entry_path(spec)
        path.parent.mkdir(parents=True, exist_ok=True)
        entry = {
            "spec_hash": spec.content_hash,
            "spec": spec.to_dict(),
            "result": result,
            "elapsed_s": elapsed_s,
        }
        payload = canonical_json(entry)
        handle = tempfile.NamedTemporaryFile(
            "w", dir=path.parent, prefix=".tmp-", suffix=".json",
            delete=False, encoding="utf-8")
        try:
            with handle:
                handle.write(payload)
            os.replace(handle.name, path)
        except BaseException:
            try:
                os.unlink(handle.name)
            except OSError:
                pass
            raise
        self.stats.stores += 1
        return path

    # -- maintenance ---------------------------------------------------------
    def entries(self) -> Iterator[Path]:
        """Every entry file in the current code generation."""
        generation = self._generation_dir()
        if generation.is_dir():
            yield from sorted(generation.rglob("*.json"))

    def __len__(self) -> int:
        return sum(1 for _ in self.entries())

    def clear(self) -> int:
        """Delete the current generation's directory tree; returns the
        number of entries it held."""
        removed = len(self)
        shutil.rmtree(self._generation_dir(), ignore_errors=True)
        return removed
