"""Content-addressed artifact cache.

Simulation and clustering artifacts are keyed by
:func:`repro.runtime.keys.task_key` and persisted under a cache
directory, sharded by key prefix::

    <cache_dir>/ab/abcdef....pkl     # arbitrary python objects (pickle)
    <cache_dir>/ab/abcdef....npz     # dict-of-ndarray payloads (numpy)

Keys already encode every input plus the format version, so entries are
immutable: a key is either absent or holds the one true value, and
invalidation is simply "the key changed".  Writes are atomic
(temp file + ``os.replace``) so an interrupted sweep never leaves a
truncated entry behind — and if one appears anyway (disk fault, manual
tampering), :meth:`ArtifactCache.get` evicts it and reports a miss, so
the caller transparently recomputes.
"""

from __future__ import annotations

import os
import pickle
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, Optional, Union

import numpy as np

from repro.errors import ConfigError
from repro.obs.metrics import Metrics

#: Environment variable overriding the default cache location.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


class _Miss:
    """Sentinel distinguishing 'not cached' from a cached ``None``."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<CACHE_MISS>"


CACHE_MISS = _Miss()


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` or ``~/.cache/repro``."""
    override = os.environ.get(CACHE_DIR_ENV)
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro"


class NullCache:
    """The no-op cache: every lookup misses, every store is dropped.

    Used when caching is disabled (``--no-cache``, or a library caller
    that wants pure recomputation) so the engine never branches on
    "is there a cache".
    """

    def get(self, key: str) -> Any:
        return CACHE_MISS

    def put(self, key: str, value: Any) -> None:
        return None


class ArtifactCache:
    """Durable content-addressed store for runtime artifacts.

    ``metrics`` (bound by the runtime that owns the cache) receives
    ``cache_hits`` / ``cache_misses`` / ``cache_puts`` /
    ``cache_corrupt_evicted`` counts.
    """

    def __init__(
        self,
        cache_dir: Union[str, Path, None] = None,
        metrics: Optional[Metrics] = None,
    ) -> None:
        self.cache_dir = Path(cache_dir) if cache_dir is not None else default_cache_dir()
        self.metrics = metrics
        self.cache_dir.mkdir(parents=True, exist_ok=True)

    # -- internals ---------------------------------------------------------

    def _count(self, name: str) -> None:
        if self.metrics is not None:
            self.metrics.inc(name)

    def _paths(self, key: str) -> Dict[str, Path]:
        if not key or any(c not in "0123456789abcdef" for c in key):
            raise ConfigError(f"cache keys are lowercase hex digests, got {key!r}")
        shard = self.cache_dir / key[:2]
        return {"pkl": shard / f"{key}.pkl", "npz": shard / f"{key}.npz"}

    @staticmethod
    def _atomic_write(path: Path, data: bytes) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        handle, tmp_name = tempfile.mkstemp(
            dir=path.parent, prefix=f".{path.name}.", suffix=".tmp"
        )
        try:
            with os.fdopen(handle, "wb") as stream:
                stream.write(data)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    def _evict(self, path: Path) -> None:
        self._count("cache_corrupt_evicted")
        try:
            path.unlink()
        except OSError:
            pass

    # -- public API --------------------------------------------------------

    def get(self, key: str) -> Any:
        """The cached value for ``key``, or :data:`CACHE_MISS`.

        A corrupted entry (truncated pickle, mangled npz) is deleted and
        reported as a miss — recomputation heals the cache.  Lookup
        latency lands in the ``cache_lookup_s`` histogram.
        """
        start = time.perf_counter()
        try:
            return self._get(key)
        finally:
            if self.metrics is not None:
                self.metrics.observe(
                    "cache_lookup_s", time.perf_counter() - start
                )

    def _get(self, key: str) -> Any:
        paths = self._paths(key)
        npz_path = paths["npz"]
        if npz_path.exists():
            try:
                with np.load(npz_path) as archive:
                    value = {name: archive[name] for name in archive.files}
                self._count("cache_hits")
                return value
            except Exception:
                self._evict(npz_path)
        pkl_path = paths["pkl"]
        try:
            with open(pkl_path, "rb") as stream:
                value = pickle.load(stream)
        except FileNotFoundError:
            self._count("cache_misses")
            return CACHE_MISS
        except Exception:
            self._evict(pkl_path)
            self._count("cache_misses")
            return CACHE_MISS
        self._count("cache_hits")
        return value

    def put(self, key: str, value: Any) -> None:
        """Persist ``value`` under ``key`` (atomic; last writer wins).

        A ``dict`` whose values are all numpy arrays is stored as an NPZ
        archive (compact, language-neutral); everything else is pickled.
        """
        paths = self._paths(key)
        if (
            isinstance(value, dict)
            and value
            and all(isinstance(k, str) for k in value)
            and all(isinstance(v, np.ndarray) for v in value.values())
        ):
            import io

            buffer = io.BytesIO()
            np.savez_compressed(buffer, **value)
            self._atomic_write(paths["npz"], buffer.getvalue())
        else:
            data = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
            self._atomic_write(paths["pkl"], data)
        self._count("cache_puts")

    def __contains__(self, key: str) -> bool:
        paths = self._paths(key)
        return paths["pkl"].exists() or paths["npz"].exists()
