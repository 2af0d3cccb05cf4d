"""Content-addressed cache keys for runtime artifacts.

A cached result is only trustworthy if its key pins *everything* the
computation depends on:

- the **trace content** (a SHA-256 over the canonical binary
  serialization, so two identically-generated traces share a digest and
  any draw/shader/resource change produces a new one);
- the **GPU configuration** (every model field; the ``name`` label is
  deliberately excluded — two configs with identical parameters simulate
  identically, so e.g. DVFS points renamed between runs still hit);
- the **algorithm parameters** (clustering method, radius, seed, ...);
- the **format version** (:data:`CACHE_FORMAT_VERSION`), bumped whenever
  the simulator, feature extractor, or artifact layout changes meaning.

All digests are SHA-256 over canonical text/bytes, so keys are stable
across processes, platforms, and Python versions (``hash()`` is not).
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json
import weakref
from typing import Dict, Mapping, Optional, Tuple

from repro.gfx.trace import Trace
from repro.gfx.tracebin import write_trace_binary
from repro.simgpu.config import GpuConfig

#: Bump on any change to the simulator, feature extractor, task payloads,
#: or on-disk artifact encoding.  Old entries become unreachable (never
#: silently reused) because the version participates in every key.
#: v2: BatchFrameOutput grew the optional ``stage_cycles`` field.
#: v3: feature extraction standardized on ``np.log1p`` (1 ULP shift vs
#: ``math.log1p`` on some inputs) when the matrix path was vectorized.
CACHE_FORMAT_VERSION = 3

#: Introspection hook for the ``repro.checks`` cache-key-completeness
#: rules (KEY003): the exact fields the :func:`task_key` record carries.
#: The checker cross-checks this tuple against the literal ``record``
#: dict in :func:`task_key`, so the set of key inputs can only change in
#: a diff that touches this declaration.
KEY_RECORD_FIELDS: Tuple[str, ...] = (
    "kind",
    "version",
    "trace",
    "config",
    "params",
    "extra",
)

#: Introspection hook for the cache-key-completeness rules (KEY001): how
#: each field of :class:`repro.runtime.tasks.Task` participates in cache
#: keys — or why it deliberately does not.  Adding a ``Task`` field
#: without a row here is a CI failure: every new task input must state
#: how the cache sees it.
TASK_FIELD_KEYING: Mapping[str, str] = {
    "task_id": "label only: names the result slot, never changes the value",
    "kind": "keyed directly via the 'kind' record field",
    "payload": (
        "keyed via the trace/config/params/extra digests at the key-"
        "building call sites (Runtime.simulate_frames_many / "
        "cluster_frames pass every payload component to task_key)"
    ),
    "seed": (
        "derived from (run seed, kind, frame range) by spawn_worker_seed; "
        "the run seed participates via params at the call sites"
    ),
}

# Digests are memoized per live Trace object: traces are immutable, and
# paper-scale serialization is the expensive part of key construction.
_TRACE_DIGEST_MEMO: Dict[int, Tuple["weakref.ReferenceType[Trace]", str]] = {}


def _sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def trace_digest(trace: Trace) -> str:
    """Content digest of a trace (canonical binary serialization).

    Two traces constructed independently but with identical content
    (same generator, same seed) share a digest; trace ``metadata`` is not
    serialized and therefore does not participate.
    """
    memo = _TRACE_DIGEST_MEMO.get(id(trace))
    if memo is not None:
        ref, digest = memo
        if ref() is trace:
            return digest
    buffer = io.BytesIO()
    write_trace_binary(trace, buffer)
    digest = _sha256_hex(buffer.getvalue())
    _TRACE_DIGEST_MEMO[id(trace)] = (weakref.ref(trace), digest)
    return digest


def config_digest(config: GpuConfig) -> str:
    """Digest of every model-relevant :class:`GpuConfig` field.

    The ``name`` label is excluded: it never influences simulated
    numbers, and including it would defeat caching across renamed but
    numerically identical configs (DVFS points, preset copies).
    """
    fields = dataclasses.asdict(config)
    fields.pop("name", None)
    canonical = json.dumps(fields, sort_keys=True)
    return _sha256_hex(canonical.encode("utf-8"))


def params_digest(params: Optional[Mapping[str, object]]) -> str:
    """Digest of an algorithm-parameter mapping (order-insensitive).

    Values must have a stable ``repr`` (numbers, strings, bools, None,
    and tuples/lists of those) — the same constraint
    :func:`repro.util.rng.derive_seed` places on seed components.
    """
    items = sorted((params or {}).items())
    canonical = repr([(str(k), repr(v)) for k, v in items])
    return _sha256_hex(canonical.encode("utf-8"))


def task_key(
    kind: str,
    *,
    trace: Optional[Trace] = None,
    config: Optional[GpuConfig] = None,
    params: Optional[Mapping[str, object]] = None,
    extra: Tuple[object, ...] = (),
) -> str:
    """The content-addressed key for one cacheable artifact.

    ``kind`` names the computation (e.g. ``"simulate_frames"``); the
    digests of its inputs and :data:`CACHE_FORMAT_VERSION` complete the
    recipe documented in ``docs/RUNTIME.md``.
    """
    record = {
        "kind": kind,
        "version": CACHE_FORMAT_VERSION,
        "trace": trace_digest(trace) if trace is not None else None,
        "config": config_digest(config) if config is not None else None,
        "params": params_digest(params) if params is not None else None,
        "extra": [repr(item) for item in extra],
    }
    canonical = json.dumps(record, sort_keys=True)
    return _sha256_hex(canonical.encode("utf-8"))
