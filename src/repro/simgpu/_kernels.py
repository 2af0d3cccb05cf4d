"""Compiled kernels for the precompute hot path, behind a dispatch layer.

``BENCH_sweep.json`` showed the config-vectorized sweep is dominated by
per-frame *precompute* — above all the Fenwick-tree LRU reuse-distance
pass (:mod:`repro.simgpu.batch`) and the per-draw texture/render-target
reductions of :mod:`repro.core.features`.  Both are inherently
sequential inner loops that numpy cannot vectorize, so this module
compiles them, keeping numpy as the only *hard* dependency:

- **numba** — ``@njit(cache=True)`` implementations
  (:mod:`repro.simgpu._kernels_numba`), used when numba is importable;
- **cext** — the same loops as a small C library compiled on demand
  with the host toolchain (``cc -O2 -shared``) into a content-addressed
  cache under ``<cache-dir>/kernels/`` and loaded via ``ctypes``; the
  build is attempted once per process and at most once per source
  digest per machine;
- **python** — the original pure-Python loops, bit-identical to the
  pre-kernel code and always available.

Backend selection is ``$REPRO_KERNELS`` (or the CLI ``--kernels``
flag): ``auto`` (default; numba, then cext, then python), or one of the
explicit names — requesting an unavailable backend is a
:class:`~repro.errors.ConfigError`, never a silent fallback.  The
resolved backend is reported in the run record's environment
fingerprint (:func:`kernel_info`) so run records stay comparable.

**Exactness contract.** Every kernel is defined so all three backends
produce *bit-identical* outputs (the property tests assert ``==``, not
approx):

- :func:`reuse_distances` works in int64 arithmetic and converts to
  float64 only on assignment — exact below 2**53 bytes of tracked
  texture;
- :func:`segment_sums` is *defined* as running-prefix differences
  (``S[end] - S[start]`` over one sequential left-to-right
  accumulation), which is what ``np.cumsum`` + subtraction, the C loop,
  and the numba loop all compute — identical bits for any input, and
  equal to a direct per-segment sum whenever the additions are exact
  (integer-valued byte sizes, dyadic bytes-per-pixel — true for every
  value the trace schema can produce).
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ConfigError
from repro.util.rng import stable_unit

#: Environment override for the kernel backend.
KERNELS_ENV = "REPRO_KERNELS"

#: Valid ``$REPRO_KERNELS`` / ``--kernels`` values.
KERNEL_BACKENDS = ("auto", "numba", "cext", "python")

#: Bump when a kernel's semantics change: participates in the compiled
#: library's content address, so stale ``.so`` files are never reloaded.
#: v2: added the ``repro_noise_units`` sha256-based draw-noise kernel.
KERNEL_ABI_VERSION = 2


class KernelBackend:
    """One resolved backend: a name plus the kernel entry points.

    ``reuse`` takes ``(dense_ids, sizes, offsets, num_ids)`` — texture
    ids already remapped to ``[0, num_ids)`` — and returns per-slot
    float64 reuse distances (``inf`` on first touch).  The segment-sum
    kernels take ``(values, offsets)`` and return per-segment totals
    under the running-prefix-difference contract above.  ``noise``
    takes ``(frame_index, n)`` and returns the per-position draw-noise
    units (``stable_unit("simgpu-noise", frame_index, i)``); backends
    without a compiled sha256 (numba) fall back to the python loop.
    """

    def __init__(
        self,
        name: str,
        reuse: Callable[[np.ndarray, np.ndarray, np.ndarray, int], np.ndarray],
        seg_f64: Callable[[np.ndarray, np.ndarray], np.ndarray],
        seg_i64: Callable[[np.ndarray, np.ndarray], np.ndarray],
        noise: Optional[Callable[[int, int], np.ndarray]] = None,
    ) -> None:
        self.name = name
        self._reuse = reuse
        self._seg_f64 = seg_f64
        self._seg_i64 = seg_i64
        self._noise = noise if noise is not None else _noise_python


# ---------------------------------------------------------------------------
# Pure-python kernels (the reference implementations)
# ---------------------------------------------------------------------------


def _reuse_python(
    dense_ids: np.ndarray,
    sizes: np.ndarray,
    offsets: np.ndarray,
    num_ids: int,
) -> np.ndarray:
    """Fenwick LRU stack-distance pass over flat per-slot arrays.

    The flat-array form of the slot loop that used to live in
    ``batch._texture_reuse_arrays`` (see DESIGN.md for why it equals
    walking the tracker's size-weighted LRU): position ``t`` of the
    Fenwick tree holds the byte size of the texture whose *latest*
    touch happened at timestamp ``t``, so a suffix sum over
    ``(prev, now]`` is the total size of distinct textures touched
    since a texture's previous touch.  Residency is checked for every
    slot of a draw *before* any of the draw's touches land.
    """
    num_slots = len(sizes)
    reuse = np.full(num_slots, np.inf)
    ids: List[int] = dense_ids.tolist()
    szs: List[int] = sizes.tolist()
    offs: List[int] = offsets.tolist()
    tree = [0] * (num_slots + 1)
    last_touch = [-1] * num_ids
    live_total = 0
    now = 0
    for d in range(len(offs) - 1):
        for s in range(offs[d], offs[d + 1]):
            prev = last_touch[ids[s]]
            if prev >= 0:
                total = 0
                i = prev + 1
                while i > 0:
                    total += tree[i]
                    i -= i & -i
                reuse[s] = szs[s] + (live_total - total)
        for s in range(offs[d], offs[d + 1]):
            tid = ids[s]
            size = szs[s]
            prev = last_touch[tid]
            if prev >= 0:
                i = prev + 1
                while i <= num_slots:
                    tree[i] -= size
                    i += i & -i
                live_total -= size
            i = now + 1
            while i <= num_slots:
                tree[i] += size
                i += i & -i
            live_total += size
            last_touch[tid] = now
            now += 1
    return reuse


def _seg_f64_python(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Per-segment totals as running-prefix differences (float64)."""
    cumulative = np.concatenate(([0.0], np.cumsum(values, dtype=np.float64)))
    return np.asarray(cumulative[offsets[1:]] - cumulative[offsets[:-1]])


def _seg_i64_python(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Per-segment totals as running-prefix differences (int64, exact)."""
    cumulative = np.concatenate(
        (np.zeros(1, dtype=np.int64), np.cumsum(values, dtype=np.int64))
    )
    return np.asarray(cumulative[offsets[1:]] - cumulative[offsets[:-1]])


def _noise_python(frame_index: int, n: int) -> np.ndarray:
    """The reference draw-noise loop: one sha256 per position."""
    return np.array(
        [stable_unit("simgpu-noise", frame_index, i) for i in range(n)]
    )


_PYTHON_BACKEND = KernelBackend(
    "python", _reuse_python, _seg_f64_python, _seg_i64_python, _noise_python
)


# ---------------------------------------------------------------------------
# C backend: compiled on demand with the host toolchain, loaded via ctypes
# ---------------------------------------------------------------------------

_C_SOURCE = r"""
#include <stdint.h>
#include <math.h>
#include <stdio.h>
#include <string.h>

static void fen_add(int64_t *tree, int64_t size, int64_t index, int64_t delta)
{
    for (int64_t i = index + 1; i <= size; i += i & (-i))
        tree[i] += delta;
}

static int64_t fen_prefix(const int64_t *tree, int64_t count)
{
    int64_t total = 0;
    for (int64_t i = count; i > 0; i -= i & (-i))
        total += tree[i];
    return total;
}

void repro_reuse_distances(
    const int64_t *dense_ids, const int64_t *sizes, const int64_t *offsets,
    int64_t num_draws, int64_t num_slots, int64_t num_ids,
    int64_t *tree, int64_t *last_touch, double *reuse)
{
    for (int64_t i = 0; i <= num_slots; i++) tree[i] = 0;
    for (int64_t i = 0; i < num_ids; i++) last_touch[i] = -1;
    for (int64_t s = 0; s < num_slots; s++) reuse[s] = INFINITY;
    int64_t live_total = 0;
    int64_t now = 0;
    for (int64_t d = 0; d < num_draws; d++) {
        for (int64_t s = offsets[d]; s < offsets[d + 1]; s++) {
            int64_t prev = last_touch[dense_ids[s]];
            if (prev >= 0)
                reuse[s] = (double)(sizes[s]
                    + (live_total - fen_prefix(tree, prev + 1)));
        }
        for (int64_t s = offsets[d]; s < offsets[d + 1]; s++) {
            int64_t tid = dense_ids[s];
            int64_t prev = last_touch[tid];
            if (prev >= 0) {
                fen_add(tree, num_slots, prev, -sizes[s]);
                live_total -= sizes[s];
            }
            fen_add(tree, num_slots, now, sizes[s]);
            live_total += sizes[s];
            last_touch[tid] = now;
            now++;
        }
    }
}

void repro_segment_sums_f64(
    const double *values, const int64_t *offsets, int64_t num_segments,
    double *out)
{
    double run = 0.0;
    int64_t i = 0;
    for (; i < offsets[0]; i++)
        run += values[i];
    for (int64_t d = 0; d < num_segments; d++) {
        double start = run;
        for (; i < offsets[d + 1]; i++)
            run += values[i];
        out[d] = run - start;
    }
}

void repro_segment_sums_i64(
    const int64_t *values, const int64_t *offsets, int64_t num_segments,
    int64_t *out)
{
    int64_t run = 0;
    int64_t i = 0;
    for (; i < offsets[0]; i++)
        run += values[i];
    for (int64_t d = 0; d < num_segments; d++) {
        int64_t start = run;
        for (; i < offsets[d + 1]; i++)
            run += values[i];
        out[d] = run - start;
    }
}

/* SHA-256 (FIPS 180-4), needed so the per-draw noise stream
 * stable_unit("simgpu-noise", frame, pos) can run compiled while
 * remaining bit-identical to hashlib: same digest, same first-8-bytes
 * big-endian integer, same mod / divide in double precision. */

static const uint32_t SHA_K[64] = {
    0x428a2f98u,0x71374491u,0xb5c0fbcfu,0xe9b5dba5u,
    0x3956c25bu,0x59f111f1u,0x923f82a4u,0xab1c5ed5u,
    0xd807aa98u,0x12835b01u,0x243185beu,0x550c7dc3u,
    0x72be5d74u,0x80deb1feu,0x9bdc06a7u,0xc19bf174u,
    0xe49b69c1u,0xefbe4786u,0x0fc19dc6u,0x240ca1ccu,
    0x2de92c6fu,0x4a7484aau,0x5cb0a9dcu,0x76f988dau,
    0x983e5152u,0xa831c66du,0xb00327c8u,0xbf597fc7u,
    0xc6e00bf3u,0xd5a79147u,0x06ca6351u,0x14292967u,
    0x27b70a85u,0x2e1b2138u,0x4d2c6dfcu,0x53380d13u,
    0x650a7354u,0x766a0abbu,0x81c2c92eu,0x92722c85u,
    0xa2bfe8a1u,0xa81a664bu,0xc24b8b70u,0xc76c51a3u,
    0xd192e819u,0xd6990624u,0xf40e3585u,0x106aa070u,
    0x19a4c116u,0x1e376c08u,0x2748774cu,0x34b0bcb5u,
    0x391c0cb3u,0x4ed8aa4au,0x5b9cca4fu,0x682e6ff3u,
    0x748f82eeu,0x78a5636fu,0x84c87814u,0x8cc70208u,
    0x90befffau,0xa4506cebu,0xbef9a3f7u,0xc67178f2u
};

#define ROTR32(x, n) (((x) >> (n)) | ((x) << (32 - (n))))

static void sha256_block(uint32_t state[8], const unsigned char block[64])
{
    uint32_t w[64];
    for (int t = 0; t < 16; t++)
        w[t] = ((uint32_t)block[4 * t] << 24)
             | ((uint32_t)block[4 * t + 1] << 16)
             | ((uint32_t)block[4 * t + 2] << 8)
             | (uint32_t)block[4 * t + 3];
    for (int t = 16; t < 64; t++) {
        uint32_t s0 = ROTR32(w[t - 15], 7) ^ ROTR32(w[t - 15], 18)
                    ^ (w[t - 15] >> 3);
        uint32_t s1 = ROTR32(w[t - 2], 17) ^ ROTR32(w[t - 2], 19)
                    ^ (w[t - 2] >> 10);
        w[t] = w[t - 16] + s0 + w[t - 7] + s1;
    }
    uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
    for (int t = 0; t < 64; t++) {
        uint32_t S1 = ROTR32(e, 6) ^ ROTR32(e, 11) ^ ROTR32(e, 25);
        uint32_t ch = (e & f) ^ ((~e) & g);
        uint32_t t1 = h + S1 + ch + SHA_K[t] + w[t];
        uint32_t S0 = ROTR32(a, 2) ^ ROTR32(a, 13) ^ ROTR32(a, 22);
        uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
        uint32_t t2 = S0 + maj;
        h = g; g = f; f = e; e = d + t1;
        d = c; c = b; b = a; a = t1 + t2;
    }
    state[0] += a; state[1] += b; state[2] += c; state[3] += d;
    state[4] += e; state[5] += f; state[6] += g; state[7] += h;
}

/* First 8 digest bytes as a big-endian unsigned 64-bit integer
 * (int.from_bytes(sha256(msg).digest()[:8], "big")). */
static uint64_t sha256_prefix64(const unsigned char *msg, uint64_t len)
{
    uint32_t state[8] = {
        0x6a09e667u, 0xbb67ae85u, 0x3c6ef372u, 0xa54ff53au,
        0x510e527fu, 0x9b05688cu, 0x1f83d9abu, 0x5be0cd19u
    };
    unsigned char block[64];
    uint64_t done = 0;
    while (len - done >= 64) {
        sha256_block(state, msg + done);
        done += 64;
    }
    uint64_t rem = len - done;
    memcpy(block, msg + done, rem);
    block[rem++] = 0x80;
    if (rem > 56) {
        memset(block + rem, 0, 64 - rem);
        sha256_block(state, block);
        rem = 0;
    }
    memset(block + rem, 0, 56 - rem);
    uint64_t bits = len * 8;
    for (int j = 0; j < 8; j++)
        block[56 + j] = (unsigned char)(bits >> (56 - 8 * j));
    sha256_block(state, block);
    return ((uint64_t)state[0] << 32) | (uint64_t)state[1];
}

/* out[i] = stable_unit("simgpu-noise", frame_index, i): the hashed
 * text is the python repr of the stringified component tuple, e.g.
 * ('simgpu-noise', '3', '17') -- plain ASCII, so utf-8 == bytes. */
void repro_noise_units(int64_t frame_index, int64_t n, double *out)
{
    const uint64_t modulus = 0x7fffffffffffffffULL; /* 2**63 - 1 */
    char text[96];
    /* The frame part is loop-invariant: format the prefix once and
     * append the position digits + closing quote/paren by hand. */
    int prefix = snprintf(text, sizeof text, "('simgpu-noise', '%lld', '",
                          (long long)frame_index);
    for (int64_t pos = 0; pos < n; pos++) {
        char digits[24];
        int nd = 0;
        uint64_t v = (uint64_t)pos;
        do {
            digits[nd++] = (char)('0' + (v % 10));
            v /= 10;
        } while (v);
        char *p = text + prefix;
        while (nd)
            *p++ = digits[--nd];
        *p++ = '\'';
        *p++ = ')';
        uint64_t h = sha256_prefix64((const unsigned char *)text,
                                     (uint64_t)(p - text)) % modulus;
        out[pos] = (double)h / (double)modulus;
    }
}
"""

_I64_P = ctypes.POINTER(ctypes.c_int64)
_F64_P = ctypes.POINTER(ctypes.c_double)


def _c_source_digest() -> str:
    payload = f"abi={KERNEL_ABI_VERSION}\n{_C_SOURCE}".encode("utf-8")
    return hashlib.sha256(payload).hexdigest()[:16]


def _find_compiler() -> Optional[str]:
    for name in ("cc", "gcc", "clang"):
        found = shutil.which(name)
        if found:
            return found
    return None


def _kernel_build_dir() -> Path:
    # Imported lazily: runtime.cache pulls in repro.obs, which the
    # kernels themselves never need at import time.
    from repro.runtime.cache import default_cache_dir

    return default_cache_dir() / "kernels"


def _compile_c_library() -> Path:
    """Compile (or reuse) the kernel library; returns the ``.so`` path.

    The library is content-addressed by source + ABI version, so a
    machine compiles each kernel revision exactly once; concurrent
    builders race benignly through the temp-file + ``os.replace``
    pattern (both produce identical bytes, last writer wins).
    """
    build_dir = _kernel_build_dir()
    so_path = build_dir / f"reprokern-{_c_source_digest()}.so"
    if so_path.exists():
        return so_path
    compiler = _find_compiler()
    if compiler is None:
        raise ConfigError("no C compiler (cc/gcc/clang) on PATH")
    build_dir.mkdir(parents=True, exist_ok=True)
    src_path = build_dir / f"reprokern-{_c_source_digest()}.c"
    if not src_path.exists():
        src_path.write_text(_C_SOURCE, encoding="utf-8")
    handle, tmp_name = tempfile.mkstemp(
        dir=build_dir, prefix=f".{so_path.name}.", suffix=".tmp"
    )
    os.close(handle)
    try:
        proc = subprocess.run(
            [compiler, "-O2", "-fPIC", "-shared", "-o", tmp_name, str(src_path)],
            capture_output=True,
            text=True,
            timeout=120,
            check=False,
        )
        if proc.returncode != 0:
            raise ConfigError(
                f"kernel compile failed ({compiler}): {proc.stderr.strip()[:500]}"
            )
        os.replace(tmp_name, so_path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return so_path


def _load_cext_backend() -> KernelBackend:
    lib = ctypes.CDLL(str(_compile_c_library()))
    lib.repro_reuse_distances.restype = None
    lib.repro_reuse_distances.argtypes = [
        _I64_P, _I64_P, _I64_P,
        ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,
        _I64_P, _I64_P, _F64_P,
    ]
    lib.repro_segment_sums_f64.restype = None
    lib.repro_segment_sums_f64.argtypes = [_F64_P, _I64_P, ctypes.c_int64, _F64_P]
    lib.repro_segment_sums_i64.restype = None
    lib.repro_segment_sums_i64.argtypes = [_I64_P, _I64_P, ctypes.c_int64, _I64_P]
    lib.repro_noise_units.restype = None
    lib.repro_noise_units.argtypes = [ctypes.c_int64, ctypes.c_int64, _F64_P]

    def i64p(array: np.ndarray) -> "ctypes._Pointer":
        return array.ctypes.data_as(_I64_P)

    def f64p(array: np.ndarray) -> "ctypes._Pointer":
        return array.ctypes.data_as(_F64_P)

    def reuse(
        dense_ids: np.ndarray, sizes: np.ndarray, offsets: np.ndarray, num_ids: int
    ) -> np.ndarray:
        num_slots = len(sizes)
        num_draws = len(offsets) - 1
        out = np.empty(num_slots, dtype=np.float64)
        tree = np.empty(num_slots + 1, dtype=np.int64)
        last_touch = np.empty(max(1, num_ids), dtype=np.int64)
        lib.repro_reuse_distances(
            i64p(dense_ids), i64p(sizes), i64p(offsets),
            num_draws, num_slots, num_ids,
            i64p(tree), i64p(last_touch), f64p(out),
        )
        return out

    def seg_f64(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
        out = np.empty(len(offsets) - 1, dtype=np.float64)
        lib.repro_segment_sums_f64(f64p(values), i64p(offsets), len(out), out.ctypes.data_as(_F64_P))
        return out

    def seg_i64(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
        out = np.empty(len(offsets) - 1, dtype=np.int64)
        lib.repro_segment_sums_i64(i64p(values), i64p(offsets), len(out), i64p(out))
        return out

    def noise(frame_index: int, n: int) -> np.ndarray:
        out = np.empty(n, dtype=np.float64)
        lib.repro_noise_units(frame_index, n, f64p(out))
        return out

    return KernelBackend("cext", reuse, seg_f64, seg_i64, noise)


def _load_numba_backend() -> KernelBackend:
    from repro.simgpu import _kernels_numba as nb

    # No noise kernel: hashlib is not nopython-compilable, so numba
    # keeps the python reference loop for the (memoized) noise stream.
    return KernelBackend(
        "numba", nb.reuse_distances, nb.segment_sums_f64, nb.segment_sums_i64
    )


# ---------------------------------------------------------------------------
# Backend resolution
# ---------------------------------------------------------------------------

#: Resolved backends by requested name (and failures, so an unavailable
#: backend is probed at most once per process).
_RESOLVED: Dict[str, KernelBackend] = {}
_FAILED: Dict[str, str] = {}

_LOADERS: Dict[str, Callable[[], KernelBackend]] = {
    "numba": _load_numba_backend,
    "cext": _load_cext_backend,
    "python": lambda: _PYTHON_BACKEND,
}


def requested_backend() -> str:
    """The requested backend name (``$REPRO_KERNELS``, default auto)."""
    value = os.environ.get(KERNELS_ENV, "auto").strip().lower()
    return value or "auto"


def _try_load(name: str) -> Optional[KernelBackend]:
    if name in _RESOLVED:
        return _RESOLVED[name]
    if name in _FAILED:
        return None
    try:
        loaded = _LOADERS[name]()
    except ConfigError as exc:
        _FAILED[name] = str(exc)
        return None
    except Exception as exc:  # ImportError, OSError, numba typing errors
        _FAILED[name] = f"{type(exc).__name__}: {exc}"
        return None
    _RESOLVED[name] = loaded
    return loaded


def backend() -> KernelBackend:
    """The active kernel backend, resolved lazily from ``$REPRO_KERNELS``.

    ``auto`` tries numba, then the C extension, then pure python; an
    *explicitly* requested backend that cannot load raises
    :class:`ConfigError` carrying the underlying failure.
    """
    name = requested_backend()
    if name == "auto":
        if "auto" in _RESOLVED:
            return _RESOLVED["auto"]
        for candidate in ("numba", "cext", "python"):
            loaded = _try_load(candidate)
            if loaded is not None:
                _RESOLVED["auto"] = loaded
                return loaded
        raise ConfigError("no kernel backend available")  # pragma: no cover
    if name not in _LOADERS:
        raise ConfigError(
            f"unknown kernel backend {name!r}; valid values: "
            f"{', '.join(KERNEL_BACKENDS)}"
        )
    loaded = _try_load(name)
    if loaded is None:
        raise ConfigError(
            f"kernel backend {name!r} is unavailable: {_FAILED.get(name)}"
        )
    return loaded


def set_backend(name: str) -> str:
    """Select the kernel backend process-wide (and for worker children).

    Validates ``name``, exports it via ``$REPRO_KERNELS`` (worker
    processes inherit the environment, so pool workers resolve the same
    backend), and eagerly resolves it so misconfiguration fails at the
    CLI boundary instead of mid-sweep.  Returns the resolved name.
    """
    cleaned = name.strip().lower()
    if cleaned not in KERNEL_BACKENDS:
        raise ConfigError(
            f"unknown kernel backend {name!r}; valid values: "
            f"{', '.join(KERNEL_BACKENDS)}"
        )
    os.environ[KERNELS_ENV] = cleaned
    return backend().name


def resolved_backend_name() -> Optional[str]:
    """The active backend's name if already resolved, else ``None``.

    Reporting surfaces (the environment fingerprint) use this so
    that *recording* a run never forces a compile/import as a side
    effect: simulating commands resolve the backend while simulating,
    and non-simulating commands honestly report ``None``.
    """
    name = requested_backend()
    resolved = _RESOLVED.get(name)
    return resolved.name if resolved is not None else None


def kernel_info(resolve: bool = False) -> Dict[str, Optional[str]]:
    """Requested + resolved backend names, for run records and benches."""
    if resolve:
        backend()
    return {"requested": requested_backend(), "backend": resolved_backend_name()}


def _reset_backend_cache() -> None:
    """Forget resolved/failed backends (tests poking at availability)."""
    _RESOLVED.clear()
    _FAILED.clear()


# ---------------------------------------------------------------------------
# Public kernel entry points
# ---------------------------------------------------------------------------


def reuse_distances(
    tex_ids: np.ndarray, sizes: np.ndarray, offsets: np.ndarray
) -> np.ndarray:
    """Size-weighted LRU stack distances for flat per-slot texture arrays.

    ``tex_ids``/``sizes`` hold one entry per bound-texture slot in draw
    order, ``offsets`` the ``[offsets[d], offsets[d+1])`` slot segment
    of draw ``d``.  Returns float64 distances (``inf`` on first touch);
    a texture is resident in an LRU of capacity ``C`` exactly when its
    distance is ``<= C``.
    """
    num_slots = int(tex_ids.shape[0])
    if num_slots == 0:
        return np.full(0, np.inf)
    uniques, inverse = np.unique(tex_ids, return_inverse=True)
    dense = np.ascontiguousarray(inverse, dtype=np.int64)
    sizes = np.ascontiguousarray(sizes, dtype=np.int64)
    offsets = np.ascontiguousarray(offsets, dtype=np.int64)
    return backend()._reuse(dense, sizes, offsets, int(len(uniques)))


def segment_sums(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Float64 per-segment totals (running-prefix-difference contract)."""
    values = np.ascontiguousarray(values, dtype=np.float64)
    offsets = np.ascontiguousarray(offsets, dtype=np.int64)
    if len(values) == 0:
        return np.zeros(len(offsets) - 1, dtype=np.float64)
    return backend()._seg_f64(values, offsets)


def segment_sums_i64(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Int64 per-segment totals (exact integer arithmetic)."""
    values = np.ascontiguousarray(values, dtype=np.int64)
    offsets = np.ascontiguousarray(offsets, dtype=np.int64)
    if len(values) == 0:
        return np.zeros(len(offsets) - 1, dtype=np.int64)
    return backend()._seg_i64(values, offsets)


def noise_units(frame_index: int, n: int) -> np.ndarray:
    """The per-draw noise stream of one frame, as a float64 array.

    ``out[i] == stable_unit("simgpu-noise", frame_index, i)`` exactly:
    the compiled backend reproduces hashlib's sha256 and the identical
    integer-to-double conversions, so the bits match the python loop.
    """
    if n <= 0:
        return np.zeros(0)
    return backend()._noise(int(frame_index), int(n))


__all__: Tuple[str, ...] = (
    "KERNELS_ENV",
    "KERNEL_BACKENDS",
    "KernelBackend",
    "backend",
    "kernel_info",
    "noise_units",
    "requested_backend",
    "resolved_backend_name",
    "reuse_distances",
    "segment_sums",
    "segment_sums_i64",
    "set_backend",
)
