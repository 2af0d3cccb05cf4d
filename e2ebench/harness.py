"""Shared machinery of the end-to-end benchmark.

* :class:`Workspace` -- a throwaway directory inside the checkout that
  holds every file a run creates (traces, artifact caches, precompute
  stores, run stores, job stores, a sandboxed ``$HOME``), so no state
  carries from one run, or one repetition, to the next.
* :class:`StateGuard` -- proves afterwards that the checkout's
  ``.repro/`` and ``~/.cache/repro`` gained no file.
* :class:`SpanRecorder` -- the in-memory span log of the traced run
  (name, start, end, parent, thread), with self-time rollups.
* :func:`run_child` -- runs one program process and returns its wall
  time and its own peak RSS (``wait4``, not the cumulative
  ``RUSAGE_CHILDREN`` maximum).
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

#: The checkout root (this file lives in ``<root>/e2ebench/``).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_work"
TRACE_DIR = ROOT / ".bench_traces"


class BenchError(Exception):
    """The benchmark cannot produce a result (missing program, bad setup)."""


def require_program() -> None:
    """Make ``repro`` importable from the checkout's sources, or fail."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"program sources not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


# -- hermetic state ------------------------------------------------------------


#: Program state whose default lives under the working directory
#: (``.repro/runs``, ``.repro/precomp``).  Left unset for every program
#: call, so a call that ignored its explicit directory would write to the
#: default, where :class:`StateGuard` looks.
DEFAULTED_ENV = ("REPRO_RUN_STORE", "REPRO_PRECOMP_DIR")


class Workspace:
    """Fresh per-run directories and the environment that points at them.

    ``REPRO_CACHE_DIR`` names a kernels-only directory: the compiled C
    kernels are built there once during set-up, while every program call
    gets its own artifact cache through ``--cache-dir`` / ``cache_dir=``.
    """

    def __init__(self) -> None:
        WORK_DIR.mkdir(exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_DIR))
        self._count = 0
        self._saved: Dict[str, Optional[str]] = {}
        self.env: Dict[str, str] = {}
        #: The user's artifact cache, resolved before ``$HOME`` moves.
        self.user_cache = Path.home() / ".cache" / "repro"
        self.home = self.fresh("home")
        self.kernels_root = self.fresh("kernels")
        self.set_env("PYTHONPATH", str(SRC))
        self.set_env("HOME", str(self.home))
        self.set_env("REPRO_CACHE_DIR", str(self.kernels_root))
        for name in DEFAULTED_ENV:
            self._save(name)
            os.environ.pop(name, None)

    def fresh(self, name: str) -> Path:
        """A new empty directory, never handed out before in this run."""
        self._count += 1
        path = self.dir / f"{self._count:04d}-{name}"
        path.mkdir()
        return path

    def _save(self, name: str) -> None:
        self._saved.setdefault(name, os.environ.get(name))

    def set_env(self, name: str, value: str) -> None:
        """Set ``name`` for this process and every child; undone by close."""
        self._save(name)
        self.env[name] = value
        os.environ[name] = value

    def use_precomp_dir(self, path: Path) -> None:
        """Point the in-process precompute store at ``path``, memo emptied.

        Worker processes forked from here inherit it; program processes
        started with :func:`run_child` do not.
        """
        from repro.simgpu.batch import clear_precomp_cache

        os.environ["REPRO_PRECOMP_DIR"] = str(path)
        clear_precomp_cache()

    def child_env(self) -> Dict[str, str]:
        env = dict(os.environ)
        env.update(self.env)
        for name in DEFAULTED_ENV:
            env.pop(name, None)
        return env

    def close(self) -> None:
        for name, value in self._saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value
        shutil.rmtree(self.dir, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass


def _listing(root: Path) -> Dict[str, Tuple[int, int]]:
    if not root.exists():
        return {}
    out = {}
    for path in root.rglob("*"):
        if path.is_file():
            stat = path.stat()
            out[str(path.relative_to(root))] = (stat.st_size, stat.st_mtime_ns)
    return out


class StateGuard:
    """Snapshot of the shared program state a run must not touch.

    Watched: the checkout's ``.repro/`` and the working directory's (the
    run-store and precompute defaults), the user's ``~/.cache/repro``
    (resolved before the workspace moved ``$HOME``) and the sandboxed
    one, and the kernels-only ``$REPRO_CACHE_DIR``, which is the artifact
    cache default and must hold nothing but ``kernels/``.
    """

    def __init__(self, workspace: Workspace) -> None:
        labels = {
            ROOT / ".repro": ".repro",
            Path.cwd() / ".repro": "./.repro",
            workspace.user_cache: "~/.cache/repro",
            workspace.home / ".cache" / "repro": "$HOME/.cache/repro",
        }
        self.watched: Dict[Path, str] = {}
        for path, label in labels.items():
            self.watched.setdefault(path.resolve(), label)
        self.kernels_root = workspace.kernels_root
        self.before = {path: _listing(path) for path in self.watched}

    def violations(self) -> List[str]:
        found = []
        for path, label in self.watched.items():
            before, after = self.before[path], _listing(path)
            for name in sorted(set(after) | set(before)):
                if after.get(name) != before.get(name):
                    found.append(f"{label}/{name} created or changed")
        for name in sorted(_listing(self.kernels_root)):
            if Path(name).parts[0] != "kernels":
                found.append(f"$REPRO_CACHE_DIR/{name} created outside kernels/")
        return found


def pin_kernels(workspace: Workspace) -> Tuple[str, float]:
    """Resolve the kernel backend once (compiling C kernels if needed).

    Returns the backend name and the seconds it took; the name is then
    exported as ``REPRO_KERNELS`` so every later process uses it.
    """
    from repro.simgpu import _kernels

    start = time.perf_counter()
    name = _kernels.backend().name
    elapsed = time.perf_counter() - start
    workspace.set_env(_kernels.KERNELS_ENV, name)
    return name, elapsed


# -- processes -------------------------------------------------------------


@dataclass
class ChildRun:
    wall_s: float
    returncode: int
    peak_rss_mb: float
    stdout: str
    stderr: str

    def failure(self, what: str) -> str:
        last = self.stderr.strip().splitlines()[-1:] or ["no stderr"]
        return f"{what} exited {self.returncode}: {last[0]}"


def run_child(
    argv: Sequence[str],
    workspace: Workspace,
    timeout_s: float = 150.0,
) -> ChildRun:
    """Run one process to completion; time it from start to exit."""
    out_dir = workspace.fresh("child")
    out_path, err_path = out_dir / "stdout.txt", out_dir / "stderr.txt"
    with open(out_path, "w", encoding="utf-8") as out, open(
        err_path, "w", encoding="utf-8"
    ) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            list(argv),
            stdout=out,
            stderr=err,
            env=workspace.child_env(),
            cwd=str(ROOT),
        )
        killer = threading.Timer(timeout_s, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildRun(
        wall_s=wall,
        returncode=proc.returncode,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        stdout=out_path.read_text(encoding="utf-8"),
        stderr=err_path.read_text(encoding="utf-8"),
    )


def repro_cli(*args: object) -> List[str]:
    return [sys.executable, "-m", "repro.cli", *(str(a) for a in args)]


def generate_trace(
    workspace: Workspace, path: Path, game: str, frames: int, seed: int, scale: float
) -> float:
    """Write a seeded synthetic trace with ``repro generate``; returns its seconds."""
    run = run_child(
        repro_cli(
            "generate", "--game", game, "--frames", frames,
            "--seed", seed, "--scale", scale, "-o", path,
        ),
        workspace,
    )
    if run.returncode != 0:
        raise BenchError(run.failure(f"repro generate --game {game}"))
    return run.wall_s


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def dir_bytes(paths: Sequence[Path]) -> int:
    total = 0
    for root in paths:
        for path in Path(root).rglob("*"):
            if path.is_file():
                total += path.stat().st_size
    return total


# -- statistics ---------------------------------------------------------------


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


#: A tail percentile is reported only with at least this many samples beyond it.
TAIL_SAMPLES = 10


def tail_latency(values: Sequence[float]) -> Tuple[float, str]:
    """The highest percentile up to p90 with ``TAIL_SAMPLES`` samples beyond it.

    With 100 samples or more that is the interpolated p90; with 20 to
    99 it is the sample that has ten beyond it; with fewer than 20 no
    percentile above the median has ten samples beyond it, so the median
    is reported.  The label names the percentile and the sample count.
    """
    n = len(values)
    ordered = sorted(values)
    if n >= 10 * TAIL_SAMPLES:
        value = statistics.quantiles(ordered, n=10, method="inclusive")[-1]
        return float(value), f"p90 of {n}"
    if n >= 2 * TAIL_SAMPLES:
        percentile = 100.0 * (n - TAIL_SAMPLES) / n
        return float(ordered[n - TAIL_SAMPLES - 1]), f"p{percentile:.0f} of {n}"
    return median(ordered), f"p50 of {n} (fewer than {2 * TAIL_SAMPLES} samples)"


# -- spans ------------------------------------------------------------------


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    thread: str

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Spans kept in memory, one parent stack per thread."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        stack = self._stack()
        with self._lock:
            self._next_id += 1
            span_id = self._next_id
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            record = Span(
                span_id, name, start, end, parent,
                threading.current_thread().name,
            )
            with self._lock:
                self.spans.append(record)

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    def self_times(self, threads: Optional[Sequence[str]] = None) -> Dict[str, float]:
        """Seconds per span name, minus the time its children cover."""
        spans = [
            s for s in self.spans if threads is None or s.thread in threads
        ]
        child_time: Dict[int, float] = {}
        for s in spans:
            if s.parent is not None:
                child_time[s.parent] = child_time.get(s.parent, 0.0) + s.duration
        out: Dict[str, float] = {}
        for s in spans:
            own = s.duration - child_time.get(s.span_id, 0.0)
            out[s.name] = out.get(s.name, 0.0) + own
        return out

    def total(self, name: str) -> float:
        return sum(s.duration for s in self.spans if s.name == name)

    def top_level_total(self, threads: Optional[Sequence[str]] = None) -> float:
        return sum(
            s.duration
            for s in self.spans
            if s.parent is None and (threads is None or s.thread in threads)
        )

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as stream:
            for s in sorted(self.spans, key=lambda s: s.start):
                stream.write(json.dumps(asdict(s)) + "\n")


# -- results --------------------------------------------------------------


@dataclass
class Context:
    """What every workload gets: its workspace, seed, budget and set-up."""

    workspace: Workspace
    seed: int
    seconds: float
    kernels: str
    compile_s: float


@dataclass
class Outcome:
    """A workload's metrics plus its operation counts and failures."""

    metrics: Dict[str, float]
    attempted: int
    failed: int
    problems: List[str] = field(default_factory=list)
    notes: Dict[str, object] = field(default_factory=dict)
    recorder: Optional[SpanRecorder] = None
