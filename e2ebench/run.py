"""End-to-end benchmark of the subsetting system: one workload per call.

Usage (from the checkout root)::

    python3 e2ebench/run.py --workload subset_cli --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` makes the separate traced run and prints the per-layer
metrics (spans are also written to ``.bench_traces/``).  The last
stdout line is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics`` (``{name: {value, unit}}``).  The exit code is 0 when
every output checked equal to its reference, 1 when the correctness
gate failed, and 2 when no result could be produced.
"""

from __future__ import annotations

import argparse
import importlib
import json
import signal
import sys
import traceback
from typing import Dict, Optional, Sequence, Tuple

from harness import (
    ROOT,
    TRACE_DIR,
    BenchError,
    Context,
    Outcome,
    StateGuard,
    Workspace,
    pin_kernels,
    require_program,
)

WORKLOADS = ("subset_cli", "service_mixed")


def declared_metrics(traced: bool) -> Dict[str, str]:
    """Metric name -> unit, from the benchmark's declaration file."""
    path = ROOT / "BENCHMARK.json"
    try:
        spec = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {path.name}: {exc}") from None
    group = spec["per_layer" if traced else "end_to_end"]
    return {entry["name"]: entry["unit"] for entry in group}


def run_workload(
    name: str, seed: int, seconds: float, traced: bool, tiny: bool = False
) -> Tuple[Outcome, Dict[str, str]]:
    """Run one workload hermetically; ``tiny`` selects the test-sized inputs."""
    require_program()
    units = declared_metrics(traced)
    module = importlib.import_module(name)
    workspace = Workspace()
    try:
        guard = StateGuard(workspace)
        kernels, compile_s = pin_kernels(workspace)
        ctx = Context(workspace, seed, seconds, kernels, compile_s)
        outcome = module.run(ctx, traced, module.TINY if tiny else module.FULL)
        outcome.notes["kernels"] = kernels
        outcome.problems.extend(guard.violations())
    finally:
        workspace.close()
    missing = sorted(set(units) - set(outcome.metrics))
    extra = sorted(set(outcome.metrics) - set(units))
    if missing or extra:
        raise BenchError(f"metric set mismatch: missing {missing}, undeclared {extra}")
    if outcome.recorder is not None:
        outcome.recorder.write_jsonl(TRACE_DIR / f"{name}-seed{seed}.jsonl")
    return outcome, units


def main(argv: Optional[Sequence[str]] = None, tiny: bool = False) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        outcome, units = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), tiny
        )
    except BenchError as exc:
        print(f"e2ebench: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 2
    for problem in outcome.problems:
        print(f"e2ebench: FAILED {problem}", file=sys.stderr)
    correct = not outcome.problems and outcome.failed == 0
    print(json.dumps({"notes": outcome.notes}, sort_keys=True, default=str))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": {
                    name: {"value": float(outcome.metrics[name]), "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    # A terminated run still stops its children and removes its work files.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.exit(main())
