"""PERF001 fixture: whole-trace simulation inside per-config loops."""

from repro.simgpu.batch import simulate_trace_multi
from repro.simgpu.simulator import GpuSimulator


def sweep_loop(trace, configs):
    results = []
    for config in configs:
        results.append(GpuSimulator(config).simulate_trace(trace))  # expect: PERF001
    return results


def clock_sweep(trace, base_config, clocks_mhz):
    times = []
    for clock in clocks_mhz:
        config = base_config.with_core_clock(clock)
        (result,) = simulate_trace_multi(trace, [config])  # expect: PERF001
        times.append(result.total_time_ns)
    return times


def comprehension_sweep(trace, configs):
    return [GpuSimulator(c).simulate_trace(trace) for c in configs]  # expect: PERF001
