"""Measurement loops of the benchmark: set-up, timed tasks, traced passes."""

from __future__ import annotations

import gc
import json
import os
import platform
import resource
import statistics
import time
from pathlib import Path

import numpy
import yaml

from tracer import LAYER_UNITS, Tracer, deterministic_counts, high_percentile, layer_metrics
from workloads import box_hv, objective_box


def host_info() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "pyyaml": yaml.__version__,
        "libyaml": bool(getattr(yaml, "__with_libyaml__", False)),
        "loadavg_at_start": os.getloadavg()[0],
    }


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# Time the reference kernel takes on the 2-vCPU Xeon host the benchmark
# was built on, in its fast state (the 1st percentile of 15,000 runs).
REFERENCE_S = 0.9e-3


def _reference_kernel() -> int:
    """Fixed pure-Python work of the kind efjsp does (tuples, sorting with
    a key, dict updates), sharing no code with it."""
    rows = [(i * 7919 % 1000, i, i % 10) for i in range(300)]
    acc = 0
    for _ in range(10):
        rows.sort(key=lambda r: (r[2], r[0]))
        tally: dict[int, int] = {}
        for a, b, c in rows:
            tally[c] = tally.get(c, 0) + a - b
        acc += sum(tally.values())
        rows = [(a + 1, b, c) for a, b, c in rows]
    return acc


def reference_time() -> float:
    """Median of five timings of the reference kernel."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        _reference_kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class HostClock:
    """Times work in seconds at the reference host speed.

    The host's speed drifts: identical work runs up to 1.9x slower for
    stretches of seconds to minutes, and CPU time drifts with it.  The
    reference kernel is timed right before and right after the work, and
    the work's wall time is scaled by ``REFERENCE_S`` over their mean.
    The raw wall times are kept too.
    """

    def __init__(self) -> None:
        self.raw: list[float] = []

    def measure(self, fn, *args):
        """Runs ``fn(*args)``; returns (its result, normalised seconds)."""
        gc.collect()
        before = reference_time()
        t0 = time.perf_counter()
        result = fn(*args)
        wall = time.perf_counter() - t0
        after = reference_time()
        self.raw.append(wall)
        return result, wall * REFERENCE_S / ((before + after) / 2)


def timed_setups(w, seed: int, workdir: Path, clock: HostClock, times: list[float], checks=None):
    """``w.setup_reps`` timed set-ups; returns the state of the last one."""
    state = None
    for rep in range(w.setup_reps):
        state, t = clock.measure(w.setup, seed, workdir, checks if rep == 0 else None)
        times.append(t)
    return state


class TaskRunner:
    """Runs tasks, checks their outputs, and holds each seed's first result.

    The first output for a task index gets the full checks; a later task
    with the same index must reproduce its determinism key exactly.
    """

    def __init__(self, w, seed: int, state, checks) -> None:
        self.w = w
        self.seed = seed
        self.state = state
        self.checks = checks
        self.keys: dict[int, object] = {}
        self.fronts: dict[int, list] = {}
        self.clock = HostClock()

    def one(self, k: int, tracer=None) -> float:
        """Runs and checks task k; returns its normalised wall time."""
        out, wall = self.clock.measure(self.w.task, self.state, self.seed, k)
        if tracer is not None:
            tracer.phase = "check"
        first = k not in self.keys
        key, fronts = self.w.check(self.state, self.seed, k, out, self.checks, first)
        if tracer is not None:
            tracer.phase = "task"
        if first:
            self.keys[k] = key
            self.fronts[k] = fronts
        else:
            self.checks.expect(key == self.keys[k], f"task {k} did not repeat its first result")
        return wall

    def hv(self, box) -> float:
        values = [box_hv(f, box) for fronts in self.fronts.values() for f in fronts]
        return statistics.fmean(values) if values else 0.0


def run_untraced(w, seed: int, seconds: float, workdir: Path, checks, lines: list[str]) -> dict:
    setup_times: list[float] = []
    setup_clock = HostClock()
    start = time.perf_counter()
    state = timed_setups(w, seed, workdir, setup_clock, setup_times, checks)
    runner = TaskRunner(w, seed, state, checks)
    walls: list[float] = []
    cycles = 0
    # Whole cycles over the task seeds, so each seed weighs the same;
    # another cycle starts only if it is expected to end less than half a
    # cycle past the budget.  Set-up is timed again after every task, so
    # its samples spread over the run like the task samples do.
    while True:
        for k in range(w.solver_seeds):
            walls.append(runner.one(k))
            timed_setups(w, seed, workdir, setup_clock, setup_times)
        cycles += 1
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / cycles > seconds:
            break
    raw = runner.clock.raw
    quality = runner.hv(objective_box(state.inst))
    lines.append(f"instance: {state.shape}")
    lines.append(
        f"setup_s {statistics.median(setup_times):.4f} s (median of {len(setup_times)}; "
        f"raw wall median {statistics.median(setup_clock.raw):.4f} s)"
    )
    p90 = high_percentile(walls, 0.9)
    lines.append(
        f"wall_s {statistics.median(walls):.4f} s (median of {len(walls)} tasks, "
        f"{w.solver_seeds} task seeds x {cycles} cycles"
        + (f"; p90 {p90:.4f} s" if p90 is not None else "; too few for a p90")
        + f"; raw wall median {statistics.median(raw):.4f} s)"
    )
    lines.append(f"hv {quality:.6f} unitless (mean over {len(runner.fronts)} task seeds)")
    lines.append(f"peak_rss_mb {peak_rss_mb():.1f} MiB")
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "hv": (quality, "unitless"),
        "peak_rss_mb": (peak_rss_mb(), "MiB"),
    }


# The traced run covers at most this many task seeds, so that its three
# passes stay well inside the time a run may take.
TRACED_TASKS = 3


def run_traced(w, seed: int, workdir: Path, out_dir: Path, checks, lines: list[str], host: dict) -> dict:
    state = timed_setups(w, seed, workdir, HostClock(), [], checks)
    tasks = range(min(w.solver_seeds, TRACED_TASKS))
    untraced = TaskRunner(w, seed, state, checks)
    plain = [untraced.one(k) for k in tasks]

    passes: list[Tracer] = []
    traced: list[float] = []
    for _ in range(2):
        tr = Tracer()
        with tr:
            tr.phase = "setup"
            traced_state = w.setup(seed, workdir)
            tr.phase = "task"
            runner = TaskRunner(w, seed, traced_state, checks)
            traced.extend(runner.one(k, tr) for k in tasks)
        passes.append(tr)
        checks.expect(runner.keys == untraced.keys, "a traced pass changed the results")

    counts = [deterministic_counts(tr) for tr in passes]
    checks.expect(counts[0] == counts[1], f"deterministic counts differ between passes: {counts}")
    metrics, notes = layer_metrics(passes, len(tasks))
    # paired by task seed, since the seeds differ in work
    metrics["trace.overhead_s"] = statistics.median(
        t - plain[i % len(plain)] for i, t in enumerate(traced)
    )
    lines.append(f"instance: {state.shape}")
    lines.append(f"deterministic counts: {json.dumps(counts[0])}")
    lines.extend(notes)

    trace_path = out_dir / f"trace-{w.name}-seed{seed}.json"
    trace_path.write_text(
        json.dumps(
            {
                "workload": w.name,
                "seed": seed,
                "host": host,
                "metrics": metrics,
                "deterministic_counts": counts,
                "passes": [tr.dump() for tr in passes],
            }
        )
    )
    lines.append(f"spans written to {trace_path}")
    return {name: (metrics[name], unit) for name, unit in LAYER_UNITS.items()}


