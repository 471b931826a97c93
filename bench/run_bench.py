"""efjsp benchmark: one seeded workload, measured as a closed loop.

Usage, from the root of a checkout:

    python3 bench/run_bench.py --workload vns-20x10 --seed 1 --seconds 20 --trace 0

One client runs one task at a time in this single process, with the
solver at ``threads=1``.  With ``--trace 0`` the run prints the
end-to-end metrics (set-up time, task wall time, front hypervolume, peak
memory); with ``--trace 1`` it prints the per-layer metrics of a traced
run instead, and writes the spans to ``bench/.out/``.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
See bench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "bench" / ".out"


def import_program():
    """Import efjsp from this checkout's sources and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import efjsp
    except ImportError as exc:
        raise SystemExit(f"error: cannot import efjsp from {src}: {exc}") from None
    if Path(efjsp.__file__).resolve().parent != src / "efjsp":
        raise SystemExit(f"error: efjsp was imported from {efjsp.__file__}, not from {src}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    import_program()
    sys.path.insert(0, str(ROOT / "bench"))
    import harness
    from workloads import WORKLOADS, Checks

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    w = WORKLOADS[args.workload]
    host = harness.host_info()
    lines = [f"host {json.dumps(host)}", f"workload {w.name} seed {args.seed}: {w.describe()}"]
    checks = Checks()
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        if args.trace:
            metrics = harness.run_traced(w, args.seed, Path(tmp), OUT_DIR, checks, lines, host)
        else:
            metrics = harness.run_untraced(w, args.seed, args.seconds, Path(tmp), checks, lines)

    fail_ratio = len(checks.failures) / checks.attempted
    lines.append(
        f"fail_ratio {fail_ratio:.6g} ({len(checks.failures)} failed of {checks.attempted} checks)"
    )
    lines.extend(f"FAILED: {f}" for f in checks.failures)
    for line in lines:
        print(line)
    if args.trace:
        for name, (value, unit) in metrics.items():
            print(f"  {name} {value:.6g} {unit}")
    result = {
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
