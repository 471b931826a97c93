"""Command line interface.

Subcommands:

* ``generate`` turns base benchmark files into extended instances,
* ``solve`` runs the solver on an instance and writes a result document,
* ``metrics`` scores result documents against their pooled reference,
* ``gantt`` renders one archived solution as a data document plus SVG.

Result and report files use the same YAML conventions as instances, so
two runs with the same seed and flags produce byte-identical output
apart from the wall-time field.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import time
from dataclasses import asdict, fields, replace
from pathlib import Path

import yaml

from . import __version__
from .benchmark import (
    InstanceFormatError,
    ParseError,
    dump_document,
    extend_instance,
    load_document,
    parse_base,
    read_instance,
    write_instance,
)
from .encoding import Chromosome, decode, evaluate
from .energy import total_energy
from .metrics import c_metric, hv, igd, normalize
from .model import ScheduledRow, ScheduleTable, validate_schedule
from .optimizer import AlgorithmConfig, dominates, run

RESULT_SCHEMA = 1
HV_REFERENCE = (1.1, 1.1)

_PALETTE = (
    "#4e79a7", "#f28e2b", "#e15759", "#76b7b2", "#59a14f",
    "#edc948", "#b07aa1", "#ff9da7", "#9c755f", "#bab0ac",
)


def _default_threads() -> int:
    value = os.environ.get("EFJSP_THREADS", "1")
    try:
        return max(1, int(value))
    except ValueError:
        return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="efjsp",
        description="Energy-aware flexible job shop scheduling toolkit",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="extend base benchmark files")
    gen.add_argument("bases", nargs="+", help="base benchmark files")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument(
        "--replicas", type=int, default=1,
        help="seeded variants per base file (default 1)",
    )
    gen.add_argument(
        "--out-dir", default=".", help="directory for the generated instances"
    )
    gen.set_defaults(func=cmd_generate)

    solve = sub.add_parser("solve", help="run the solver on an instance")
    solve.add_argument("instance", help="instance file")
    solve.add_argument("--config", help="YAML file with solver settings")
    solve.add_argument("--seed", type=int, default=None)
    solve.add_argument("--iters", type=int, default=None)
    solve.add_argument("--pop", type=int, default=None)
    solve.add_argument("--threads", type=int, default=None)
    solve.add_argument(
        "--ablate", action="append", choices=("nhi", "nde", "ncp"), default=[],
        help="disable a component: nhi=hybrid init, nde=DE exemplar, ncp=local search",
    )
    solve.add_argument("--out", required=True, help="result file to write")
    solve.add_argument(
        "--progress", action="store_true", help="print one line per iteration"
    )
    solve.set_defaults(func=cmd_solve)

    met = sub.add_parser("metrics", help="score result files")
    met.add_argument("results", nargs="+", help="result files")
    met.add_argument("--out", help="report file (default: stdout)")
    met.set_defaults(func=cmd_metrics)

    gantt = sub.add_parser("gantt", help="render one archived solution")
    gantt.add_argument("result", help="result file")
    gantt.add_argument("--solution", type=int, default=0, help="archive index")
    gantt.add_argument("--out", required=True, help="output prefix")
    gantt.set_defaults(func=cmd_gantt)
    return parser


def cmd_generate(args: argparse.Namespace) -> int:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.replicas < 1:
        print("error: --replicas must be at least 1", file=sys.stderr)
        return 1
    for base_path in args.bases:
        text = Path(base_path).read_text()
        base = parse_base(text)
        stem = Path(base_path).stem
        for k in range(1, args.replicas + 1):
            inst = extend_instance(base, seed=args.seed + k - 1)
            name = f"{stem}-{k:02d}.yaml" if args.replicas > 1 else f"{stem}.yaml"
            target = out_dir / name
            target.write_text(write_instance(inst))
            print(target)
    return 0


def _config_from_args(args: argparse.Namespace) -> AlgorithmConfig:
    cfg = AlgorithmConfig()
    if args.config:
        doc = load_document(Path(args.config).read_text()) or {}
        if not isinstance(doc, dict):
            raise ValueError(f"{args.config}: config must be a mapping of solver settings")
        defaults = {f.name: f.default for f in fields(AlgorithmConfig)}
        unknown = set(doc) - set(defaults)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        for key, value in doc.items():
            expected = type(defaults[key])
            allowed = (int, float) if expected is float else expected
            if isinstance(value, bool) != (expected is bool) or not isinstance(value, allowed):
                raise ValueError(
                    f"{args.config}: {key} must be of type {expected.__name__}, got {value!r}"
                )
        cfg = replace(cfg, **doc)
    if args.pop is not None:
        cfg = replace(cfg, population=args.pop)
    if args.iters is not None:
        cfg = replace(cfg, max_iter=args.iters)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    threads = args.threads if args.threads is not None else _default_threads()
    cfg = replace(cfg, threads=threads)
    for flag in args.ablate:
        cfg = replace(
            cfg,
            **{
                "nhi": {"disable_hybrid_init": True},
                "nde": {"disable_de": True},
                "ncp": {"disable_vns": True},
            }[flag],
        )
    return cfg


def cmd_solve(args: argparse.Namespace) -> int:
    text = Path(args.instance).read_text()
    inst = read_instance(text)
    cfg = _config_from_args(args)
    started = time.perf_counter()
    result = run(inst, cfg)
    wall = time.perf_counter() - started

    if args.progress:
        for stat in result.trace:
            print(
                f"iter {stat.iteration}: best_cmax={stat.best_cmax} "
                f"best_tec={stat.best_tec:.4f} archive={len(stat.archive_points)}"
            )

    entries = sorted(result.archive.entries, key=lambda e: (e.cmax, e.tec))
    archive_docs = []
    for entry in entries:
        sched = decode(inst, entry.chromosome)
        breakdown = total_energy(inst, sched)
        archive_docs.append(
            {
                "cmax": entry.cmax,
                "tec": entry.tec,
                "os": list(entry.chromosome.os),
                "mv": list(entry.chromosome.mv),
                "energy": {
                    "turn_on": breakdown.turn_on,
                    "transition": breakdown.transition,
                    "setup": breakdown.setup,
                    "process": breakdown.process,
                    "interval": breakdown.interval,
                    "tec": breakdown.tec,
                    "intervals": [
                        {
                            "machine": d.interval.machine,
                            "start": d.interval.start,
                            "end": d.interval.end,
                            "mode": d.mode,
                            "speed": d.idle_speed if d.mode == "idle" else 0,
                            "energy": d.energy,
                        }
                        for d in breakdown.interval_decisions
                    ],
                },
                "schedule": [
                    {
                        "job": r.job,
                        "op": r.op_index,
                        "machine": r.machine,
                        "speed": r.speed,
                        "start": r.start,
                        "end": r.end,
                    }
                    for r in sched.rows
                ],
            }
        )
    doc = {
        "schema_version": RESULT_SCHEMA,
        "kind": "result",
        "instance_sha256": hashlib.sha256(text.encode()).hexdigest(),
        "config": asdict(cfg),
        "wall_time_s": wall,
        "iterations": [
            {
                "iteration": s.iteration,
                "best_cmax": s.best_cmax,
                "best_tec": s.best_tec,
                "archive": [[c, t] for c, t in s.archive_points],
            }
            for s in result.trace
        ],
        "archive": archive_docs,
    }
    Path(args.out).write_text(dump_document(doc))
    best = entries[0] if entries else None
    print(
        f"archive {len(entries)} solutions"
        + (f", best cmax {best.cmax}, best tec {min(e.tec for e in entries):.4f}" if best else "")
        + f", wall time {wall:.2f}s -> {args.out}"
    )
    return 0


def _load_result(path: str) -> dict:
    doc = load_document(Path(path).read_text())
    if not isinstance(doc, dict) or doc.get("kind") != "result":
        raise ValueError(f"{path}: not a result file")
    if doc.get("schema_version") != RESULT_SCHEMA:
        raise ValueError(f"{path}: unsupported result schema")
    return doc


def cmd_metrics(args: argparse.Namespace) -> int:
    fronts = []
    for path in args.results:
        doc = _load_result(path)
        points = [(e["cmax"], e["tec"]) for e in doc["archive"]]
        if not points:
            raise ValueError(f"{path}: empty archive")
        fronts.append(points)

    union = [p for front in fronts for p in front]
    reference = sorted(
        p for p in set(union) if not any(dominates(q, p) for q in union if q != p)
    )
    normed, bounds = normalize([reference] + fronts)
    ref_norm, front_norms = normed[0], normed[1:]
    rows = []
    for path, front in zip(args.results, front_norms):
        rows.append(
            {
                "file": path,
                "igd": igd(ref_norm, front),
                "hv": hv(front, HV_REFERENCE),
            }
        )
    coverage = [
        [c_metric(a, b) if i != j else 0.0 for j, b in enumerate(fronts)]
        for i, a in enumerate(fronts)
    ]
    report = {
        "schema_version": RESULT_SCHEMA,
        "kind": "metrics",
        "reference_size": len(reference),
        "normalization": {
            "cmax": list(bounds[0]),
            "tec": list(bounds[1]),
        },
        "results": rows,
        "c_metric": coverage,
    }
    text = dump_document(report)
    if args.out:
        Path(args.out).write_text(text)
        print(args.out)
    else:
        print(text, end="")
    return 0


def _gantt_rows(entry: dict) -> list[dict]:
    rows = []
    for r in entry["schedule"]:
        rows.append(
            {
                "machine": r["machine"],
                "kind": "setup" if r["op"] == 0 else "process",
                "job": r["job"],
                "op": r["op"],
                "start": r["start"],
                "end": r["end"],
                "gear": r["speed"],
            }
        )
    for d in entry["energy"]["intervals"]:
        rows.append(
            {
                "machine": d["machine"],
                "kind": d["mode"],
                "job": None,
                "op": None,
                "start": d["start"],
                "end": d["end"],
                "gear": d["speed"],
            }
        )
    rows.sort(key=lambda r: (r["machine"], r["start"], r["kind"]))
    return rows


def _render_svg(rows: list[dict], cmax: int) -> str:
    machines = sorted({r["machine"] for r in rows})
    lane_h, gap, left, top, scale = 34, 10, 70, 30, 24.0
    width = left + int(cmax * scale) + 40
    height = top + len(machines) * (lane_h + gap) + 40
    lane_y = {m: top + i * (lane_h + gap) for i, m in enumerate(machines)}
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        '<style>text{font-family:sans-serif;font-size:11px}</style>',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    for m in machines:
        y = lane_y[m]
        parts.append(
            f'<text x="8" y="{y + lane_h // 2 + 4}">M{m}</text>'
        )
        parts.append(
            f'<line x1="{left}" y1="{y + lane_h}" x2="{width - 20}" '
            f'y2="{y + lane_h}" stroke="#ddd"/>'
        )
    for r in rows:
        x = left + r["start"] * scale
        w = max((r["end"] - r["start"]) * scale, 1.0)
        y = lane_y[r["machine"]]
        kind = r["kind"]
        if kind == "process":
            fill = _PALETTE[(r["job"] - 1) % len(_PALETTE)]
            parts.append(
                f'<rect x="{x:.1f}" y="{y}" width="{w:.1f}" height="{lane_h}" '
                f'fill="{fill}" stroke="#333"/>'
            )
            parts.append(
                f'<text x="{x + 3:.1f}" y="{y + lane_h // 2 + 4}" fill="white">'
                f'J{r["job"]}.{r["op"]} v{r["gear"]}</text>'
            )
        elif kind == "setup":
            parts.append(
                f'<rect x="{x:.1f}" y="{y}" width="{w:.1f}" height="{lane_h}" '
                f'fill="#d8d8d8" stroke="#333"/>'
            )
        else:
            fill = "#ffffff" if kind == "idle" else "#555555"
            parts.append(
                f'<rect x="{x:.1f}" y="{y + 8}" width="{w:.1f}" '
                f'height="{lane_h - 16}" fill="{fill}" stroke="#999" '
                f'stroke-dasharray="3,2"/>'
            )
    for t in range(0, cmax + 1, max(1, cmax // 12 or 1)):
        x = left + t * scale
        parts.append(f'<text x="{x:.1f}" y="{height - 12}" fill="#666">{t}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def cmd_gantt(args: argparse.Namespace) -> int:
    doc = _load_result(args.result)
    archive = doc["archive"]
    if not archive:
        raise ValueError("result has an empty archive")
    if not 0 <= args.solution < len(archive):
        raise ValueError(
            f"solution index {args.solution} out of range 0..{len(archive) - 1}"
        )
    entry = archive[args.solution]
    rows = _gantt_rows(entry)
    data_doc = {
        "schema_version": RESULT_SCHEMA,
        "kind": "gantt",
        "solution": args.solution,
        "cmax": entry["cmax"],
        "tec": entry["tec"],
        "rows": rows,
    }
    data_path = Path(f"{args.out}.yaml")
    svg_path = Path(f"{args.out}.svg")
    data_path.write_text(dump_document(data_doc))
    svg_path.write_text(_render_svg(rows, entry["cmax"]))
    print(data_path)
    print(svg_path)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ParseError, InstanceFormatError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except yaml.YAMLError as exc:
        print(f"error: {_yaml_problem(exc)}", file=sys.stderr)
        return 1


def _yaml_problem(exc: yaml.YAMLError) -> str:
    """One line naming what the YAML parser choked on, and where."""
    problem = getattr(exc, "problem", None) or str(exc).splitlines()[0]
    mark = getattr(exc, "problem_mark", None)
    where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
    return f"malformed YAML: {problem}{where}"


if __name__ == "__main__":
    raise SystemExit(main())
