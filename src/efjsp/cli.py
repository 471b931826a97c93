"""Command line interface.

Subcommands:

* ``generate`` turns base benchmark files into extended instances,
* ``solve`` runs the solver on an instance and writes a result document,
* ``metrics`` scores results of one instance against their pooled reference,
* ``gantt`` renders one archived solution as a data document plus SVG.

A result keeps only what cannot be derived: each archived solution's
chromosome and objectives, and the path of its instance relative to the
result's directory.  ``gantt`` is the one command that decodes and prices
a stored chromosome: it reads that instance back, checks it against the
stored hash, and draws the rows that decoding the chromosome gives.  A
solution's energy parts are ``total_energy(inst, decode(inst, chrom))``.

Every file is read and written through ``efjsp.documents``: two runs with
the same seed and flags write byte-identical output apart from the
wall-time field, and a bad field ends a command with one ``error:`` line.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import asdict, fields, replace
from pathlib import Path
from stat import S_ISREG

from . import __version__
from .benchmark import (
    ParseError,
    extend_instance,
    parse_base,
    read_instance,
    require_valid,
    write_instance,
)
from .documents import (
    boolean,
    dump_document,
    header,
    integer,
    integers,
    items,
    mapping,
    number,
    read_document,
    string,
)
from .encoding import Chromosome, ChromosomeError, decode
from .energy import MODE_IDLE, total_energy
from .metrics import c_metric, hv, igd, normalize
from .model import ProblemInstance
from .optimizer import AlgorithmConfig, IterationStats, run
from .pareto import nondominated

RESULT_SCHEMA = 3
REPORT_SCHEMA = 1  # metrics and gantt documents
# The keys a result and each of its archived solutions may hold: what solve writes
RESULT_KEYS = frozenset(
    ("schema_version", "kind", "instance", "instance_sha256", "config", "wall_time_s",
     "iterations", "archive")
)
SOLUTION_KEYS = frozenset(("cmax", "tec", "os", "mv"))
MAX_REPLICAS = 1_000
HV_REFERENCE = (1.1, 1.1)
_SETTING_READERS = {int: integer, bool: boolean}  # by a setting's default type

_PALETTE = (
    "#4e79a7", "#f28e2b", "#e15759", "#76b7b2", "#59a14f",
    "#edc948", "#b07aa1", "#ff9da7", "#9c755f", "#bab0ac",
)


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
    # a no-op kept so existing command lines (`--threads 1`) still parse
    solve.add_argument("--threads", type=int, help=argparse.SUPPRESS)
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

    gantt = sub.add_parser(
        "gantt", help="render one archived solution, decoded on the instance the result names"
    )
    gantt.add_argument("result", help="result file")
    gantt.add_argument("--solution", type=int, default=0, help="archive index")
    gantt.add_argument("--out", required=True, help="output prefix")
    gantt.set_defaults(func=cmd_gantt)
    return parser


def cmd_generate(args: argparse.Namespace) -> int:
    if args.replicas < 1:
        print("error: --replicas must be at least 1", file=sys.stderr)
        return 1
    if args.replicas > MAX_REPLICAS:
        print(f"error: --replicas must be at most {MAX_REPLICAS:,}", file=sys.stderr)
        return 1
    bases = []
    for base_path in args.bases:
        try:
            bases.append((base_path, parse_base(_read_text(base_path))))
        except ParseError as exc:
            raise ParseError(f"{base_path}: {exc}") from None
    seeds = range(args.seed, args.seed + args.replicas)  # replica k takes seed + k - 1
    out_dir = Path(args.out_dir)
    # every target is named and checked and every instance validated before anything
    # is written; the last pass builds each instance again, so one is held at a time
    targets = {}  # target path -> (base file, base, seed)
    for base_path, base in bases:
        stem = Path(base_path).stem
        for k, seed in enumerate(seeds, start=1):
            target = out_dir / (f"{stem}-{k:02d}.yaml" if args.replicas > 1 else f"{stem}.yaml")
            if target in targets:
                raise ValueError(f"{targets[target][0]} and {base_path} both generate {target}")
            require_valid(extend_instance(base, seed), base_path)
            targets[target] = (base_path, base, seed)
    _refuse_overwriting(targets, args.bases)
    made = [d for d in (out_dir, *out_dir.parents) if not os.path.lexists(d)]  # deepest first
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        for target in targets:
            _check_writable(target)
    except OSError:
        for d in made:  # take back the directories made above, while they are empty
            try:
                d.rmdir()
            except OSError:
                break
        raise
    for target, (_, base, seed) in targets.items():
        target.write_text(write_instance(extend_instance(base, seed)))
        print(target)
    return 0


def _config_from_args(args: argparse.Namespace) -> AlgorithmConfig:
    cfg = AlgorithmConfig()
    if args.config:
        doc = read_document(_read_text(args.config), args.config)
        if doc is None:  # an empty document: the defaults
            doc = {}
        defaults = {f.name: f.default for f in fields(AlgorithmConfig)}
        mapping(doc, args.config, "config", defaults.keys())
        for key, value in doc.items():
            _SETTING_READERS[type(defaults[key])](value, args.config, key)
        try:
            cfg = replace(cfg, **doc)
        except ValueError as exc:  # a setting out of its range
            raise ValueError(f"{args.config}: {exc}") from None
    for flag, key, value in (("--pop", "population", args.pop), ("--iters", "max_iter", args.iters)):
        if value is not None:
            try:
                cfg = replace(cfg, **{key: value})
            except ValueError as exc:  # a size out of its range
                raise ValueError(f"{flag}: {exc}") from None
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    for flag in args.ablate:
        cfg = replace(
            cfg,
            **{
                "nhi": {"disable_hybrid_init": True},
                "nde": {"disable_de": True},
                "ncp": {"vns_budget": 0},
            }[flag],
        )
    return cfg


def _refuse_overwriting(outputs, inputs) -> None:
    """Refuse the first of ``outputs`` that resolves to one of ``inputs``
    (None, in either, names no file)."""
    read = {os.path.realpath(path) for path in inputs if path is not None}
    for path in outputs:
        if path is not None and os.path.realpath(path) in read:
            raise ValueError(f"{path}: is an input of this command; refusing to write over it")


def _check_writable(path: str) -> None:
    """Raise the OSError that writing ``path`` would raise, leaving no file behind."""
    existed = os.path.lexists(path)
    with open(path, "a"):
        pass
    if not existed:
        os.remove(path)


def _print_progress(stat: IterationStats) -> None:
    print(
        f"iter {stat.iteration}: best_cmax={stat.best_cmax} "
        f"best_tec={stat.best_tec:.4f} archive={len(stat.archive_points)}",
        flush=True,
    )


def _sha256(text: str) -> str:
    """The SHA-256 of ``text`` as UTF-8, in hex.  It is computed by the
    interpreter's built-in module, the one ``hashlib`` falls back to, so
    that no command maps OpenSSL's libcrypto for one hash of an instance;
    ``hashlib`` is imported only where the interpreter has neither."""
    try:
        from _sha2 import sha256  # Python 3.12 and later
    except ImportError:
        try:
            from _sha256 import sha256  # Python 3.10 and 3.11
        except ImportError:
            from hashlib import sha256
    return sha256(text.encode()).hexdigest()


def _read_text(path: str) -> str:
    """The text of the file at ``path``; text that is not UTF-8 is one
    ValueError line naming the file."""
    try:
        return Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None


def cmd_solve(args: argparse.Namespace) -> int:
    _refuse_overwriting([args.out], [args.instance, args.config])
    text = _read_text(args.instance)
    inst = read_instance(text, args.instance)
    cfg = _config_from_args(args)
    _check_writable(args.out)  # before the solve, not after it
    started = time.perf_counter()
    result = run(inst, cfg, _print_progress if args.progress else None)
    wall = time.perf_counter() - started

    entries = sorted(result.archive.entries, key=lambda e: (e.cmax, e.tec))
    doc = {
        "schema_version": RESULT_SCHEMA,
        "kind": "result",
        # through symbolic links, since the system resolves `..` after them
        "instance": os.path.relpath(
            os.path.realpath(args.instance), os.path.realpath(os.path.dirname(args.out) or os.curdir)
        ),
        "instance_sha256": _sha256(text),
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
        "archive": [
            {"cmax": e.cmax, "tec": e.tec, "os": list(e.chromosome.os), "mv": list(e.chromosome.mv)}
            for e in entries
        ],
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
    doc = header(read_document(_read_text(path), path), path, "result", RESULT_SCHEMA, RESULT_KEYS)
    archive = items(
        doc.get("archive"), path, "archive", "solution", SOLUTION_KEYS, ("cmax",), bound=True
    )
    if not archive:
        raise ValueError(f"{path}: empty archive")
    for i, entry in enumerate(archive):
        number(entry.get("tec"), f"{path}: solution {i}", "tec", finite=True)
        if entry["cmax"] < 0:
            raise ValueError(f"{path}: solution {i} cmax must not be negative")
    string(doc.get("instance_sha256"), path, "instance_sha256")
    return doc


def cmd_metrics(args: argparse.Namespace) -> int:
    _refuse_overwriting([args.out], args.results)
    fronts = []
    for path in args.results:
        doc = _load_result(path)
        points = [(e["cmax"], e["tec"]) for e in doc["archive"]]
        if not fronts:
            instance = doc["instance_sha256"]
        elif doc["instance_sha256"] != instance:
            raise ValueError(f"{path}: instance_sha256 differs from that of {args.results[0]}")
        fronts.append(points)

    reference = nondominated(p for front in fronts for p in front)
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
        "schema_version": REPORT_SCHEMA,
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


def _result_instance(file: Path, doc: dict, path: str) -> ProblemInstance:
    """The instance ``doc`` (read from ``path``) was solved on: ``file``,
    the one its ``instance`` names, when that is a regular file whose text
    hashes to ``instance_sha256``."""
    try:
        if not S_ISREG(file.stat().st_mode):
            raise OSError(f"not a regular file: {str(file)!r}")
        text = file.read_text()
    except OSError as exc:
        raise OSError(f"{path}: cannot read its instance: {exc}") from None
    except ValueError as exc:  # a NUL in the name, or text that is not UTF-8
        raise ValueError(f"{path}: cannot read its instance: {exc}") from None
    if _sha256(text) != doc["instance_sha256"]:
        raise ValueError(f"{path}: instance {str(file)!r} is not the file solved: its sha256 differs")
    return read_instance(text, str(file))


def _gantt_rows(inst: ProblemInstance, chrom: Chromosome, entry: dict, where: str) -> list[dict]:
    """Timeline rows of ``chrom``'s schedule: its setup and process rows,
    then the idle and standby stretches between them, machine by machine
    in time order.  The stored objectives must be the chromosome's."""
    try:
        sched = decode(inst, chrom)
    except ChromosomeError as exc:
        raise ValueError(f"{where}: {exc}") from None
    breakdown = total_energy(inst, sched)
    objectives = (breakdown.cmax, breakdown.tec)  # evaluate(inst, chrom), to the last bit
    if objectives != (entry["cmax"], entry["tec"]):
        raise ValueError(
            f"{where}: stored cmax, tec {entry['cmax']}, {entry['tec']!r} differ from "
            f"the chromosome's {objectives[0]}, {objectives[1]!r}"
        )
    rows = [
        {
            "machine": r.machine,
            "kind": "setup" if r.op_index == 0 else "process",
            "job": r.job,
            "op": r.op_index,
            "start": r.start,
            "end": r.end,
            "gear": r.speed,
        }
        for r in sched
    ]
    for machine, start, end, prev_speed, next_speed, mode, _ in breakdown.interval_decisions:
        rows.append(
            {
                "machine": machine,
                "kind": mode,
                "job": None,
                "op": None,
                "start": start,
                "end": end,
                "gear": min(prev_speed, next_speed) if mode == MODE_IDLE else 0,
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
    instance_file = Path(args.result).parent / string(doc.get("instance"), args.result, "instance")
    data_path = Path(f"{args.out}.yaml")
    svg_path = Path(f"{args.out}.svg")
    _refuse_overwriting([data_path, svg_path], [args.result, instance_file])
    archive = doc["archive"]
    if not 0 <= args.solution < len(archive):
        raise ValueError(
            f"{args.result}: solution index {args.solution} out of range 0..{len(archive) - 1}"
        )
    entry = archive[args.solution]
    where = f"{args.result}: solution {args.solution}"
    chrom = Chromosome(integers(entry.get("os"), where, "os"), integers(entry.get("mv"), where, "mv"))
    rows = _gantt_rows(_result_instance(instance_file, doc, args.result), chrom, entry, where)
    data_doc = {
        "schema_version": REPORT_SCHEMA,
        "kind": "gantt",
        "solution": args.solution,
        "cmax": entry["cmax"],
        "tec": entry["tec"],
        "rows": rows,
    }
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
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
