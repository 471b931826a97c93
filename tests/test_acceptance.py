"""Acceptance gates for the whole toolkit.

Eight end-to-end checks, one per guaranteed behaviour: golden interval
arithmetic, the worked-sample decode, solver-versus-enumeration
equivalence, bulk feasibility with dual-route energy agreement,
indicator unit values, the component-ablation study, seeded
determinism, and generator conformance.  Every check prints a single
``[acceptance] <label>: PASS``/``FAIL`` line on the real terminal so a
full run reads as a checklist.
"""

from __future__ import annotations

import math
import random
import statistics
import time
from contextlib import contextmanager

from efjsp.benchmark import extend_instance, load_document, random_base, write_base
from efjsp.cli import main
from efjsp.encoding import decode, random_chromosome
from efjsp.energy import MODE_IDLE, MODE_STANDBY, total_energy
from efjsp.metrics import c_metric, hv, igd, normalize
from efjsp.model import validate_schedule
from efjsp.optimizer import AlgorithmConfig, dominates, run
from efjsp.oracle import cross_check, enumerate_front
from efjsp.sample import sample_instance


@contextmanager
def _verdict(capsys, label):
    """Print one PASS/FAIL line per gate, outside pytest's capture."""
    note = {}
    try:
        yield note
    except BaseException:
        with capsys.disabled():
            print(f"[acceptance] {label}: FAIL")
        raise
    suffix = f" ({note['text']})" if "text" in note else ""
    with capsys.disabled():
        print(f"[acceptance] {label}: PASS{suffix}")


def _best_time(fn, repeats: int = 5) -> float:
    """Best-of-N wall time of ``fn``, shrugging off scheduler noise."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_interval_choice_golden_arithmetic(capsys, inst, sched):
    with _verdict(capsys, "interval idle/standby arithmetic"):
        # the worked sample's two stretches, as total_energy decides them
        stretch_a, stretch_b = total_energy(inst, sched).interval_decisions
        assert stretch_a[:5] == (1, 9, 15, 3, 2)
        assert stretch_b[:5] == (2, 15, 18, 2, 3)
        length_a, length_b = stretch_a.end - stretch_a.start, stretch_b.end - stretch_b.start
        m1, m2 = inst.machine(1), inst.machine(2)
        # raw costs of both options on both stretches
        assert m1.idle_power[1] * length_a + m1.switch[3][2] == 41.0
        assert (
            m1.standby_power * length_a
            + m1.switch[3][0]
            + m1.switch[0][2]
            == 30.0
        )
        assert m2.idle_power[1] * length_b + m2.switch[2][3] == 23.0
        assert (
            m2.standby_power * length_b
            + m2.switch[2][0]
            + m2.switch[0][3]
            == 24.0
        )
        assert (stretch_a.mode, stretch_a.energy) == (MODE_STANDBY, 30.0)
        assert (stretch_b.mode, stretch_b.energy) == (MODE_IDLE, 23.0)
        elapsed = _best_time(lambda: total_energy(inst, sched))
        assert elapsed < 1e-3


def test_worked_sample_decode(capsys, inst, chrom):
    with _verdict(capsys, "worked-sample decode"):
        sched = decode(inst, chrom)
        report = validate_schedule(inst, sched)
        assert report.ok, str(report)
        breakdown = total_energy(inst, sched)
        assert breakdown.cmax == 21
        assert breakdown.interval == 53.0
        elapsed = _best_time(lambda: decode(inst, chrom))
        assert elapsed < 1e-3


def test_solver_recovers_exhaustive_front(capsys, inst):
    with _verdict(capsys, "solver matches the exhaustive front") as note:
        reference = list(enumerate_front(inst).points)
        hits = 0
        for seed in range(1, 11):
            cfg = AlgorithmConfig(population=30, max_iter=50, seed=seed)
            t0 = time.perf_counter()
            result = run(inst, cfg)
            assert time.perf_counter() - t0 < 10.0
            if igd(reference, result.archive.points()) == 0.0:
                hits += 1
        # per-seed recovery of the full front is probabilistic; the gate
        # is that the time-bounded batch lands it at least once
        assert hits >= 1
        note["text"] = f"{hits}/10 seeds exact"


def test_random_chromosome_feasibility_and_energy_agreement(capsys, inst):
    cases = [
        ("sample 2x2", inst, 5),
        ("generated 10x6", extend_instance(random_base(10, 6, seed=7), seed=7), 6),
        ("generated 15x8", extend_instance(random_base(15, 8, seed=8), seed=8), 9),
    ]
    with _verdict(capsys, "random-chromosome feasibility and energy agreement"):
        for label, case_inst, seed in cases:
            rng = random.Random(seed)
            for _ in range(1000):
                candidate = random_chromosome(case_inst, rng)
                sched = decode(case_inst, candidate)
                report = validate_schedule(case_inst, sched)
                assert report.ok, f"{label}: {report}"
                assert cross_check(case_inst, candidate), label


def test_indicator_unit_arithmetic(capsys):
    with _verdict(capsys, "indicator unit arithmetic"):
        assert igd([(0.0, 0.0), (1.0, 1.0)], [(0.0, 0.0)]) == math.sqrt(2) / 2
        assert (
            igd([(0.0, 1.0), (1.0, 0.0)], [(1.0, 0.0), (0.0, 1.0), (0.5, 0.5)]) == 0.0
        )
        assert hv([(1.0, 1.0)], (2.0, 2.0)) == 1.0
        assert hv([(1.0, 2.0), (2.0, 1.0)], (3.0, 3.0)) == 3.0
        assert c_metric([(0.0, 0.0)], [(1.0, 1.0), (0.0, 0.0)]) == 0.5
        assert c_metric([(0.0, 1.0), (1.0, 0.0)], [(0.0, 1.0), (1.0, 0.0)]) == 0.0
        assert c_metric([(0.0, 0.0)], [(1.0, 1.0), (2.0, 2.0)]) == 1.0


def test_component_ablation_medians(capsys):
    t_start = time.perf_counter()
    with _verdict(capsys, "component-ablation medians") as note:
        instances = [
            extend_instance(random_base(4, 3, seed=101), seed=101),
            extend_instance(random_base(6, 4, seed=102), seed=102),
            extend_instance(random_base(8, 5, seed=103), seed=103),
        ]
        variants = {
            "full": {},
            "no-init": {"disable_hybrid_init": True},
            "no-de": {"disable_de": True},
            "no-vns": {"vns_budget": 0},
        }
        scores: dict[str, list[float]] = {name: [] for name in variants}
        for case_inst in instances:
            fronts = {}
            for name, flags in variants.items():
                for seed in range(1, 11):
                    cfg = AlgorithmConfig(
                        **{"population": 20, "max_iter": 25, "vns_budget": 8, "seed": seed, **flags}
                    )
                    fronts[(name, seed)] = run(case_inst, cfg).archive.points()
            union = [p for front in fronts.values() for p in front]
            reference = sorted(
                {
                    p
                    for p in union
                    if not any(dominates(q, p) for q in union if q != p)
                }
            )
            keys = list(fronts)
            normed, _ = normalize([reference] + [fronts[key] for key in keys])
            for (name, _seed), front_n in zip(keys, normed[1:]):
                scores[name].append(igd(normed[0], front_n))
        medians = {name: statistics.median(vals) for name, vals in scores.items()}
        for name in ("no-init", "no-de", "no-vns"):
            assert medians["full"] <= medians[name], medians
        elapsed = time.perf_counter() - t_start
        assert elapsed < 1800.0
        note["text"] = (
            ", ".join(f"{name} {medians[name]:.3f}" for name in medians)
            + f"; {elapsed:.0f}s"
        )


def test_seeded_determinism(capsys, tmp_path):
    with _verdict(capsys, "seeded determinism"):
        base = tmp_path / "det.txt"
        base.write_text(write_base(random_base(3, 3, seed=11)))
        assert main(
            ["generate", str(base), "--seed", "5", "--out-dir", str(tmp_path)]
        ) == 0
        inst_file = tmp_path / "det.yaml"
        docs = []
        for tag in ("a", "b", "c"):
            out = tmp_path / f"{tag}.yaml"
            code = main(
                [
                    "solve", str(inst_file),
                    "--pop", "12",
                    "--iters", "8",
                    "--seed", "9",
                    "--out", str(out),
                ]
            )
            assert code == 0
            doc = load_document(out.read_text())
            doc.pop("wall_time_s")
            docs.append(doc)
        assert docs[0] == docs[1]
        assert docs[0] == docs[2]


def test_generator_value_conformance(capsys):
    with _verdict(capsys, "generator ranges and ratios"):
        for seed in range(100):
            base = random_base(3, 2, seed=seed)
            extended = extend_instance(base, seed=seed)
            for job, base_job in zip(extended.jobs, base.jobs):
                assert 1 <= job.setup_time <= 2
                for op, base_op in zip(job.operations, base_job):
                    by_machine: dict[int, dict[int, int]] = {}
                    for opt in op.options:
                        by_machine.setdefault(opt.machine, {})[opt.speed] = opt.duration
                    assert len(by_machine) == len(base_op)
                    for machine, duration in base_op:
                        assert by_machine[machine] == {
                            1: 3 * duration,
                            2: 2 * duration,
                            3: duration,
                        }
            for mach in extended.machines:
                assert 10.0 <= mach.setup_power <= 30.0
                assert 3.0 <= mach.standby_power <= 5.0
                assert 30.0 <= mach.process_power[0] <= 50.0
                assert 5.0 <= mach.idle_power[0] <= 10.0
                for g in range(3):
                    assert mach.process_power[g] == mach.process_power[0] * (g + 1)
                    assert mach.idle_power[g] == mach.idle_power[0] * (g + 1)
                # one machine-wide factor scales the idle/standby gap
                factors = [
                    mach.turn_on[g] / (mach.idle_power[g] - mach.standby_power)
                    for g in range(3)
                ]
                for f in factors:
                    assert 6.0 - 1e-9 <= f <= 8.0 + 1e-9
                    assert abs(f - factors[0]) < 1e-9
                for g in range(1, 4):
                    assert abs(mach.switch[0][g] - 0.2 * mach.turn_on[g - 1]) <= 1e-12
                    assert mach.switch[g][0] == mach.switch[0][g]
                for a in range(1, 4):
                    assert mach.switch[a][a] == 0.0
                    for b in range(a + 1, 4):
                        mean_idle = (mach.idle_power[a - 1] + mach.idle_power[b - 1]) / 2
                        ratio = mach.switch[a][b] / mean_idle
                        assert 0.2 - 1e-9 <= ratio <= 0.3 + 1e-9
                        assert mach.switch[b][a] == mach.switch[a][b]
