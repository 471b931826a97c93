"""Energy-aware flexible job shop scheduling toolkit.

The package models job shops whose machines run each operation at one of
several speeds, sleep between jobs when that is cheaper than idling, and
pay setup energy when switching between jobs.  It bundles exact schedule
evaluation, a population-based multi-objective solver, a brute-force
reference enumerator for small instances, benchmark-extension tooling
and front-quality metrics behind one CLI.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .benchmark import (
    BaseFjspInstance,
    extend_instance,
    parse_base,
    random_base,
    read_instance,
    write_base,
    write_instance,
)
from .encoding import (
    Chromosome,
    MessageMatrix,
    build_message_matrix,
    decode,
    evaluate,
    heuristic_chromosome,
    random_chromosome,
)
from .energy import EnergyBreakdown, total_energy
from .local_search import critical_path, vns
from .metrics import c_metric, hv, igd, normalize
from .model import (
    Machine,
    ProblemInstance,
    ScheduledRow,
    validate_instance,
    validate_schedule,
)
from .optimizer import AlgorithmConfig, RunResult, run
from .oracle import enumerate_front, independent_objectives, search_space_size
from .pareto import ParetoArchive, dominates

__all__ = [
    "AlgorithmConfig",
    "BaseFjspInstance",
    "Chromosome",
    "EnergyBreakdown",
    "Machine",
    "MessageMatrix",
    "ParetoArchive",
    "ProblemInstance",
    "RunResult",
    "ScheduledRow",
    "build_message_matrix",
    "c_metric",
    "critical_path",
    "decode",
    "dominates",
    "enumerate_front",
    "evaluate",
    "extend_instance",
    "heuristic_chromosome",
    "hv",
    "igd",
    "independent_objectives",
    "normalize",
    "parse_base",
    "random_base",
    "random_chromosome",
    "read_instance",
    "run",
    "search_space_size",
    "total_energy",
    "validate_instance",
    "validate_schedule",
    "vns",
    "write_base",
    "write_instance",
]
