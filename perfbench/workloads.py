"""Workload tables: benchgen instances, their limits and expected answers.

Imports nothing from tqaplan, so run.py can read the tables
without paying for (or timing) the package import.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Optional

# Per-instance time budget of find_plan.  A verdict that hits it counts as
# undecided and its time counts at the full budget.
BUDGET_S = 30.0


@dataclass(frozen=True)
class Instance:
    name: str
    bench_type: str  # benchgen type: I, II or III
    copies: int  # benchgen m
    height: Optional[int]  # benchgen h (Type II/III)
    copy_cap: int
    objective: str
    max_n: int
    horizon: Optional[int]  # None: find_plan's default, N times the longest delay
    status: str  # expected verdict: found | exhausted
    n_star: Optional[int]  # expected minimal stage count when found
    optimum: Optional[str]  # expected objective value (Fraction text)


@dataclass(frozen=True)
class Unit:
    """One instance under one shuffle of its domain document."""

    instance: Instance
    shuffle: int

    @property
    def uid(self) -> str:
        return f"{self.instance.name}#{self.shuffle}"


def _wide(m: int) -> Instance:
    return Instance(f"I-m{m}", "I", m, None, 1, "none", 20, None, "found", 4, None)


WORKLOADS: dict[str, tuple[tuple[Instance, ...], int]] = {
    # name -> (instances, shuffles per instance in one run); BENCHMARK.json
    # and README.md say why each workload was chosen.
    "wide": (tuple(_wide(m) for m in (10, 20, 30, 40, 50)), 1),
    "deep": (
        (
            Instance("II-m3h3-makespan", "II", 3, 3, 1, "makespan", 20, None, "found", 14, "28"),
            Instance("III-m3h3-costs", "III", 3, 3, 1, "costs", 20, None, "found", 17, "414"),
        ),
        1,
    ),
    "copies": (
        (
            Instance("II-m1h2-cap2-h22", "II", 1, 2, 2, "none", 20, 22, "found", 9, None),
            Instance("II-m1h2-cap2-n8", "II", 1, 2, 2, "none", 8, None, "exhausted", None, None),
        ),
        5,
    ),
}


def units(workload: str) -> list[Unit]:
    instances, shuffles = WORKLOADS[workload]
    return [Unit(inst, k) for inst in instances for k in range(shuffles)]


def shuffle_document(text: str, seed: int, unit: Unit) -> str:
    """Reorder the fluents and skills of a domain document.

    The order changes variable numbering and branching order, never the
    answer, so the expected table holds for every seed.
    """
    doc = json.loads(text)
    rng = random.Random(f"{seed}/{unit.uid}")
    rng.shuffle(doc["fluents"])
    rng.shuffle(doc["skills"])
    return json.dumps(doc, indent=2)
