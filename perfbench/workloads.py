"""The benchmark's four workloads, as rounds of operations made from a seed.

A round is a fixed list of operations.  Round r of seed s gives every
experiment its own master seed drawn from (s, r, position in the round), so
later rounds add fresh secrets and a run's averages settle as it goes on.
The one exception is the known faulty accumulation experiment, whose inputs
are fixed so that it fails the same way in every round of every run.

Why each workload exists and which layer it loads is in README.md.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from matchleak.harness import ExperimentConfig


@dataclass(frozen=True)
class Trials:
    """One run_experiment call; each trial is one operation."""

    config: ExperimentConfig
    # the multi-error accumulation experiment whose session bracket the
    # harness gets wrong; its inputs do not depend on the seed
    known_fault: bool = False


@dataclass(frozen=True)
class CoverBuild:
    """One stand-alone greedy_cover build plus verify_cover: one operation."""

    q: int
    n: int
    epsilon: int


@dataclass(frozen=True)
class Workload:
    name: str
    ops: tuple  # templates: Trials with master_seed 0, or CoverBuild
    # interactions_per_trial averages the trials of the first min_rounds
    # rounds, and every run completes at least that many
    min_rounds: int

    def round(self, seed: int, r: int) -> list:
        out = []
        for i, op in enumerate(self.ops):
            if isinstance(op, Trials) and not op.known_fault:
                op = Trials(replace(op.config, master_seed=master_seed(seed, r, i)))
            out.append(op)
        return out


def master_seed(seed: int, r: int, i: int) -> int:
    return int(np.random.SeedSequence([seed, r, i]).generate_state(1)[0])


def _trials(attack: str, q: int, n: int, eps: int, trials: int, **kw) -> Trials:
    return Trials(ExperimentConfig(q=q, n=n, epsilon=eps, attack=attack, trials=trials, **kw))


def _accumulation(trials: int, alpha: float | None, shape: str) -> Trials:
    return _trials("accumulation", 2, 16, 3, trials, alpha=alpha, session_shape=shape, workers=2)


WORKLOADS: dict[str, Workload] = {
    "binary": Workload(
        "binary",
        (
            _trials("below_distance", 2, 20, 4, 6),
            _trials("below_positions", 2, 20, 4, 2),
            _trials("below_posvalues", 2, 20, 4, 2),
            _trials("minimal", 2, 20, 4, 2, strategy="fixing"),
            _trials("both_distance", 2, 1024, 4, 2),
        ),
        min_rounds=7,
    ),
    "qary": Workload(
        "qary",
        (
            _trials("below_distance", 3, 8, 2, 20),
            _trials("below_positions", 4, 7, 2, 20),
            _trials("below_posvalues", 5, 6, 2, 20),
            _trials("both_distance", 4, 256, 8, 10),
            _trials("both_positions", 16, 1024, 8, 20),
            _trials("both_posvalues", 16, 1024, 8, 50),
        ),
        min_rounds=20,
    ),
    "passive": Workload(
        "passive",
        (
            _accumulation(400, None, "single"),
            _accumulation(300, None, "multi"),
            _accumulation(400, 1.5, "single"),
            Trials(replace(_accumulation(200, 1.5, "multi").config, master_seed=0), known_fault=True),
            _trials("fault_control", 2, 256, 4, 200, workers=2),
        ),
        min_rounds=5,
    ),
    "cover": Workload(
        "cover",
        (
            _trials("minimal", 2, 12, 3, 40, strategy="greedy"),
            _trials("minimal", 2, 14, 3, 4, strategy="greedy"),
            _trials("minimal", 2, 15, 3, 1, strategy="greedy"),
            CoverBuild(3, 10, 2),
        ),
        min_rounds=3,
    ),
}
