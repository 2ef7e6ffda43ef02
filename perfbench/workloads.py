"""The benchmark's instance pools, one per workload.

Each pool is a fixed list of generator configs. It is fixed, not drawn from
the run seed, because every instance needs a reference optimum that HiGHS
computes offline (minutes per pool; see reference.py). The run seed only
fixes the order in which a pool is fed to the pipeline.

A proved instance is timed SAMPLES times; its time is the median of its
samples. The count is fixed, so that every run computes the same statistic.
"""

from __future__ import annotations

import hashlib
import json
import os
from maxhrt.generator import GeneratorConfig, sfas_like

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

# Solver time limit L per instance, in seconds. Every pool instance's search
# ends well inside L or runs far past it (see SFAS_TIED_SEEDS), so that a
# machine running twice as fast or as slow keeps every outcome. README.md
# says how L sizes a run.
TIME_LIMIT = 3.5
SAMPLES = 9


def label(config: GeneratorConfig) -> str:
    """Stable key of an instance in the reference file."""
    c = config
    return (
        f"n1={c.n1},n2={c.n2},posts={c.total_posts},len={c.list_length},"
        f"tr={c.tie_density_residents},th={c.tie_density_hospitals},seed={c.seed}"
    )


def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def load_reference() -> dict:
    """Stored HiGHS results: workload -> instance label -> entry."""
    with open(REFERENCE_PATH) as f:
        return json.load(f)


def _two_sided(n1: int, seed: int) -> GeneratorConfig:
    return GeneratorConfig(
        n1=n1,
        n2=int(0.07 * n1),
        total_posts=n1,
        list_length=5,
        tie_density_residents=0.3,
        tie_density_hospitals=0.5,
        seed=seed,
    )


# Seeds of each (n1, tie density) cell of sfas-tied: 4-7, except that a seed
# whose B&B search ended between L/2.5 and 4L (measured with a 15 s limit
# on a 2-core x86-64 container) is replaced by the next seed from 8 on whose
# search did not. On a machine whose speed swings by 2x from second to
# second, a search that ends near L flips between outcomes from run to run.
# The rule looks only at when a search ends, not at its outcome.
SFAS_TIED_SEEDS: dict[tuple[int, float], tuple[int, ...]] = {
    (100, 0.5): (4, 5, 6, 7),
    (100, 0.85): (4, 5, 6, 7),  # seed 7: the known false-`Optimal` repro
    (150, 0.5): (4, 5, 6, 7),
    (150, 0.85): (4, 5, 6, 8),  # 7 ended at 4.3 s
    (200, 0.5): (4, 5, 6, 7),
    (200, 0.85): (5, 7, 8, 9),  # 4 ended at 4.5 s, 6 at 2.2 s
    (300, 0.5): (4, 5, 7, 8),  # 6 ended at 7.5 s
    (300, 0.85): (4, 5, 7, 8),  # 6 ended at 7.2 s
}

# Why each pool was chosen is in README.md.
WORKLOADS: dict[str, tuple[GeneratorConfig, ...]] = {
    # Hospital-side ties: the solver's search does nearly all the work.
    # Includes sfas_like(100, 0.85, 7), the known false-`Optimal` repro.
    "sfas-tied": tuple(
        sfas_like(n1, td, seed) for (n1, td), seeds in SFAS_TIED_SEEDS.items() for seed in seeds
    ),
    # Strict lists: preprocess.hospitals_offer takes over 90 % of the
    # pipeline, and the solver proves at the root node.
    "sfas-strict-large": tuple(sfas_like(300, 0.0, seed) for seed in range(6)),
    # Ties on both sides: reduction is skipped, the model is unreduced.
    "two-sided-ties": tuple(_two_sided(n1, seed) for n1 in (150, 200) for seed in range(8)),
}
