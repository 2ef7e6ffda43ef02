"""Seeded random instance generation.

Residents draw short lists of hospitals uniformly; each hospital ranks
exactly the residents that listed it, in a uniformly random order, so
acceptability is mutual by construction. Posts are scattered over the
hospitals one at a time, which can leave a hospital with zero capacity.
Ties are inserted afterwards by an adjacency rule: walking down a list,
each entry after the first joins its predecessor's tie independently
with the side's tie-density probability.

All draws come from one `random.Random(seed)`, in this order: the
hospital of each post; each resident's sample of hospitals, residents in
index order; the shuffle of each hospital's listers, hospitals in index
order; then one `random()` per adjacency of every list, residents before
hospitals, whatever the density. The first three go through the kernels
of `draws`, which take each draw as `random.Random`'s own `randrange`,
`sample` (for at most 21 hospitals; more still call `sample`) and
`shuffle` take it, so a config gives the same bytes as through those
methods; `test_below_draws_as_randrange`,
`test_sample_draws_as_random_sample` and
`test_shuffle_draws_as_random_shuffle` pin each kernel to its method.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from .core import Hospital, Instance, PreferenceList
from .draws import below, sample, shuffle


@dataclass(frozen=True)
class GeneratorConfig:
    n1: int
    n2: int
    total_posts: int
    list_length: int
    tie_density_residents: float
    tie_density_hospitals: float
    seed: int

    def __post_init__(self) -> None:
        if self.n1 < 1 or self.n2 < 1:
            raise ValueError("n1 and n2 must be at least 1")
        if self.total_posts < 0:
            raise ValueError("total posts must be non-negative")
        if not 0 <= self.list_length <= self.n2:
            raise ValueError(
                f"list length {self.list_length} must be in 0..{self.n2}"
            )
        for density in (self.tie_density_residents, self.tie_density_hospitals):
            if not 0.0 <= density <= 1.0:
                raise ValueError(f"tie density {density} outside [0, 1]")


def _insert_ties(ordered: list[int], density: float, draw: Callable[[], float]) -> PreferenceList:
    # One draw per adjacency regardless of density, so the stream of
    # random numbers (hence the instance) depends only on the config.
    if not ordered:
        return PreferenceList(())
    group = [ordered[0]]
    groups = [group]
    for agent in ordered[1:]:
        if draw() < density:
            group.append(agent)
        else:
            group = [agent]
            groups.append(group)
    return PreferenceList(tuple(map(tuple, groups)))


def generate(config: GeneratorConfig) -> Instance:
    """Deterministic instance for the config; same config, same bytes."""
    rng = random.Random(config.seed)
    getrandbits = rng.getrandbits
    n2, k = config.n2, config.list_length

    caps = [0] * n2
    for _ in range(config.total_posts):
        caps[below(n2, getrandbits)] += 1

    if n2 <= 21:
        res_choices = [sample(n2, k, getrandbits) for _ in range(config.n1)]
    else:
        res_choices = [rng.sample(range(1, n2 + 1), k) for _ in range(config.n1)]
    hosp_orders: list[list[int]] = [[] for _ in range(n2)]
    for i, choices in enumerate(res_choices, start=1):
        for j in choices:
            hosp_orders[j - 1].append(i)
    for listers in hosp_orders:
        shuffle(listers, 0, len(listers), getrandbits)

    residents = tuple(
        _insert_ties(choices, config.tie_density_residents, rng.random)
        for choices in res_choices
    )
    hospitals = tuple(
        Hospital(cap, _insert_ties(listers, config.tie_density_hospitals, rng.random))
        for cap, listers in zip(caps, hosp_orders)
    )
    return Instance(residents=residents, hospitals=hospitals)


def sfas_like(n1: int, tie_density_hospitals: float, seed: int) -> GeneratorConfig:
    """Benchmark preset: posts equal residents, few hospitals, short strict lists.

    Hospitals get 7% of the resident count (at least 15 residents needed
    for one hospital); residents rank up to five hospitals strictly, with
    ties on the hospital side only.
    """
    if n1 < 15:
        raise ValueError(f"n1={n1} too small: need n1 >= 15 for at least one hospital")
    n2 = int(0.07 * n1)
    return GeneratorConfig(
        n1=n1,
        n2=n2,
        total_posts=n1,
        list_length=min(5, n2),
        tie_density_residents=0.0,
        tie_density_hospitals=tie_density_hospitals,
        seed=seed,
    )
