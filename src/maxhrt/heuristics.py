"""Warm starts: weakly stable matchings built by deferred acceptance.

Two constructions, both resident-proposing deferred acceptance:

* `warm_start` breaks every tie by a fixed shuffle and runs plain
  Gale–Shapley on the strict instance. A stable matching of the strict
  instance is weakly stable in the original.
* `promotion_starts` breaks only the residents' ties and keeps the
  hospitals' ties, with Király's promotion: a resident that runs out of
  hospitals is promoted once and applies again from the top of its list,
  and a hospital prefers a promoted resident to an unpromoted one it ranks
  the same (Király, "Linear time local approximation algorithm for maximum
  stable marriage", Algorithms 2013). With ties on the hospital side only
  its size is at least 2/3 of the maximum; the exact solver tries it under
  many seeds to raise its incumbent.

A seed fixes two things, drawn from one `random.Random(seed)` in this
order: first the shuffle of each resident tie, residents in index order,
then, for a seed other than 0, the order in which the free residents make
their first proposals. The tie shuffles are drawn first, so the proposal
shuffle does not change how a seed breaks the residents' ties. On strict
resident lists the proposal order is all a seed changes; where the
hospitals' lists are strict too, every order gives Gale–Shapley's
resident-optimal matching.
"""

from __future__ import annotations

import random
from typing import Callable, Mapping, Sequence

from .core import Hospital, Instance, Matching, PreferenceList


def _broken_entries(groups: Sequence[Sequence[int]], rng: random.Random) -> list[int]:
    """The groups' members in order, each tie's members shuffled by `rng`."""
    entries: list[int] = []
    for group in groups:
        if len(group) > 1:
            group = list(group)
            rng.shuffle(group)
        entries.extend(group)
    return entries


def _break_list(plist: PreferenceList, rng: random.Random) -> PreferenceList:
    if plist.is_strict():
        return plist
    return PreferenceList.strict(_broken_entries(plist.groups, rng))


def break_ties(instance: Instance) -> Instance:
    """Replace every tie by a fixed shuffle of its members; order across ties kept.

    An instance without ties is returned as it is.
    """
    if all(p.is_strict() for p in instance.residents) and all(
        h.preferences.is_strict() for h in instance.hospitals
    ):
        return instance
    rng = random.Random(0)
    residents = tuple(_break_list(p, rng) for p in instance.residents)
    hospitals = tuple(
        Hospital(h.capacity, _break_list(h.preferences, rng)) for h in instance.hospitals
    )
    return Instance(residents=residents, hospitals=hospitals)


def _hospital_data(instance: Instance) -> tuple[list[Mapping[int, int]], list[int]]:
    """Each hospital's rank map and capacity, indexed by hospital id (entry 0 unused)."""
    ranks: list[Mapping[int, int]] = [{}]
    caps = [0]
    for hosp in instance.hospitals:
        ranks.append(hosp.preferences.ranks())
        caps.append(hosp.capacity)
    return ranks, caps


def _deferred_acceptance(
    hosp_rank: Sequence[Mapping[int, int]],
    caps: Sequence[int],
    res_lists: Sequence[Sequence[int]],
    free: list[int],
    promote: bool,
) -> Matching:
    """Residents apply down `res_lists`; hospitals keep their own ranks.

    Residents, hospitals and the three sequences are indexed by id, with
    an unused entry 0; the free residents are popped from the end of
    `free`. A hospital keeps each assignee's key, `2 * rank + (not
    promoted)`, so a promoted resident beats the unpromoted ones it ranks
    the same. A full hospital displaces the first of its assignees with
    the largest key, and only for a newcomer with a strictly smaller key;
    the newcomer joins at the end. The largest key among a full hospital's
    assignees never grows, so every resident it turned away or displaced
    stays ranked no better than all of them: the result is weakly stable.
    With `promote`, a resident that runs out of hospitals is promoted once
    and starts its list again.
    """
    next_choice = [0] * len(res_lists)
    unpromoted = [1] * len(res_lists)
    holders: list[list[int]] = [[] for _ in caps]
    keys: list[list[int]] = [[] for _ in caps]
    while free:
        i = free.pop()
        prefs = res_lists[i]
        k = next_choice[i]
        while True:
            if k == len(prefs):
                if not (promote and unpromoted[i] and prefs):
                    break
                unpromoted[i] = 0
                k = 0
            j = prefs[k]
            k += 1
            cap = caps[j]
            if not cap:
                continue
            key = 2 * hosp_rank[j][i] + unpromoted[i]
            held = holders[j]
            held_keys = keys[j]
            if len(held) < cap:
                held.append(i)
                held_keys.append(key)
                break
            worst = max(held_keys)
            if key < worst:
                at = held_keys.index(worst)
                free.append(held[at])
                del held[at], held_keys[at]
                held.append(i)
                held_keys.append(key)
                break
        next_choice[i] = k
    return Matching({i: j for j, held in enumerate(holders) for i in held})


def gale_shapley(instance: Instance) -> Matching:
    """Resident-proposing deferred acceptance on a strict instance.

    Free residents apply down their lists; a full hospital rejects its
    worst assignee when a strictly better applicant arrives. The result
    is stable in the given (strict) instance.
    """
    for plist in instance.residents:
        if not plist.is_strict():
            raise ValueError("gale_shapley requires strict resident lists")
    for hosp in instance.hospitals:
        if not hosp.preferences.is_strict():
            raise ValueError("gale_shapley requires strict hospital lists")
    hosp_rank, caps = _hospital_data(instance)
    res_lists = [(), *(p.entries() for p in instance.residents)]
    return _deferred_acceptance(
        hosp_rank, caps, res_lists, list(range(instance.n1, 0, -1)), promote=False
    )


def warm_start(instance: Instance) -> Matching:
    """A weakly stable matching of the instance: Gale–Shapley after `break_ties`."""
    return gale_shapley(break_ties(instance))


def promotion_starts(instance: Instance) -> Callable[[int], Matching]:
    """Király's promotion deferred acceptance, as a function of the seed.

    The instance's data (hospital ranks and capacities, strict residents'
    entries, tied residents' groups) is read once, here; each call then
    runs one promotion start. The result is weakly stable and fixed by the
    seed: its rng shuffles each resident tie and, unless the seed is 0, the
    initial order of the free residents. Hospitals' ties are kept, so a
    promoted resident beats the unpromoted ones it is tied with. On strict
    instances every seed gives Gale–Shapley's matching.
    """
    hosp_rank, caps = _hospital_data(instance)
    n1 = instance.n1
    entries: list[Sequence[int]] = [()]
    tied: list[tuple[int, tuple[tuple[int, ...], ...]]] = []
    for i, plist in enumerate(instance.residents, start=1):
        entries.append(plist.entries())
        if not plist.is_strict():
            tied.append((i, plist.groups))

    def start(seed: int) -> Matching:
        rng = random.Random(seed)
        res_lists = entries
        if tied:
            res_lists = list(entries)
            for i, groups in tied:
                res_lists[i] = _broken_entries(groups, rng)
        free = list(range(n1, 0, -1))
        if seed:
            rng.shuffle(free)
        return _deferred_acceptance(hosp_rank, caps, res_lists, free, promote=True)

    return start
