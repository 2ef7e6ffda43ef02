"""Warm starts: weakly stable matchings built by deferred acceptance.

Two constructions, both resident-proposing deferred acceptance:

* `warm_start` breaks every tie by a fixed shuffle and runs plain
  Gale–Shapley on the strict instance. A stable matching of the strict
  instance is weakly stable in the original.
* `promotion_start` breaks only the residents' ties and keeps the
  hospitals' ties, with Király's promotion: a resident that runs out of
  hospitals is promoted once and applies again from the top of its list,
  and a hospital prefers a promoted resident to an unpromoted one it ranks
  the same (Király, "Linear time local approximation algorithm for maximum
  stable marriage", Algorithms 2013). With ties on the hospital side only
  its size is at least 2/3 of the maximum; the exact solver tries it under
  several seeds to raise its incumbent.
"""

from __future__ import annotations

import random
from typing import Sequence

from .core import Hospital, Instance, Matching, PreferenceList


def _broken_entries(plist: PreferenceList, rng: random.Random) -> tuple[int, ...]:
    """The list's entries with each tie's members shuffled by `rng`."""
    if plist.is_strict():
        return plist.entries()
    entries: list[int] = []
    for group in plist.groups:
        members = list(group)
        if len(members) > 1:
            rng.shuffle(members)
        entries.extend(members)
    return tuple(entries)


def _break_list(plist: PreferenceList, rng: random.Random) -> PreferenceList:
    return plist if plist.is_strict() else PreferenceList.strict(_broken_entries(plist, rng))


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


def _deferred_acceptance(
    instance: Instance, res_lists: Sequence[Sequence[int]], promote: bool
) -> Matching:
    """Residents apply down `res_lists`; hospitals keep their own ranks.

    A full hospital compares applicants by `(rank, not promoted)` and
    displaces its worst assignee only for a strictly better newcomer. The
    largest key among a full hospital's assignees never grows, so every
    resident it turned away or displaced stays ranked no better than all
    of them: the result is weakly stable. With `promote`, a resident that
    runs out of hospitals is promoted once and starts its list again.
    """
    n1 = instance.n1
    hosp_rank = [h.preferences.ranks() for h in instance.hospitals]
    caps = [h.capacity for h in instance.hospitals]
    next_choice = [0] * n1
    promoted = [False] * n1
    assigned: list[int | None] = [None] * n1
    holders: list[list[int]] = [[] for _ in range(instance.n2)]

    free = list(range(n1 - 1, -1, -1))
    while free:
        i = free.pop()
        prefs = res_lists[i]
        while True:
            if next_choice[i] == len(prefs):
                if not promote or promoted[i] or not prefs:
                    break
                promoted[i] = True
                next_choice[i] = 0
            j = prefs[next_choice[i]]
            next_choice[i] += 1
            rank = hosp_rank[j - 1]
            if caps[j - 1] == 0:
                continue
            if len(holders[j - 1]) < caps[j - 1]:
                holders[j - 1].append(i + 1)
                assigned[i] = j
                break
            worst = max(holders[j - 1], key=lambda r: (rank[r], not promoted[r - 1]))
            if (rank[i + 1], not promoted[i]) < (rank[worst], not promoted[worst - 1]):
                holders[j - 1].remove(worst)
                holders[j - 1].append(i + 1)
                assigned[i] = j
                assigned[worst - 1] = None
                free.append(worst - 1)
                break
    return Matching({i + 1: j for i, j in enumerate(assigned) if j is not None})


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
    res_lists = [p.entries() for p in instance.residents]
    return _deferred_acceptance(instance, res_lists, promote=False)


def warm_start(instance: Instance) -> Matching:
    """A weakly stable matching of the instance: Gale–Shapley after `break_ties`."""
    return gale_shapley(break_ties(instance))


def promotion_start(instance: Instance, seed: int = 0) -> Matching:
    """Király's promotion deferred acceptance; weakly stable, deterministic given seed.

    Residents' ties are broken by a shuffle seeded with `seed`; hospitals'
    ties are kept, so a promoted resident beats the unpromoted ones it is
    tied with. On strict instances this is Gale–Shapley.
    """
    rng = random.Random(seed)
    res_lists = [_broken_entries(p, rng) for p in instance.residents]
    return _deferred_acceptance(instance, res_lists, promote=True)
