"""Warm starts: weakly stable matchings built by deferred acceptance.

One routine, `_deferred_acceptance`, runs resident-proposing deferred
acceptance with Király's promotion: a resident that runs out of hospitals
is promoted once and applies again from the top of its list, and a
hospital prefers a promoted resident to an unpromoted one it ranks the
same (Király, "Linear time local approximation algorithm for maximum
stable marriage", Algorithms 2013). Two tie policies feed it:

* `warm_start` breaks every tie by a fixed shuffle, so the hospitals'
  ranks are strict. A stable matching of the tie-broken instance is weakly
  stable in the original. On strict ranks promotion is inert (see
  `_deferred_acceptance`), so this is Gale–Shapley's resident-optimal
  matching of the tie-broken instance.
* `promotion_starts` breaks only the residents' ties and keeps the
  hospitals' ties, where promotion does act. With ties on the hospital
  side only its size is at least 2/3 of the maximum; the exact solver
  tries it under many seeds to raise its incumbent.

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

from .core import Instance, Matching, PreferenceList


def _broken(plist: PreferenceList, rng: random.Random) -> Sequence[int]:
    """The list's entries in order, each tie's members shuffled by `rng`."""
    if plist.is_strict():
        return plist.entries()
    entries: list[int] = []
    for group in plist.groups:
        if len(group) > 1:
            group = list(group)
            rng.shuffle(group)
        entries.extend(group)
    return entries


def _deferred_acceptance(
    hosp_rank: Sequence[Mapping[int, int]],
    caps: Sequence[int],
    res_lists: Sequence[Sequence[int]],
    free: list[int],
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
    A resident that runs out of hospitals is promoted once and starts its
    list again. Where no hospital ranks two residents the same, promotion
    is inert: keys then compare as ranks do, so every hospital on a
    promoted resident's list still holds only residents it ranks higher,
    and the second pass changes nothing.
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
                if not (unpromoted[i] and prefs):
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


def warm_start(instance: Instance) -> Matching:
    """A weakly stable matching of the instance: deferred acceptance, ties broken.

    One `random.Random(0)` shuffles each resident tie, residents in index
    order, and then each hospital tie; each hospital ranks its residents
    by their places in its broken order.
    """
    rng = random.Random(0)
    res_lists = [(), *(_broken(p, rng) for p in instance.residents)]
    hosp_rank: list[Mapping[int, int]] = [{}]
    for hosp in instance.hospitals:
        plist = hosp.preferences
        if plist.is_strict():
            hosp_rank.append(plist.ranks())
        else:
            hosp_rank.append({i: k for k, i in enumerate(_broken(plist, rng), start=1)})
    caps = [0, *(h.capacity for h in instance.hospitals)]
    return _deferred_acceptance(hosp_rank, caps, res_lists, list(range(instance.n1, 0, -1)))


def promotion_starts(instance: Instance) -> Callable[[int], Matching]:
    """Király's promotion deferred acceptance, as a function of the seed.

    The instance's data (hospital ranks and capacities, residents' lists)
    is read once, here; each call then runs one promotion start. The
    result is weakly stable and fixed by the seed: its rng shuffles each
    resident tie and, unless the seed is 0, the initial order of the free
    residents. Hospitals' ties are kept, so a promoted resident beats the
    unpromoted ones it is tied with. On strict instances every seed gives
    Gale–Shapley's matching.
    """
    hosp_rank = [{}, *(h.preferences.ranks() for h in instance.hospitals)]
    caps = [0, *(h.capacity for h in instance.hospitals)]
    n1 = instance.n1
    entries: list[Sequence[int]] = [(), *(p.entries() for p in instance.residents)]
    tied = [(i, p) for i, p in enumerate(instance.residents, start=1) if not p.is_strict()]

    def start(seed: int) -> Matching:
        rng = random.Random(seed)
        res_lists = entries
        if tied:
            res_lists = list(entries)
            for i, plist in tied:
                res_lists[i] = _broken(plist, rng)
        free = list(range(n1, 0, -1))
        if seed:
            rng.shuffle(free)
        return _deferred_acceptance(hosp_rank, caps, res_lists, free)

    return start
