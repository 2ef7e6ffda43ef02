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
  matching of a tie-broken instance.
* `promotion_starts` breaks only the residents' ties and keeps the
  hospitals' ties, where promotion does act. With ties on the hospital
  side only its size is at least 2/3 of the maximum; the exact solver
  tries it under many seeds to raise its incumbent.

In both, a tied resident whose next hospital has no free post applies
first to the next member of that tie with one; the two swap places in a
per-call copy of its list, never in `PreferenceList.entries()`. Strict lists
are unaffected, and the result stays weakly stable (`_deferred_acceptance`).

A seed fixes two things, drawn from one `random.Random(seed)` in this
order: first the shuffle of each resident tie, residents in index order,
then, for a seed other than 0, the order in which the free residents make
their first proposals. The tie shuffles are drawn first, so the proposal
shuffle does not change a seed's shuffles of the residents' ties. On strict
resident lists the proposal order is all a seed changes; where the
hospitals' lists are strict too, every order gives Gale–Shapley's
resident-optimal matching. All of these draws go through one kernel,
`draws.shuffle`, which draws each index as `random.Random.shuffle` does.
"""

from __future__ import annotations

import random
from typing import Callable, Mapping, Sequence

from .core import Instance, Matching, PreferenceList
from .draws import shuffle


def _ties(plist: PreferenceList) -> list[tuple[int, int]]:
    """The (start, end) in the list's entries of each tie of two or more."""
    spans, end = [], 0
    for group in plist.groups:
        start, end = end, end + len(group)
        if end - start > 1:
            spans.append((start, end))
    return spans


def _broken(plist: PreferenceList, getrandbits: Callable[[int], int]) -> list[int]:
    """A fresh copy of the list's entries in order, each tie's members shuffled."""
    entries = list(plist.entries())
    for lo, hi in _ties(plist):
        shuffle(entries, lo, hi, getrandbits)
    return entries


def _deferred_acceptance(
    hosp_rank: Sequence[Mapping[int, int]],
    caps: Sequence[int],
    res_lists: Sequence[Sequence[int]],
    res_rank: Sequence[Mapping[int, int] | None],
    free: list[int],
) -> Matching:
    """Residents apply down `res_lists`; hospitals keep their own ranks.

    Residents, hospitals and the four sequences are indexed by id, with
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
    and the second pass changes nothing. `res_rank` holds a tied resident's
    rank map (one rank, one tie) and None for a strict one, whose run is
    unchanged. A tied resident whose next hospital has no free post swaps
    it in its per-call list (never `entries()`) with the first later member
    of that tie that has one, and applies there. Only untried members of
    the tie move, so the list stays a tie-breaking and the argument holds.
    """
    next_choice = [0] * len(res_lists)
    unpromoted = [1] * len(res_lists)
    holders: list[list[int]] = [[] for _ in caps]
    keys: list[list[int]] = [[] for _ in caps]
    while free:
        i = free.pop()
        prefs = res_lists[i]
        rank = res_rank[i]
        k = next_choice[i]
        while True:
            if k == len(prefs):
                if not (unpromoted[i] and prefs):
                    break
                unpromoted[i] = 0
                k = 0
            j = prefs[k]
            k += 1
            if rank is not None and len(holders[j]) >= caps[j]:
                for m in range(k, len(prefs)):
                    other = prefs[m]
                    if rank[other] != rank[j]:
                        break
                    if len(holders[other]) < caps[other]:
                        prefs[k - 1], prefs[m], j = other, j, other
                        break
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
    getrandbits = random.Random(0).getrandbits
    res_lists: list[Sequence[int]] = [()]
    res_rank: list[Mapping[int, int] | None] = [None]
    for plist in instance.residents:
        strict = plist.is_strict()
        res_lists.append(plist.entries() if strict else _broken(plist, getrandbits))
        res_rank.append(None if strict else plist.ranks())
    hosp_rank: list[Mapping[int, int]] = [{}]
    for hosp in instance.hospitals:
        plist = hosp.preferences
        if plist.is_strict():
            hosp_rank.append(plist.ranks())
        else:
            hosp_rank.append({i: k for k, i in enumerate(_broken(plist, getrandbits), start=1)})
    caps = [0, *(h.capacity for h in instance.hospitals)]
    return _deferred_acceptance(hosp_rank, caps, res_lists, res_rank, [*range(instance.n1, 0, -1)])


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
    res_rank = [None, *(None if p.is_strict() else p.ranks() for p in instance.residents)]
    tied = [(i, _ties(instance.residents[i - 1])) for i, r in enumerate(res_rank) if r is not None]

    def start(seed: int) -> Matching:
        getrandbits = random.Random(seed).getrandbits
        res_lists = list(entries)
        for i, ties in tied:
            broken = res_lists[i] = list(entries[i])
            for lo, hi in ties:
                shuffle(broken, lo, hi, getrandbits)
        free = list(range(n1, 0, -1))
        if seed:
            shuffle(free, 0, n1, getrandbits)
        return _deferred_acceptance(hosp_rank, caps, res_lists, res_rank, free)

    return start
