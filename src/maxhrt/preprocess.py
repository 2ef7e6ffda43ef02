"""Instance reduction for ties on the hospital side only.

Two passes delete pairs that can neither belong to any weakly stable
matching nor block one, so the reduced instance has exactly the same set
of stable matchings while yielding a smaller optimization model.

Pass one (hospitals offer): while some hospital's vacancies can absorb
its whole active tie, the tie's residents are provisionally pulled in
(breaking their previous provisional assignments) and every hospital a
pulled resident ranks strictly below the offering one is cut from its
list, with one truncation of that list. The active tie is the first
nonempty tie after the hospital's least preferred assignee's (its first
while it has none); since a resident that leaves for a better hospital
loses its pair with this one, that is the first nonempty tie after the
last one it offered, and offering an emptied tie changes nothing.
Hospitals are taken from a stack, h1 on top; an offer pushes the
offering hospital and every hospital that lost a pair, a pulled
resident's previous one among them. The offer order changes neither the
deletions nor the result.

Pass two (residents apply): free residents apply down their lists; once
a hospital has at least as many provisional assignees as capacity, every
strict successor of its capacity-th-choice assignee is cut, freeing any
of them that were provisionally assigned. The cut drops the tail of the
hospital's list of ties at once. Each hospital keeps its assignees'
ranks in a sorted list, so the capacity-th assignee's rank is read off
by index. Oversubscription is possible while the capacity-th
assignee sits inside a tie; that is fine, the provisional assignment
only drives deletions and is discarded.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from collections import deque

from .core import Hospital, Instance, PreferenceList

Pair = tuple[int, int]


class ResidentTiesError(ValueError):
    """Reduction applies only when residents' lists are strictly ordered."""


class _WorkingInstance:
    """Mutable preference structure shared by both passes.

    It accepts only strict resident lists: it raises `ResidentTiesError`
    at the first resident with a tie while it copies their lists. Each
    pass cuts lists on one side with one truncation and removes the
    matching entries on the other side one at a time.

    A hospital's list has a slot for each rank of the list it started
    with. Each tie sits in the slot of its rank, as the list of its
    residents still listed; slot 0 and the slots of ranks that no tie has
    hold an empty tuple. So a resident's tie is found from the starting
    list's rank map, and no tie ever moves: a tie that deletions empty
    stays in place until `to_instance` drops it, and cutting the list's
    tail leaves the slots before it unchanged.
    """

    def __init__(self, instance: Instance):
        self.instance = instance
        self.caps = [h.capacity for h in instance.hospitals]
        self.res_lists: list[list[int]] = []
        for i, plist in enumerate(instance.residents, start=1):
            if not plist.is_strict():
                raise ResidentTiesError(f"resident r{i} has tied entries")
            self.res_lists.append(list(plist.entries()))
        # hospital index -> resident -> rank on the starting list; read-only
        self.hosp_ranks = [h.preferences.ranks() for h in instance.hospitals]
        self.hosp_ties: list[list] = []
        for hospital, ranks in zip(instance.hospitals, self.hosp_ranks):
            ties: list = [()] * (len(ranks) + 1)
            for group in hospital.preferences.groups:
                ties[ranks[group[0]]] = list(group)
            self.hosp_ties.append(ties)
        self.deleted: set[Pair] = set()

    def cut_resident_list(self, resident: int, hospital: int) -> list[int]:
        """Delete the pairs of `resident` with the hospitals it ranks below `hospital`.

        Returns those hospitals.
        """
        prefs = self.res_lists[resident - 1]
        keep = prefs.index(hospital) + 1
        cut = prefs[keep:]
        del prefs[keep:]
        for h in cut:
            self.hosp_ties[h - 1][self.hosp_ranks[h - 1][resident]].remove(resident)
            self.deleted.add((resident, h))
        return cut

    def cut_hospital_list(self, hospital: int, rank: int) -> list[int]:
        """Delete the pairs of `hospital` with the residents it ranks below `rank`.

        Returns those residents, best tie first.
        """
        ties = self.hosp_ties[hospital - 1]
        cut = [r for tie in ties[rank + 1 :] for r in tie]
        del ties[rank + 1 :]
        for r in cut:
            self.res_lists[r - 1].remove(hospital)
            self.deleted.add((r, hospital))
        return cut

    def to_instance(self) -> Instance:
        """The reduced instance; an agent that lost no pair keeps its original list."""
        residents = list(self.instance.residents)
        for i in {r for r, _ in self.deleted}:
            residents[i - 1] = PreferenceList(tuple(zip(self.res_lists[i - 1])))
        hospitals = list(self.instance.hospitals)
        for j in {h for _, h in self.deleted}:
            groups = tuple(map(tuple, filter(None, self.hosp_ties[j - 1])))
            hospitals[j - 1] = Hospital(self.caps[j - 1], PreferenceList(groups))
        return Instance(residents=tuple(residents), hospitals=tuple(hospitals))


def hospitals_offer(instance: Instance) -> tuple[Instance, set[Pair]]:
    """First reduction pass; returns the reduced instance and deleted pairs."""
    work = _WorkingInstance(instance)

    assigned: dict[int, int] = {}
    vacancies = list(work.caps)
    # hospital index -> slot of the first tie it has not offered
    cursor = [0] * instance.n2
    pending = list(range(instance.n2, 0, -1))  # hospitals to examine, h1 on top
    while pending:
        j = pending.pop()
        ties = work.hosp_ties[j - 1]
        pos = cursor[j - 1]
        if pos == len(ties) or len(ties[pos]) > vacancies[j - 1]:
            continue
        cursor[j - 1] = pos + 1
        pending.append(j)
        # The cuts spare j's own list, so its tie stays whole while walked.
        for r in ties[pos]:
            previous = assigned.get(r)
            if previous is not None:
                vacancies[previous - 1] += 1
            assigned[r] = j
            vacancies[j - 1] -= 1
            pending += work.cut_resident_list(r, j)
    return work.to_instance(), work.deleted


def residents_apply(instance: Instance) -> tuple[Instance, set[Pair]]:
    """Second reduction pass; returns the reduced instance and deleted pairs."""
    work = _WorkingInstance(instance)

    holders: list[set[int]] = [set() for _ in range(instance.n2)]
    # hospital index -> ranks of its provisional assignees, sorted
    held_ranks: list[list[int]] = [[] for _ in range(instance.n2)]
    free = deque(range(1, instance.n1 + 1))

    while free:
        r = free.popleft()
        prefs = work.res_lists[r - 1]
        if not prefs:
            continue
        j = prefs[0]
        held = holders[j - 1]
        held.add(r)
        ranks = held_ranks[j - 1]
        insort(ranks, work.hosp_ranks[j - 1][r])
        cap = work.caps[j - 1]
        if len(held) < cap:
            continue
        # The rank of the capacity-th assignee; with no post, every listed
        # resident is cut.
        threshold = ranks[cap - 1] if cap else 0
        del ranks[bisect_right(ranks, threshold) :]
        for victim in work.cut_hospital_list(j, threshold):
            if victim in held:
                held.remove(victim)
                free.append(victim)
    return work.to_instance(), work.deleted


def reduce_instance(instance: Instance) -> tuple[Instance, set[Pair]]:
    """Both passes in sequence; the stable-matching set is preserved."""
    offered, deleted_first = hospitals_offer(instance)
    reduced, deleted_second = residents_apply(offered)
    return reduced, deleted_first | deleted_second
