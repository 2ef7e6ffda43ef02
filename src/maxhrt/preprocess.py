"""Instance reduction for ties on the hospital side only.

Two passes delete pairs that can neither belong to any weakly stable
matching nor block one, so the reduced instance has exactly the same set
of stable matchings while yielding a smaller optimization model.

Pass one (hospitals offer): while some hospital's vacancies can absorb
its whole active tie, the tie's residents are provisionally pulled in
(breaking their previous provisional assignments) and every hospital a
pulled resident ranks strictly below the offering one is cut from its
list. The active tie is the first nonempty tie after a hospital's least
preferred current assignee, or its first nonempty tie while it has no
assignees. Each round offers from the lowest-index eligible hospital. The
pass keeps every eligible hospital's active tie and, after an offer,
re-derives it only for the hospitals that round changed: the offering one
and those that lost a pair, which include the previous hospitals of the
residents it pulled in. Ties keep their original positions, and a tie a
hospital has offered keeps only the residents it still holds, since a
resident that leaves for a better hospital loses its pair with this one.
So every tie after the least preferred assignee's, up to the last tie
offered, is empty, and the active tie is the first nonempty tie after the
last one offered. Each hospital keeps a cursor there that only moves
forward, over ties that stay empty. A round costs O(n2) to select the
offering hospital plus O(1) for each hospital it changed; the cursors
skip each emptied tie once in the whole pass.

Pass two (residents apply): free residents apply down their lists; once
a hospital has at least as many provisional assignees as capacity, every
strict successor of its capacity-th-choice assignee is cut, freeing any
of them that were provisionally assigned. Oversubscription is possible
while the capacity-th assignee sits inside a tie; that is fine, the
provisional assignment only drives deletions and is discarded.
"""

from __future__ import annotations

from collections import deque

from .core import Hospital, Instance, PreferenceList

Pair = tuple[int, int]


class ResidentTiesError(ValueError):
    """Reduction applies only when residents' lists are strictly ordered."""


def _require_strict_residents(instance: Instance) -> None:
    for i, plist in enumerate(instance.residents, start=1):
        if not plist.is_strict():
            raise ResidentTiesError(f"resident r{i} has tied entries")


class _WorkingInstance:
    """Mutable preference structure shared by both passes.

    A hospital's ties keep their original positions: a tie that deletions
    empty stays in place until `to_instance` drops it.
    """

    def __init__(self, instance: Instance):
        self.instance = instance
        self.caps = [h.capacity for h in instance.hospitals]
        self.res_lists = [list(p.entries()) for p in instance.residents]
        self.hosp_groups = [
            [list(g) for g in h.preferences.groups] for h in instance.hospitals
        ]
        # hospital index -> resident -> position of its tie on that hospital's list
        self.tie_of = [
            {r: idx for idx, group in enumerate(groups) for r in group}
            for groups in self.hosp_groups
        ]
        self.deleted: set[Pair] = set()

    def delete_pair(self, resident: int, hospital: int) -> None:
        self.res_lists[resident - 1].remove(hospital)
        self.hosp_groups[hospital - 1][self.tie_of[hospital - 1][resident]].remove(resident)
        self.deleted.add((resident, hospital))

    def successors_on_resident_list(self, resident: int, hospital: int) -> list[int]:
        prefs = self.res_lists[resident - 1]
        return prefs[prefs.index(hospital) + 1 :]

    def to_instance(self) -> Instance:
        """The reduced instance; an agent that lost no pair keeps its original list."""
        residents = list(self.instance.residents)
        for i in {r for r, _ in self.deleted}:
            residents[i - 1] = PreferenceList.strict(self.res_lists[i - 1])
        hospitals = list(self.instance.hospitals)
        for j in {h for _, h in self.deleted}:
            groups = self.hosp_groups[j - 1]
            hospitals[j - 1] = Hospital(
                self.caps[j - 1], PreferenceList(tuple(tuple(g) for g in groups if g))
            )
        return Instance(residents=tuple(residents), hospitals=tuple(hospitals))


def hospitals_offer(instance: Instance) -> tuple[Instance, set[Pair]]:
    """First reduction pass; returns the reduced instance and deleted pairs."""
    _require_strict_residents(instance)
    work = _WorkingInstance(instance)

    assigned: dict[int, int] = {}
    vacancies = list(work.caps)
    # hospital index -> position of its first tie after the last one it offered
    cursor = [0] * instance.n2
    offers: dict[int, list[int]] = {}  # eligible hospital -> its active tie

    def refresh(j: int) -> None:
        groups = work.hosp_groups[j - 1]
        pos = cursor[j - 1]
        while pos < len(groups) and not groups[pos]:
            pos += 1
        cursor[j - 1] = pos
        if pos < len(groups) and len(groups[pos]) <= vacancies[j - 1]:
            offers[j] = groups[pos]
        else:
            offers.pop(j, None)

    for j in range(1, instance.n2 + 1):
        refresh(j)
    while offers:
        j = min(offers)
        changed = {j}
        # Only hospitals below j on a resident's list lose pairs, so j's own
        # tie stays intact while it is walked. A pulled resident's previous
        # hospital is one of them: it lost every hospital below it when it
        # took the resident, and j still lists the resident.
        for r in offers[j]:
            previous = assigned.get(r)
            if previous is not None:
                vacancies[previous - 1] += 1
            assigned[r] = j
            vacancies[j - 1] -= 1
            for successor in work.successors_on_resident_list(r, j):
                work.delete_pair(r, successor)
                changed.add(successor)
        cursor[j - 1] += 1
        for h in changed:
            refresh(h)
    return work.to_instance(), work.deleted


def residents_apply(instance: Instance) -> tuple[Instance, set[Pair]]:
    """Second reduction pass; returns the reduced instance and deleted pairs."""
    _require_strict_residents(instance)
    work = _WorkingInstance(instance)

    holders: list[set[int]] = [set() for _ in range(instance.n2)]
    free = deque(range(1, instance.n1 + 1))

    while free:
        r = free.popleft()
        prefs = work.res_lists[r - 1]
        if not prefs:
            continue
        j = prefs[0]
        held = holders[j - 1]
        held.add(r)
        cap = work.caps[j - 1]
        if len(held) < cap:
            continue
        groups = work.hosp_groups[j - 1]
        if cap == 0:
            # No assignee can ever be kept: every listed resident is cut.
            threshold = -1
        else:
            tie_of = work.tie_of[j - 1]
            threshold = sorted(tie_of[m] for m in held)[cap - 1]
        doomed = [m for group in groups[threshold + 1 :] for m in group]
        for victim in doomed:
            if victim in held:
                held.remove(victim)
                free.append(victim)
            work.delete_pair(victim, j)
    return work.to_instance(), work.deleted


def reduce_instance(instance: Instance) -> tuple[Instance, set[Pair]]:
    """Both passes in sequence; the stable-matching set is preserved."""
    offered, deleted_first = hospitals_offer(instance)
    reduced, deleted_second = residents_apply(offered)
    return reduced, deleted_first | deleted_second
