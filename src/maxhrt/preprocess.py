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
residents it pulled in. Ties keep their original positions, so a
hospital's active tie is found from the largest tie position among its
assignees. A round costs O(n2) to select the offering hospital plus, for
each hospital it changed, that hospital's assignee count and the emptied
ties it skips.

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
        return Instance(
            residents=tuple(PreferenceList.strict(lst) for lst in self.res_lists),
            hospitals=tuple(
                Hospital(c, PreferenceList(tuple(tuple(g) for g in groups if g)))
                for c, groups in zip(self.caps, self.hosp_groups)
            ),
        )


def _active_tie(work: _WorkingInstance, hospital: int, assignees: set[int]) -> list[int]:
    """The first nonempty tie after the least preferred assignee's (from the top if none)."""
    groups = work.hosp_groups[hospital - 1]
    tie_of = work.tie_of[hospital - 1]
    for idx in range(max((tie_of[r] for r in assignees), default=-1) + 1, len(groups)):
        if groups[idx]:
            return groups[idx]
    return []


def hospitals_offer(instance: Instance) -> tuple[Instance, set[Pair]]:
    """First reduction pass; returns the reduced instance and deleted pairs."""
    _require_strict_residents(instance)
    work = _WorkingInstance(instance)

    assigned: dict[int, int] = {}
    assignees: list[set[int]] = [set() for _ in range(instance.n2)]
    vacancies = list(work.caps)
    offers: dict[int, list[int]] = {}  # eligible hospital -> its active tie

    def refresh(j: int) -> None:
        tie = _active_tie(work, j, assignees[j - 1])
        if 0 < len(tie) <= vacancies[j - 1]:
            offers[j] = tie
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
                assignees[previous - 1].discard(r)
                vacancies[previous - 1] += 1
            assigned[r] = j
            assignees[j - 1].add(r)
            vacancies[j - 1] -= 1
            for successor in work.successors_on_resident_list(r, j):
                work.delete_pair(r, successor)
                changed.add(successor)
        for h in changed:
            refresh(h)
    return work.to_instance(), work.deleted


def residents_apply(instance: Instance) -> tuple[Instance, set[Pair]]:
    """Second reduction pass; returns the reduced instance and deleted pairs."""
    _require_strict_residents(instance)
    work = _WorkingInstance(instance)

    assigned: dict[int, int] = {}
    count = [0] * instance.n2
    free = deque(range(1, instance.n1 + 1))

    while free:
        r = free.popleft()
        prefs = work.res_lists[r - 1]
        if not prefs:
            continue
        j = prefs[0]
        assigned[r] = j
        count[j - 1] += 1
        cap = work.caps[j - 1]
        if count[j - 1] < cap:
            continue
        groups = work.hosp_groups[j - 1]
        if cap == 0:
            # No assignee can ever be kept: every listed resident is cut.
            threshold = -1
        else:
            group_of = {}
            for idx, group in enumerate(groups):
                for member in group:
                    if assigned.get(member) == j:
                        group_of[member] = idx
            ranks = sorted(group_of.values())
            threshold = ranks[cap - 1]
        doomed = [m for group in groups[threshold + 1 :] for m in group]
        for victim in doomed:
            if assigned.get(victim) == j:
                del assigned[victim]
                count[j - 1] -= 1
                free.append(victim)
            work.delete_pair(victim, j)
    return work.to_instance(), work.deleted


def reduce_instance(instance: Instance) -> tuple[Instance, set[Pair]]:
    """Both passes in sequence; the stable-matching set is preserved."""
    offered, deleted_first = hospitals_offer(instance)
    reduced, deleted_second = residents_apply(offered)
    return reduced, deleted_first | deleted_second
