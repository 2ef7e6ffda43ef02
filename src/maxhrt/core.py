"""Domain model: instances with tied preference lists, matchings, ranks, stability.

Residents are numbered 1..n1 and hospitals 1..n2. A preference list is an
ordered sequence of ties (indifference groups); a strict entry is a tie of
size one. A pair (resident, hospital) is acceptable when each side lists the
other; the rank maps hold exactly the acceptable pairs.

`Instance` decides validity in one pass of builtin calls over whole lists.
Only an instance that fails it is walked item by item, in index order, to
word its first error. A `PreferenceList` is short, so its one loop builds
the rank map and raises at the first empty group or repeated id.

A `PreferenceList` derives its flat entries and its rank map once, when it
is built, and every later read returns them. `RankTable` shares those rank
maps rather than copying them, so both are read-only: nothing may mutate a
dict that `PreferenceList.ranks` or a `RankTable` hands out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import Iterable, Iterator, Mapping, Sequence

INFINITY = math.inf


class InstanceError(ValueError):
    """Instance data violates a structural invariant."""


@dataclass(frozen=True)
class PreferenceList:
    """Ordered groups of agent ids; ids within one group are tied.

    The entries and the rank map are derived once, in `__post_init__`;
    they are not fields, so equality and hashing still compare `groups`.
    A group tuple may be shared by many lists (the parser shares each id's
    1-tuple), so compare groups by value, never by identity.
    """

    groups: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        ranks: dict[int, int] = {}
        for group in self.groups:
            if not group:
                raise InstanceError("empty tie group")
            # no id repeats so far, so this counts the ids in earlier groups
            rank = len(ranks) + 1
            for agent in group:
                if agent in ranks:
                    raise InstanceError(f"agent {agent} listed twice")
                ranks[agent] = rank
        object.__setattr__(self, "_ranks", ranks)
        object.__setattr__(self, "_entries", tuple(ranks))

    @staticmethod
    def strict(entries: Iterable[int]) -> "PreferenceList":
        return PreferenceList(tuple((e,) for e in entries))

    def entries(self) -> tuple[int, ...]:
        """All listed ids, best group first, in stored order."""
        return self._entries

    def ranks(self) -> dict[int, int]:
        """Map id -> rank, where all members of one tie share a rank; read-only.

        The rank of an entry is 1 + the number of ids strictly preferred
        to it, i.e. the count of ids in earlier groups.
        """
        return self._ranks

    def is_strict(self) -> bool:
        return len(self.groups) == len(self._entries)

    def without(self, removed: set[int]) -> "PreferenceList":
        """Copy with the given ids dropped; empty groups disappear."""
        kept = tuple(
            tuple(a for a in group if a not in removed) for group in self.groups
        )
        return PreferenceList(tuple(g for g in kept if g))

    def __len__(self) -> int:
        return len(self._entries)


def one_sided_pairs(
    residents: Sequence[PreferenceList], hospitals: Sequence[PreferenceList]
) -> tuple[set[tuple[int, int]], set[tuple[int, int]]]:
    """The (resident, hospital) pairs that only residents list, and only hospitals.

    Every listed id must be in range. `Instance` decides mutuality in its
    own pass, so this runs on lists known not to be mutual, to name or
    prune their one-sided pairs. Each side's entries are looked up in the
    other side's rank maps, so only the one-sided pairs are built.
    """
    # index a holds agent a's rank map, so index 0 lists nothing
    res_ranks = [{}, *map(PreferenceList.ranks, residents)]
    hosp_ranks = [{}, *map(PreferenceList.ranks, hospitals)]
    return (
        {(i, h) for i, ranks in enumerate(res_ranks) for h in ranks if i not in hosp_ranks[h]},
        {(r, j) for j, ranks in enumerate(hosp_ranks) for r in ranks if j not in res_ranks[r]},
    )


@dataclass(frozen=True)
class Hospital:
    capacity: int
    preferences: PreferenceList


@dataclass(frozen=True)
class Instance:
    """An HRT instance: resident lists, hospital capacities and lists.

    Mutual acceptability is required: hospital j appears on resident i's
    list iff resident i appears on hospital j's list. Inputs that break
    this must be pruned before construction (the parser does).

    One pass over the hospitals decides validity: capacities, ids by `min`
    and `max`, each listed resident listing the hospital back, and as many
    pairs on each side. Only an instance that fails is walked, residents
    first, to word its first error.
    """

    residents: tuple[PreferenceList, ...]
    hospitals: tuple[Hospital, ...]

    def __post_init__(self) -> None:
        n1, n2 = len(self.residents), len(self.hospitals)
        if n1 < 1 or n2 < 1:
            raise InstanceError("need at least one resident and one hospital")
        # index r holds resident r's rank map, so index 0 lists nothing
        res_ranks = [{}, *map(PreferenceList.ranks, self.residents)]
        listed = 0
        for j, hosp in enumerate(self.hospitals, start=1):
            entries = hosp.preferences.entries()
            in_range = not entries or 1 <= min(entries) and max(entries) <= n1
            if (
                hosp.capacity < 0
                or not in_range
                or not all(map(dict.__contains__, map(res_ranks.__getitem__, entries), repeat(j)))
            ):
                break
            listed += len(entries)
        else:
            # every hospital pair is a resident pair, so as many on each
            # side makes them the same pairs
            if listed == sum(map(len, res_ranks)):
                return
        # invalid: walk the lists in index order to word the first error
        for i, plist in enumerate(self.residents, start=1):
            entries = plist.entries()
            if entries and (min(entries) < 1 or max(entries) > n2):
                h = next(h for h in entries if not 1 <= h <= n2)
                raise InstanceError(f"resident r{i} lists unknown hospital h{h}")
        for j, hosp in enumerate(self.hospitals, start=1):
            if hosp.capacity < 0:
                raise InstanceError(f"hospital h{j} has negative capacity")
            entries = hosp.preferences.entries()
            if entries and (min(entries) < 1 or max(entries) > n1):
                r = next(r for r in entries if not 1 <= r <= n1)
                raise InstanceError(f"hospital h{j} lists unknown resident r{r}")
        res_only, hosp_only = one_sided_pairs(
            self.residents, [h.preferences for h in self.hospitals]
        )
        r, j = min(res_only | hosp_only)
        side = "r{0} lists h{1} only" if (r, j) in res_only else "h{1} lists r{0} only"
        raise InstanceError(f"pair (r{r}, h{j}) is not mutual: " + side.format(r, j))

    @property
    def n1(self) -> int:
        return len(self.residents)

    @property
    def n2(self) -> int:
        return len(self.hospitals)

    def capacity(self, hospital: int) -> int:
        return self.hospitals[hospital - 1].capacity

    def acceptable_pairs(self) -> list[tuple[int, int]]:
        """All acceptable (resident, hospital) pairs in resident list order."""
        return [
            (i, h)
            for i, plist in enumerate(self.residents, start=1)
            for h in plist.entries()
        ]

    def is_acceptable(self, resident: int, hospital: int) -> bool:
        return hospital in self.residents[resident - 1].ranks()


@dataclass(frozen=True)
class RankTable:
    """Ranks for both directions of every acceptable pair, and of no other.

    Pair (i, j) has `resident_ranks[i-1][j]` and `hospital_ranks[j-1][i]`.
    The dicts are the instance's own `PreferenceList.ranks` maps, shared
    and read-only.
    """

    resident_ranks: tuple[dict[int, int], ...]
    hospital_ranks: tuple[dict[int, int], ...]


def build_rank_table(instance: Instance) -> RankTable:
    return RankTable(
        resident_ranks=tuple(p.ranks() for p in instance.residents),
        hospital_ranks=tuple(h.preferences.ranks() for h in instance.hospitals),
    )


@dataclass(frozen=True)
class Matching:
    """Partial assignment of residents to hospitals (absent = unmatched)."""

    assignment: Mapping[int, int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "assignment", dict(self.assignment))

    @staticmethod
    def from_pairs(pairs: Iterable[tuple[int, int]]) -> "Matching":
        out: dict[int, int] = {}
        for r, h in pairs:
            if r in out:
                raise ValueError(f"resident r{r} assigned twice")
            out[r] = h
        return Matching(out)

    def hospital_of(self, resident: int) -> int | None:
        return self.assignment.get(resident)

    def pairs(self) -> Iterator[tuple[int, int]]:
        return iter(sorted(self.assignment.items()))

    def __len__(self) -> int:
        return len(self.assignment)

    def __hash__(self) -> int:
        return hash(frozenset(self.assignment.items()))


@dataclass(frozen=True)
class Violation:
    message: str


def validate_matching(instance: Instance, matching: Matching) -> list[Violation]:
    """Check matching invariants; one violation record per breach."""
    violations: list[Violation] = []
    load: dict[int, int] = {}
    n1, n2, residents = instance.n1, instance.n2, instance.residents
    for r, h in matching.pairs():
        if not 1 <= r <= n1 or not 1 <= h <= n2:
            violations.append(Violation(f"pair (r{r}, h{h}) out of range"))
            continue
        if h not in residents[r - 1].ranks():
            violations.append(Violation(f"pair (r{r}, h{h}) is not acceptable"))
        load[h] = load.get(h, 0) + 1
    for h, count in sorted(load.items()):
        cap = instance.capacity(h)
        if count > cap:
            violations.append(Violation(f"hospital h{h} has {count} assignees, capacity {cap}"))
    return violations


def blocking_pairs(
    instance: Instance, ranks: RankTable, matching: Matching
) -> list[tuple[int, int]]:
    """All acceptable pairs that block the matching.

    Resident i blocks with a hospital h it ranks above its assignment when
    h has a free post or ranks i above its worst assignee, so each
    hospital's bar is taken once: INFINITY while it has a free post, else
    its worst assignee's rank (0 for an empty hospital with no post).
    """
    res_ranks, hosp_ranks = ranks.resident_ranks, ranks.hospital_ranks
    assignment = matching.assignment
    holders: dict[int, list[int]] = {j: [] for j in range(1, instance.n2 + 1)}
    for r, h in assignment.items():
        holders[h].append(r)
    bar: list[float] = []
    for held, hosp, rank in zip(holders.values(), instance.hospitals, hosp_ranks):
        if len(held) < hosp.capacity:
            bar.append(INFINITY)
        else:
            bar.append(max((rank.get(r, INFINITY) for r in held), default=0))
    out = []
    for i, rank in enumerate(res_ranks, start=1):
        # None is never a key, so an unmatched resident's rank is INFINITY
        assigned_rank = rank.get(assignment.get(i), INFINITY)
        for h, r_rank in rank.items():
            if r_rank >= assigned_rank:
                break
            if hosp_ranks[h - 1].get(i, INFINITY) < bar[h - 1]:
                out.append((i, h))
    return out


def certify(instance: Instance, ranks: RankTable, matching: Matching) -> str | None:
    """Why the matching is not a weakly stable matching of the instance, or None.

    The reason reads as a predicate of the matching (e.g. "is not weakly
    stable in the instance: (r1, h2) blocks"), so callers prefix a subject.
    """
    violations = validate_matching(instance, matching)
    if violations:
        return f"is not a valid matching for the instance: {violations[0].message}"
    blockers = blocking_pairs(instance, ranks, matching)
    if blockers:
        r, h = blockers[0]
        return f"is not weakly stable in the instance: (r{r}, h{h}) blocks"
    return None
