"""Exhaustive enumeration of all weakly stable matchings of small instances.

Ground truth for optimality and reduction-preservation checks. The search
walks capacity-respecting assignments of residents (in index order) to
their acceptable hospitals or to nothing, pruning a branch only when a
pair is already blocking regardless of how the assignment is completed,
and filters leaves through the full stability predicate.
"""

from __future__ import annotations

from dataclasses import dataclass

from maxhrt.core import Instance, Matching, blocking_pairs, build_rank_table


@dataclass(frozen=True)
class OracleLimit:
    max_residents: int = 12
    max_pairs: int = 24
    node_budget: int = 5_000_000


class OracleLimitError(ValueError):
    """Instance exceeds enumeration limits; refusing rather than truncating."""


def enumerate_stable_matchings(
    instance: Instance, limit: OracleLimit | None = None
) -> set[Matching]:
    limit = limit or OracleLimit()
    if instance.n1 > limit.max_residents:
        raise OracleLimitError(
            f"{instance.n1} residents exceeds limit {limit.max_residents}"
        )
    pairs = instance.acceptable_pairs()
    if len(pairs) > limit.max_pairs:
        raise OracleLimitError(f"{len(pairs)} pairs exceeds limit {limit.max_pairs}")

    ranks = build_rank_table(instance)
    n1, n2 = instance.n1, instance.n2
    res_rank = [ranks.resident_ranks[i] for i in range(n1)]
    hosp_rank = [ranks.hospital_ranks[j] for j in range(n2)]
    options = [list(p.entries()) for p in instance.residents]
    caps = [h.capacity for h in instance.hospitals]

    assigned: list[int | None] = [None] * n1
    holders: list[list[int]] = [[] for _ in range(n2)]
    found: set[Matching] = set()
    nodes = 0

    def would_block_forever(i: int, choice: int | None) -> bool:
        # Hospitals only gain assignees deeper in this branch, so a pair
        # (r_i, h) with an already-worse assignee blocks every completion.
        my_rank = res_rank[i].get(choice) if choice is not None else None
        for h in options[i]:
            if my_rank is not None and res_rank[i][h] >= my_rank:
                continue
            rank_here = hosp_rank[h - 1][i + 1]
            if any(hosp_rank[h - 1][p] > rank_here for p in holders[h - 1]):
                return True
        if choice is None:
            return False
        # Symmetric check: r_i joining `choice` may seal the fate of an
        # earlier resident that prefers `choice` over its own assignment.
        new_rank = hosp_rank[choice - 1][i + 1]
        for p in range(1, i + 1):
            if choice not in res_rank[p - 1]:
                continue
            a = assigned[p - 1]
            prefers = a is None or res_rank[p - 1][choice] < res_rank[p - 1][a]
            if prefers and hosp_rank[choice - 1][p] < new_rank:
                return True
        return False

    def walk(i: int) -> None:
        nonlocal nodes
        nodes += 1
        if nodes > limit.node_budget:
            raise OracleLimitError(f"node budget {limit.node_budget} exhausted")
        if i == n1:
            matching = Matching(
                {r + 1: h for r, h in enumerate(assigned) if h is not None}
            )
            if not blocking_pairs(instance, ranks, matching):
                found.add(matching)
            return
        for choice in options[i] + [None]:
            if choice is not None and len(holders[choice - 1]) >= caps[choice - 1]:
                continue
            if would_block_forever(i, choice):
                continue
            assigned[i] = choice
            if choice is not None:
                holders[choice - 1].append(i + 1)
            walk(i + 1)
            if choice is not None:
                holders[choice - 1].pop()
            assigned[i] = None

    walk(0)
    return found


def max_stable_size(instance: Instance, limit: OracleLimit | None = None) -> int:
    """Maximum matched-resident count over all weakly stable matchings."""
    return max(len(m) for m in enumerate_stable_matchings(instance, limit))
