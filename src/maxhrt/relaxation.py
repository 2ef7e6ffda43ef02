"""The search's relaxation: a capacitated bipartite matching.

A placement puts each resident on at most one of its columns not fixed to
0 (`state[col] == 0`), and each hospital j on at most `caps[j]` of them,
ignoring stability. A resident with `res_match[i] >= 0` is pinned to that
column. `max_placement` finds a maximum placement, whose size bounds every
completion of the fixing; `structural_fixings` reads off which open columns
lie in no maximum placement and which in all of them.
"""

from __future__ import annotations

from typing import Callable, Sequence


def max_placement(
    caps: Sequence[int],
    var_hosp: Sequence[int],
    res_vars: Sequence[Sequence[int]],
    state: Sequence[int],
    res_match: Sequence[int],
    place: list[int],
) -> int:
    """Most residents placeable ignoring stability, grown from `place`.

    `place[i]` is the column resident i starts on, or -1. A pinned
    resident never moves. The start is repaired first: pinned residents
    move to their column, placements on a column fixed to 0 are dropped,
    and unpinned holders beyond a hospital's capacity are evicted (highest
    resident index first). Then each unplaced resident gets one
    augmenting-path search over its columns not fixed to 0. By Kuhn's
    argument the result is maximum whatever the start. `place` is updated
    in place; returns the number placed.

    Two shortcuts leave the placement unchanged. A holder with one column
    is not pushed: that column's hospital is the one just visited. A failed
    search leaves the hospitals it visited full, each movable holder
    listing only hospitals among them, so no later path can enter them:
    they stay dead for the rest of the call.
    """
    n2 = len(caps)
    holders: list[list[int]] = [[] for _ in range(n2)]
    for i, m in enumerate(res_match):
        if m >= 0:
            place[i] = m
            holders[var_hosp[m]].append(i)
    for i, col in enumerate(place):
        if col < 0 or res_match[i] >= 0:
            continue
        j = var_hosp[col]
        if state[col] == 0 or len(holders[j]) >= caps[j]:
            place[i] = -1
        else:
            holders[j].append(i)

    visited = [0] * n2  # stamp of the search that visited it; `dead` once one failed
    dead = len(place) + 1  # above every stamp
    stamp = 0

    def augment(root: int) -> bool:
        # Depth first with an explicit stack, so a path may be as long as
        # there are hospitals. A frame is a resident on the path, its columns
        # still to try, the column being tried and that hospital's holders
        # still to try.
        frames = [[root, iter(res_vars[root]), -1, iter(())]]
        seen: list[int] = []
        while frames:
            frame = frames[-1]
            p = next((p for p in frame[3] if res_match[p] < 0 and len(res_vars[p]) > 1), -1)
            if p >= 0:
                frames.append([p, iter(res_vars[p]), -1, iter(())])
                continue
            i = frame[0]
            for col in frame[1]:
                if state[col] == 0:
                    continue
                j = var_hosp[col]
                if visited[j] >= stamp:
                    continue
                visited[j] = stamp
                seen.append(j)
                if len(holders[j]) < caps[j]:
                    # a spare post: each resident on the path takes its column
                    holders[j].append(i)
                    place[i] = col
                    frames.pop()
                    while frames:
                        parent, _, col, _ = frames.pop()
                        j = var_hosp[col]
                        holders[j].remove(i)
                        holders[j].append(parent)
                        place[parent] = col
                        i = parent
                    return True
                frame[2] = col
                frame[3] = iter(list(holders[j]))
                break
            else:
                frames.pop()
        for j in seen:
            visited[j] = dead
        return False

    placed = 0
    for i, col in enumerate(place):
        if col >= 0:
            placed += 1
        else:
            stamp += 1
            if augment(i):
                placed += 1
    return placed


def structural_fixings(
    caps: Sequence[int],
    var_res: Sequence[int],
    var_hosp: Sequence[int],
    res_vars: Sequence[Sequence[int]],
    hosp_vars: Sequence[Sequence[int]],
    state: Sequence[int],
    res_match: Sequence[int],
    place: Sequence[int],
) -> list[tuple[int, int]]:
    """Fixings shared by every maximum placement.

    `place` must be a maximum placement, as `max_placement` leaves it.
    Returns (column, 0) for each open column of an unpinned resident in no
    maximum placement, and (column, 1) for each column of an unpinned
    resident in all of them. This is the Dulmage-Mendelsohn structure of
    `place`, read as a digraph in which an unpinned resident points to the
    hospitals of its other open columns and a hospital to the unpinned
    residents it holds. A column off the placement is in some maximum
    placement exactly when its resident is reachable from an unplaced
    resident, its hospital reaches a hospital with a spare post, or both
    ends share a strongly connected component; a placed column is in all
    of them when its resident has no such column and is not reachable from
    an unplaced one. Takes O(columns).
    """
    n1, n2 = len(res_vars), len(caps)
    load = [0] * n2
    holders: list[list[int]] = [[] for _ in range(n2)]
    for i, col in enumerate(place):
        if col >= 0:
            load[var_hosp[col]] += 1
            if res_match[i] < 0:
                holders[var_hosp[col]].append(i)

    def moves(i: int) -> list[int]:
        """Hospitals of unpinned resident i's open columns off the placement."""
        return [var_hosp[w] for w in res_vars[i] if w != place[i] and state[w] != 0]

    # residents reachable from an unplaced one, and the hospitals passed
    res_free = [col < 0 for col in place]
    hosp_free = [False] * n2
    stack = [i for i in range(n1) if res_free[i]]
    while stack:
        for j in moves(stack.pop()):
            if not hosp_free[j]:
                hosp_free[j] = True
                for p in holders[j]:
                    if not res_free[p]:
                        res_free[p] = True
                        stack.append(p)

    # hospitals that reach one with a spare post, and the residents passed
    hosp_spare = [load[j] < caps[j] for j in range(n2)]
    res_spare = [False] * n1
    stack = [j for j in range(n2) if hosp_spare[j]]
    while stack:
        for w in hosp_vars[stack.pop()]:
            i = var_res[w]
            if state[w] == 0 or w == place[i] or res_spare[i]:
                continue
            if place[i] < 0:
                raise ValueError(f"placement is not maximum: resident {i} has an augmenting path")
            res_spare[i] = True
            h = var_hosp[place[i]]
            if not hosp_spare[h]:
                hosp_spare[h] = True
                stack.append(h)

    # node i < n1 is a resident, n1 + j a hospital
    rest = [res_match[i] < 0 and not (res_free[i] or res_spare[i]) for i in range(n1)]
    rest += [not (hosp_free[j] or hosp_spare[j]) for j in range(n2)]
    comp = _strong_components(
        rest, lambda v: [n1 + j for j in moves(v)] if v < n1 else holders[v - n1]
    )

    fixings: list[tuple[int, int]] = []
    for i in range(n1):
        if res_match[i] >= 0 or res_free[i]:
            continue
        kept = False
        for w in res_vars[i]:
            if w == place[i] or state[w] == 0:
                continue
            j = var_hosp[w]
            if hosp_spare[j] or (rest[i] and comp[i] == comp[n1 + j]):
                kept = True
            else:
                fixings.append((w, 0))
        if not kept:
            fixings.append((place[i], 1))
    return fixings


def _strong_components(
    alive: Sequence[bool], successors: Callable[[int], Sequence[int]]
) -> list[int]:
    """Strongly connected components of the digraph on the alive nodes.

    Iterative Tarjan; edges to nodes not alive are ignored. Returns each
    alive node's component (the id of one of its members), -1 elsewhere.
    """
    n = len(alive)
    comp = [-1] * n
    index = [-1] * n
    low = [0] * n
    stack: list[int] = []
    counter = 0
    for root in range(n):
        if not alive[root] or index[root] >= 0:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        frames = [(root, iter(successors(root)))]
        while frames:
            v, rest = frames[-1]
            for s in rest:
                if not alive[s]:
                    continue
                if index[s] < 0:
                    index[s] = low[s] = counter
                    counter += 1
                    stack.append(s)
                    frames.append((s, iter(successors(s))))
                    break
                if comp[s] < 0:  # still on the stack
                    low[v] = min(low[v], index[s])
            else:
                frames.pop()
                if frames:
                    u = frames[-1][0]
                    low[u] = min(low[u], low[v])
                if low[v] == index[v]:
                    while True:
                        s = stack.pop()
                        comp[s] = v
                        if s == v:
                            break
    return comp
