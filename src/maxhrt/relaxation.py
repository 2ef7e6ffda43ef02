"""The search's relaxation: a capacitated bipartite matching.

A placement puts each resident on at most one of its columns not fixed to
0 (`state[col] == 0`), and each hospital j on at most `caps[j]` of them,
ignoring stability. A resident with `res_match[i] >= 0` is pinned to that
column. `max_placement` finds a maximum placement, whose size bounds every
completion of the fixing; `structural_fixings` reads off which open columns
lie in no maximum placement and which in all of them, from one pass of
Tarjan's strongly connected components over that placement's residual
graph with a source and a sink added.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence


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
    var_hosp: Sequence[int],
    res_vars: Sequence[Sequence[int]],
    state: Sequence[int],
    res_match: Sequence[int],
    place: Sequence[int],
) -> list[tuple[int, int]]:
    """Fixings shared by every maximum placement.

    `place` must be a maximum placement, as `max_placement` leaves it.
    Returns (column, 0) for each open column of an unpinned resident in no
    maximum placement, and (column, 1) for each column of an unpinned
    resident in all of them. This is Régin's reading of the residual graph
    of `place`, with a source s and a sink t: s points to each unplaced
    unpinned resident; an unpinned resident to the hospitals of its other
    open columns, and to s if placed; a hospital to the unpinned residents
    it holds, and to t if it has a spare post; t to s and to each hospital
    holding an unpinned resident. A column off the placement is in some
    maximum placement exactly when its two ends share a strongly connected
    component; a placed column is in all of them when its resident has no
    such column and is not in s's component. s shares t's component
    exactly when an augmenting path exists. Takes O(columns).
    """
    n1, n2 = len(res_vars), len(caps)
    s, t = n1 + n2, n1 + n2 + 1
    load = [0] * n2
    holders: list[list[int]] = [[] for _ in range(n2)]
    for i, col in enumerate(place):
        if col >= 0:
            load[var_hosp[col]] += 1
            if res_match[i] < 0:
                holders[var_hosp[col]].append(i)
    # node i < n1 is a resident, n1 + j a hospital; out[v - n1] lists the
    # successors of node v >= n1 (a hospital, s or t)
    out = [holders[j] + [t] if load[j] < caps[j] else holders[j] for j in range(n2)]
    out.append([i for i in range(n1) if place[i] < 0 and res_match[i] < 0])
    out.append([s] + [n1 + j for j in range(n2) if holders[j]])

    def successors(v: int) -> list[int]:
        if v >= n1:
            return out[v - n1]
        moves = [n1 + var_hosp[w] for w in res_vars[v] if w != place[v] and state[w] != 0]
        return moves + [s] if place[v] >= 0 else moves

    # every unpinned resident is reached from its hospital or from s
    comp = _strong_components(t + 1, range(n1, t + 1), successors)
    if comp[s] == comp[t]:
        raise ValueError("placement is not maximum: it has an augmenting path")

    fixings: list[tuple[int, int]] = []
    for i in range(n1):
        if res_match[i] >= 0 or place[i] < 0:
            continue
        kept = comp[i] == comp[s]
        for w in res_vars[i]:
            if w == place[i] or state[w] == 0:
                continue
            if comp[i] == comp[n1 + var_hosp[w]]:
                kept = True
            else:
                fixings.append((w, 0))
        if not kept:
            fixings.append((place[i], 1))
    return fixings


def _strong_components(
    n: int, roots: Iterable[int], successors: Callable[[int], Sequence[int]]
) -> list[int]:
    """Strongly connected components of the nodes 0..n-1 reachable from `roots`.

    Iterative Tarjan. Returns each reached node's component (the id of one
    of its members), -1 elsewhere.
    """
    comp = [-1] * n
    index = [-1] * n
    low = [0] * n
    stack: list[int] = []
    counter = 0
    for root in roots:
        if index[root] >= 0:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        frames = [(root, iter(successors(root)))]
        while frames:
            v, rest = frames[-1]
            for s in rest:
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
