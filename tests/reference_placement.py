"""The relaxation's placement as it was before failed searches were cut short.

Each augmenting-path search starts afresh: it pushes every movable holder,
even one whose only column is the hospital just visited, and hospitals a
failed search explored are explored again by the next one. `test_solver`
compares `relaxation.max_placement` against it, on the return value and the
placement left in `place`.
"""

from typing import Sequence


def reference_max_placement(
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

    visited = [0] * n2
    stamp = 0

    def augment(root: int) -> bool:
        # Depth first with an explicit stack, so a path may be as long as
        # there are hospitals. A frame is a resident on the path, its columns
        # still to try, the column being tried and that hospital's holders
        # still to try.
        frames = [[root, iter(res_vars[root]), -1, iter(())]]
        while frames:
            frame = frames[-1]
            p = next((p for p in frame[3] if res_match[p] < 0), -1)
            if p >= 0:
                frames.append([p, iter(res_vars[p]), -1, iter(())])
                continue
            i = frame[0]
            for col in frame[1]:
                if state[col] == 0:
                    continue
                j = var_hosp[col]
                if visited[j] == stamp:
                    continue
                visited[j] = stamp
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
