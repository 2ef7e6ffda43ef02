"""The list, instance and matching checks as the program first wrote them.

Each walks every item in index order and stops at the first broken
invariant. `Instance` did so before; `PreferenceList` and
`validate_matching` still do, and these copies pin their results.
`test_validation` compares the program's checks against them, on results
and on the type and text of every error.
"""

from maxhrt.core import InstanceError, Violation


def reference_list_ranks(groups):
    """The rank map of a preference list's groups, or the error naming its first fault."""
    ranks = {}
    for group in groups:
        if not group:
            raise InstanceError("empty tie group")
        rank = len(ranks) + 1
        for agent in group:
            if agent in ranks:
                raise InstanceError(f"agent {agent} listed twice")
            ranks[agent] = rank
    return ranks


def reference_one_sided_pairs(residents, hospitals):
    res_ranks = [plist.ranks() for plist in residents]
    if sum(map(len, residents)) == sum(map(len, hospitals)) and all(
        j in res_ranks[r - 1] for j, plist in enumerate(hospitals, start=1) for r in plist.entries()
    ):
        return set(), set()
    res_pairs = {(i, h) for i, plist in enumerate(residents, start=1) for h in plist.entries()}
    hosp_pairs = {(r, j) for j, plist in enumerate(hospitals, start=1) for r in plist.entries()}
    return res_pairs - hosp_pairs, hosp_pairs - res_pairs


def reference_check_instance(residents, hospitals):
    """None if the lists and hospitals make an instance, else the error naming the first fault."""
    n1, n2 = len(residents), len(hospitals)
    if n1 < 1 or n2 < 1:
        raise InstanceError("need at least one resident and one hospital")
    for i, plist in enumerate(residents, start=1):
        entries = plist.entries()
        if entries and (min(entries) < 1 or max(entries) > n2):
            h = next(h for h in entries if not 1 <= h <= n2)
            raise InstanceError(f"resident r{i} lists unknown hospital h{h}")
    for j, hosp in enumerate(hospitals, start=1):
        if hosp.capacity < 0:
            raise InstanceError(f"hospital h{j} has negative capacity")
        entries = hosp.preferences.entries()
        if entries and (min(entries) < 1 or max(entries) > n1):
            r = next(r for r in entries if not 1 <= r <= n1)
            raise InstanceError(f"hospital h{j} lists unknown resident r{r}")
    res_only, hosp_only = reference_one_sided_pairs(residents, [h.preferences for h in hospitals])
    if res_only or hosp_only:
        r, j = min(res_only | hosp_only)
        side = "r{0} lists h{1} only" if (r, j) in res_only else "h{1} lists r{0} only"
        raise InstanceError(f"pair (r{r}, h{j}) is not mutual: " + side.format(r, j))
    return None


def reference_validate_matching(instance, matching):
    violations = []
    load = {}
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
