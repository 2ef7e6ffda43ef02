"""Hypothesis strategies for small random instances and matchings, and relabeling."""

from hypothesis import strategies as st

from maxhrt.core import Hospital, Instance, Matching, PreferenceList


def _group(draw, ordered):
    """Partition an ordered id list into ties via drawn join-previous flags."""
    groups = []
    for pos, agent in enumerate(ordered):
        join = pos > 0 and draw(st.booleans())
        if join:
            groups[-1].append(agent)
        else:
            groups.append([agent])
    return PreferenceList(tuple(tuple(g) for g in groups))


@st.composite
def instances_strategy(draw, max_residents=6, max_hospitals=4, ties=True):
    n1 = draw(st.integers(1, max_residents))
    n2 = draw(st.integers(1, max_hospitals))
    accepts = [
        sorted(draw(st.sets(st.integers(1, n2), max_size=n2))) for _ in range(n1)
    ]
    residents = []
    for choices in accepts:
        ordered = draw(st.permutations(choices))
        residents.append(_group(draw, ordered) if ties else PreferenceList.strict(ordered))
    hospitals = []
    for j in range(1, n2 + 1):
        listers = [i for i in range(1, n1 + 1) if j in accepts[i - 1]]
        ordered = draw(st.permutations(listers))
        plist = _group(draw, ordered) if ties else PreferenceList.strict(ordered)
        capacity = draw(st.integers(0, 3))
        hospitals.append(Hospital(capacity, plist))
    return Instance(residents=tuple(residents), hospitals=tuple(hospitals))


@st.composite
def matchings_for(draw, instance, valid=True):
    """A matching over the instance; valid ones respect capacity and lists."""
    assignment = {}
    load = {j: 0 for j in range(1, instance.n2 + 1)}
    for i in range(1, instance.n1 + 1):
        if valid:
            options = [
                h
                for h in instance.residents[i - 1].entries()
                if load[h] < instance.capacity(h)
            ]
        else:
            options = list(range(1, instance.n2 + 1))
        choice = draw(st.sampled_from([None] + options))
        if choice is not None:
            assignment[i] = choice
            load[choice] += 1
    return Matching(assignment)


def relabel(instance, rng):
    """The instance with resident and hospital ids permuted by `rng`.

    Returns (relabeled instance, resident map, hospital map); each map
    sends an old id to its new one, and `carry` moves a matching across.
    Lists keep their ties and their order, so only the ids change.
    """
    res_ids = list(range(1, instance.n1 + 1))
    hosp_ids = list(range(1, instance.n2 + 1))
    rng.shuffle(res_ids)
    rng.shuffle(hosp_ids)
    res_map = dict(zip(range(1, instance.n1 + 1), res_ids))
    hosp_map = dict(zip(range(1, instance.n2 + 1), hosp_ids))

    def mapped(plist, ids):
        return PreferenceList(tuple(tuple(ids[a] for a in group) for group in plist.groups))

    residents = [None] * instance.n1
    for i, plist in enumerate(instance.residents, start=1):
        residents[res_map[i] - 1] = mapped(plist, hosp_map)
    hospitals = [None] * instance.n2
    for j, hosp in enumerate(instance.hospitals, start=1):
        hospitals[hosp_map[j] - 1] = Hospital(hosp.capacity, mapped(hosp.preferences, res_map))
    relabeled = Instance(residents=tuple(residents), hospitals=tuple(hospitals))
    return relabeled, res_map, hosp_map


def carry(matching, res_map, hosp_map):
    """The matching under the id maps that `relabel` returns."""
    return Matching({res_map[r]: hosp_map[h] for r, h in matching.assignment.items()})
