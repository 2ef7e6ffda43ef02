"""Rank, stability and validity predicates on the example instance."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxhrt.core import (
    INFINITY,
    Hospital,
    Instance,
    InstanceError,
    Matching,
    PreferenceList,
    blocking_pairs,
    build_rank_table,
    certify,
    validate_matching,
)

from strategies import instances_strategy, matchings_for


def test_rank_table_fig1(fig1, fig1_ranks):
    res, hosp = fig1_ranks.resident_ranks, fig1_ranks.hospital_ranks
    assert res[0][1] == 1
    assert res[0][2] == 2
    # tied entries share a rank
    assert hosp[1][4] == hosp[1][5]
    # unacceptable pair
    assert 3 not in res[1]
    assert 2 not in hosp[2]
    assert 2 not in res[1] and 2 not in hosp[1]  # pruned one-sided pair


def test_rank_finite_iff_acceptable(fig1, fig1_ranks):
    # read as blocking_pairs reads the maps: a missing entry ranks INFINITY
    for i in range(1, fig1.n1 + 1):
        for j in range(1, fig1.n2 + 1):
            acceptable = fig1.is_acceptable(i, j)
            assert (fig1_ranks.resident_ranks[i - 1].get(j, INFINITY) < INFINITY) == acceptable
            assert (fig1_ranks.hospital_ranks[j - 1].get(i, INFINITY) < INFINITY) == acceptable


def test_acceptable_pair_count_after_pruning(fig1):
    assert len(fig1.acceptable_pairs()) == 10


def test_blocking_pair_r4_h2_not_blocking_m0(fig1, fig1_ranks, m0):
    # h2 is full and r4 is only tied with assignee r5, no strict preference
    assert (4, 2) not in blocking_pairs(fig1, fig1_ranks, m0)


def test_every_pair_blocks_empty_matching(fig1, fig1_ranks):
    blockers = blocking_pairs(fig1, fig1_ranks, Matching({}))
    assert sorted(blockers) == sorted(fig1.acceptable_pairs())


def test_blocking_pair_underfull_hospital(fig1, fig1_ranks):
    m = Matching({1: 2})
    assert (1, 1) in blocking_pairs(fig1, fig1_ranks, m)


def test_m0_and_m1_stable(fig1, fig1_ranks, m0, m1):
    assert certify(fig1, fig1_ranks, m0) is None
    assert certify(fig1, fig1_ranks, m1) is None


def test_empty_matching_unstable(fig1, fig1_ranks):
    assert certify(fig1, fig1_ranks, Matching({})) is not None


def test_validate_m1_clean(fig1, m1):
    assert validate_matching(fig1, m1) == []


def test_validate_capacity_violation(fig1):
    report = validate_matching(fig1, Matching({1: 1, 2: 1, 3: 1}))
    assert [v.message for v in report] == ["hospital h1 has 3 assignees, capacity 2"]


def test_validate_acceptability_violation(fig1):
    report = validate_matching(fig1, Matching({2: 3}))
    assert [v.message for v in report] == ["pair (r2, h3) is not acceptable"]


@pytest.mark.parametrize("resident, hospital", [(-1, 2), (0, 1), (7, 1), (1, 0), (6, -1), (1, 4)])
def test_validate_range_violation(fig1, resident, hospital):
    # r6 lists h1 and h2: resident -1 must not read as r6, the last resident
    report = validate_matching(fig1, Matching({resident: hospital}))
    assert [v.message for v in report] == [f"pair (r{resident}, h{hospital}) out of range"]


def test_from_pairs_rejects_resident_assigned_twice():
    with pytest.raises(ValueError, match="r1 assigned twice"):
        Matching.from_pairs([(1, 1), (1, 2)])


def test_matching_sizes(m0, m1):
    assert len(m0) == 5
    assert len(m1) == 6
    assert len(Matching({})) == 0


def test_matching_equality_ignores_pair_order(m0, m1):
    shuffled = Matching.from_pairs(reversed(list(m1.pairs())))
    assert shuffled == m1 and hash(shuffled) == hash(m1)
    assert shuffled != m0


def test_instance_rejects_one_sided_pair():
    with pytest.raises(InstanceError):
        Instance(
            residents=(PreferenceList.strict([1]), PreferenceList(())),
            hospitals=(Hospital(1, PreferenceList.strict([1, 2])),),
        )


def test_preference_list_rejects_duplicates():
    with pytest.raises(InstanceError):
        PreferenceList(((1,), (2, 1)))


@pytest.mark.parametrize(
    "build, message",
    [
        pytest.param(lambda: PreferenceList(((1,), ())), "empty tie group", id="empty-group"),
        pytest.param(lambda: Instance((), ()), "need at least one resident and one hospital",
                     id="no-agents"),
    ],
)
def test_invalid_structure_is_named(build, message):
    with pytest.raises(InstanceError) as info:
        build()
    assert str(info.value) == message


def test_capacity_zero_hospital_accepted():
    inst = Instance(
        residents=(PreferenceList.strict([1]),),
        hospitals=(Hospital(0, PreferenceList.strict([1])),),
    )
    ranks = build_rank_table(inst)
    # capacity-0 hospitals never block and never match
    assert certify(inst, ranks, Matching({})) is None


def _blocking_pairs_by_hospital(instance, ranks, matching):
    """Independent blocking scan: per-hospital worst-assignee comparison."""
    assignees = {j: [] for j in range(1, instance.n2 + 1)}
    for r, h in matching.assignment.items():
        assignees[h].append(r)
    found = []
    for j in range(1, instance.n2 + 1):
        holders = assignees[j]
        underfull = len(holders) < instance.capacity(j)
        hosp_rank = ranks.hospital_ranks[j - 1]
        worst = max((hosp_rank[r] for r in holders), default=None)
        for i in instance.hospitals[j - 1].preferences.entries():
            assigned = matching.hospital_of(i)
            res_rank = ranks.resident_ranks[i - 1]
            wants = assigned is None or res_rank[j] < res_rank[assigned]
            if not wants:
                continue
            if underfull or (worst is not None and hosp_rank[i] < worst):
                found.append((i, j))
    return sorted(found)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_stability_scans_agree(data):
    instance = data.draw(instances_strategy())
    ranks = build_rank_table(instance)
    matching = data.draw(matchings_for(instance))
    pairwise = sorted(blocking_pairs(instance, ranks, matching))
    per_hospital = _blocking_pairs_by_hospital(instance, ranks, matching)
    assert pairwise == per_hospital
    assert (certify(instance, ranks, matching) is None) == (not per_hospital)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_validate_clean_implies_invariants(data):
    instance = data.draw(instances_strategy())
    matching = data.draw(matchings_for(instance))
    if validate_matching(instance, matching) == []:
        for h in range(1, instance.n2 + 1):
            load = sum(1 for assigned in matching.assignment.values() if assigned == h)
            assert load <= instance.capacity(h)
        for r, h in matching.pairs():
            assert instance.is_acceptable(r, h)


def _two_by_two(res1, res2, hosp1, hosp2, cap1=1, cap2=1):
    """A two-resident, two-hospital instance from strict lists."""
    return Instance(
        residents=(PreferenceList.strict(res1), PreferenceList.strict(res2)),
        hospitals=(
            Hospital(cap1, PreferenceList.strict(hosp1)),
            Hospital(cap2, PreferenceList.strict(hosp2)),
        ),
    )


def test_instance_names_smallest_resident_only_pair():
    # (r1, h2) and (r2, h1) are listed by the residents only; (r1, h2) is smaller
    with pytest.raises(InstanceError) as info:
        _two_by_two([1, 2], [2, 1], [1], [2])
    assert str(info.value) == "pair (r1, h2) is not mutual: r1 lists h2 only"


def test_instance_names_smallest_hospital_only_pair():
    # (r1, h1) is listed by h1 only; (r2, h2) is listed by r2 only
    with pytest.raises(InstanceError) as info:
        _two_by_two([2], [1, 2], [2, 1], [1])
    assert str(info.value) == "pair (r1, h1) is not mutual: h1 lists r1 only"


def test_instance_not_mutual_with_equal_pair_counts():
    # both sides list two pairs, but r2 lists h1 while h2 lists r2
    with pytest.raises(InstanceError) as info:
        _two_by_two([1], [1], [1], [2])
    assert str(info.value) == "pair (r2, h1) is not mutual: r2 lists h1 only"


def test_instance_rejects_unknown_hospital():
    with pytest.raises(InstanceError) as info:
        _two_by_two([1], [1, 3], [1, 2], [])
    assert str(info.value) == "resident r2 lists unknown hospital h3"


def test_instance_rejects_unknown_resident():
    with pytest.raises(InstanceError) as info:
        _two_by_two([1], [2], [1], [3, 2])
    assert str(info.value) == "hospital h2 lists unknown resident r3"


def test_instance_rejects_negative_capacity():
    with pytest.raises(InstanceError) as info:
        _two_by_two([1], [2], [1], [2], cap2=-1)
    assert str(info.value) == "hospital h2 has negative capacity"


def test_instance_checks_ranges_before_mutuality():
    # r1's unknown hospital is reported, though h1's pair with r2 is one-sided too
    with pytest.raises(InstanceError) as info:
        _two_by_two([1, 5], [], [1, 2], [1])
    assert str(info.value) == "resident r1 lists unknown hospital h5"
    with pytest.raises(InstanceError) as info:
        _two_by_two([1], [], [1, 2], [1], cap2=-2)
    assert str(info.value) == "hospital h2 has negative capacity"


def _ranks_from_groups(groups):
    """Rank map straight from the groups: 1 + the ids in earlier groups."""
    out, rank = {}, 1
    for group in groups:
        for agent in group:
            out[agent] = rank
        rank += len(group)
    return out


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_derived_list_data_matches_groups(data):
    instance = data.draw(instances_strategy())
    lists = list(instance.residents) + [h.preferences for h in instance.hospitals]
    for plist in lists:
        flat = tuple(a for group in plist.groups for a in group)
        assert plist.entries() == flat
        assert len(plist) == len(flat)
        assert plist.ranks() == _ranks_from_groups(plist.groups)
        assert tuple(plist.ranks()) == flat  # rank map in list order
        assert plist.is_strict() == all(len(group) == 1 for group in plist.groups)
    pairs = set(instance.acceptable_pairs())
    for i in range(1, instance.n1 + 1):
        for j in range(1, instance.n2 + 1):
            assert instance.is_acceptable(i, j) == ((i, j) in pairs)
    table = build_rank_table(instance)
    assert table.resident_ranks == tuple(
        _ranks_from_groups(p.groups) for p in instance.residents
    )
    assert table.hospital_ranks == tuple(
        _ranks_from_groups(h.preferences.groups) for h in instance.hospitals
    )
