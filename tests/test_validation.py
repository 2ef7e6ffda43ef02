"""The program's list, instance and matching checks against the item-by-item references.

Well-formed and malformed objects must get the same result from both, or
the same error type and text: `reference_validation` keeps the checks that
walked every item.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxhrt.core import Hospital, Instance, Matching, PreferenceList, validate_matching
from maxhrt.generator import generate
from maxhrt.heuristics import warm_start
from maxhrt.instance_io import parse_instance, serialize_instance
from maxhrt.preprocess import ResidentTiesError, hospitals_offer, residents_apply

from reference_validation import (
    reference_check_instance,
    reference_list_ranks,
    reference_validate_matching,
)
from strategies import instances_strategy, matchings_for
from test_pool_digests import workloads


def _outcome(check):
    """What a check makes of its input: its result, or its error's type and text."""
    try:
        return check()
    except Exception as exc:  # the two checks must fail alike, whatever the error
        return type(exc), str(exc)


# Ids from 0 and below up past the ends, with empty groups and repeats.
RAW_GROUPS = st.lists(st.lists(st.integers(-1, 5), max_size=3).map(tuple), max_size=5).map(tuple)


@settings(max_examples=300, deadline=None)
@given(groups=RAW_GROUPS)
def test_list_check_matches_reference(groups):
    def program():
        plist = PreferenceList(groups)
        return list(plist.ranks().items()), plist.entries()

    def reference():
        ranks = reference_list_ranks(groups)
        return list(ranks.items()), tuple(ranks)

    assert _outcome(program) == _outcome(reference)


# Each mutation edits one side's lists (each a list of groups) in place.
# `n_other` is the number of agents on the other side, the valid ids
# 1..n_other. No mutation repeats an id within a list or leaves a group empty.


def _draw_entry(data, lists):
    """(list, group, position) of a drawn entry, or None when every list is empty."""
    spots = [
        (a, g, k)
        for a, groups in enumerate(lists)
        for g, group in enumerate(groups)
        for k in range(len(group))
    ]
    return data.draw(st.sampled_from(spots)) if spots else None


def _replace(data, lists, candidates):
    spot = _draw_entry(data, lists)
    if spot is None:
        return
    a, g, k = spot
    listed = {agent for group in lists[a] for agent in group}
    fresh = [c for c in candidates if c not in listed]
    if fresh:
        lists[a][g][k] = data.draw(st.sampled_from(fresh))


def _out_of_range(data, lists, n_other):
    _replace(data, lists, [-3, -1, 0, n_other + 1, n_other + 2])


def _swap(data, lists, n_other):
    # The pair moves to another agent, so both sides still list as many pairs.
    _replace(data, lists, list(range(1, n_other + 1)))


def _drop(data, lists, n_other):
    spot = _draw_entry(data, lists)
    if spot is not None:
        a, g, k = spot
        del lists[a][g][k]
        lists[a][:] = [group for group in lists[a] if group]


def _add(data, lists, n_other):
    a = data.draw(st.integers(0, len(lists) - 1))
    listed = {agent for group in lists[a] for agent in group}
    fresh = [c for c in range(1, n_other + 1) if c not in listed]
    if fresh:
        lists[a].append([data.draw(st.sampled_from(fresh))])


MUTATIONS = [_out_of_range, _swap, _drop, _add]


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_instance_check_matches_reference(data):
    instance = data.draw(instances_strategy())
    res = [[list(group) for group in plist.groups] for plist in instance.residents]
    hosp = [[list(group) for group in h.preferences.groups] for h in instance.hospitals]
    caps = [h.capacity for h in instance.hospitals]
    for _ in range(data.draw(st.integers(0, 3))):
        if data.draw(st.integers(0, 4)) == 0:
            caps[data.draw(st.integers(0, len(caps) - 1))] = data.draw(st.sampled_from([-1, -3]))
            continue
        mutation = data.draw(st.sampled_from(MUTATIONS))
        if data.draw(st.booleans()):
            mutation(data, res, instance.n2)
        else:
            mutation(data, hosp, instance.n1)
    residents = tuple(PreferenceList(tuple(map(tuple, groups))) for groups in res)
    hospitals = tuple(
        Hospital(cap, PreferenceList(tuple(map(tuple, groups)))) for cap, groups in zip(caps, hosp)
    )

    def program():
        Instance(residents, hospitals)

    assert _outcome(program) == _outcome(lambda: reference_check_instance(residents, hospitals))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_matching_check_matches_reference(data):
    instance = data.draw(instances_strategy())
    # an invalid draw may be unacceptable or over capacity; each extra pair
    # is out of range on one side
    drawn = data.draw(matchings_for(instance, valid=data.draw(st.booleans())))
    bad_resident = st.sampled_from([-2, -1, 0, instance.n1 + 1])
    bad_hospital = st.sampled_from([-2, -1, 0, instance.n2 + 1])
    extra = st.one_of(
        st.tuples(bad_resident, st.integers(1, instance.n2)),
        st.tuples(st.integers(1, instance.n1), bad_hospital),
    )
    matching = Matching({**drawn.assignment, **dict(data.draw(st.lists(extra, max_size=2)))})
    assert validate_matching(instance, matching) == reference_validate_matching(instance, matching)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_pool_instances_pass_both_checks(workload):
    for config in workloads.WORKLOADS[workload]:
        instance = generate(config)
        assert parse_instance(serialize_instance(instance)) == (instance, [])
        reduced = [instance]
        try:
            reduced.append(hospitals_offer(instance)[0])
            reduced.append(residents_apply(reduced[-1])[0])
        except ResidentTiesError:
            pass
        for each in reduced:
            assert reference_check_instance(each.residents, each.hospitals) is None
            warm = warm_start(each)
            assert validate_matching(each, warm) == reference_validate_matching(each, warm) == []
