"""Reduction passes: exact deletions on the example, preservation in general."""

import random
from collections import deque

import pytest

from maxhrt.core import Hospital, Instance, PreferenceList, blocking_pairs, build_rank_table
from maxhrt.generator import GeneratorConfig, generate, sfas_like
from maxhrt.instance_io import parse_instance
from maxhrt.preprocess import (
    ResidentTiesError,
    hospitals_offer,
    reduce_instance,
    residents_apply,
)

from oracle import OracleLimit, enumerate_stable_matchings
from strategies import carry, relabel

ORACLE_LIMIT = OracleLimit(max_residents=10, max_pairs=40)


def random_hospital_ties_instance(rng, max_residents=7):
    n1 = rng.randint(1, max_residents)
    n2 = rng.randint(1, 3)
    return generate(
        GeneratorConfig(
            n1=n1,
            n2=n2,
            total_posts=rng.randint(0, n1 + 2),
            list_length=min(rng.randint(1, 3), n2),
            tie_density_residents=0.0,
            tie_density_hospitals=rng.choice([0.0, 0.3, 0.6, 1.0]),
            seed=rng.randrange(10**9),
        )
    )


def reference_hospitals_offer(instance):
    """Pass one as a plain quadratic loop, the reference for the fast pass.

    Every round recomputes every hospital's active tie by scanning all of
    its ties, then offers from the first eligible hospital.
    """
    res_lists = [list(p.entries()) for p in instance.residents]
    hosp_groups = [[list(g) for g in h.preferences.groups] for h in instance.hospitals]
    deleted = set()
    assigned = {}
    assignees = [set() for _ in range(instance.n2)]
    vacancies = [h.capacity for h in instance.hospitals]

    def active_tie(j):
        groups = hosp_groups[j - 1]
        last = -1
        for idx, group in enumerate(groups):
            if any(r in assignees[j - 1] for r in group):
                last = idx
        return list(groups[last + 1]) if last + 1 < len(groups) else []

    def delete_pair(r, h):
        res_lists[r - 1].remove(h)
        groups = hosp_groups[h - 1]
        idx = next(k for k, group in enumerate(groups) if r in group)
        groups[idx].remove(r)
        if not groups[idx]:
            del groups[idx]
        deleted.add((r, h))

    while True:
        ties = {j: active_tie(j) for j in range(1, instance.n2 + 1)}
        eligible = [j for j, tie in ties.items() if 0 < len(tie) <= vacancies[j - 1]]
        if not eligible:
            break
        j = eligible[0]
        for r in ties[j]:
            previous = assigned.get(r)
            if previous is not None:
                assignees[previous - 1].discard(r)
                vacancies[previous - 1] += 1
            assigned[r] = j
            assignees[j - 1].add(r)
            vacancies[j - 1] -= 1
            prefs = res_lists[r - 1]
            for successor in prefs[prefs.index(j) + 1 :]:
                delete_pair(r, successor)
    reduced = Instance(
        residents=tuple(PreferenceList.strict(lst) for lst in res_lists),
        hospitals=tuple(
            Hospital(h.capacity, PreferenceList(tuple(tuple(g) for g in groups)))
            for h, groups in zip(instance.hospitals, hosp_groups)
        ),
    )
    return reduced, deleted


def reference_residents_apply(instance):
    """Pass two as a plain loop, the reference for the fast pass.

    Every time a hospital is full, it finds each assignee's tie by scanning
    its ties, sorts them, and deletes the pairs after the capacity-th one,
    one pair at a time.
    """
    res_lists = [list(p.entries()) for p in instance.residents]
    hosp_groups = [[list(g) for g in h.preferences.groups] for h in instance.hospitals]
    deleted = set()
    holders = [set() for _ in range(instance.n2)]
    free = deque(range(1, instance.n1 + 1))

    def tie_position(j, r):
        return next(k for k, group in enumerate(hosp_groups[j - 1]) if r in group)

    while free:
        r = free.popleft()
        if not res_lists[r - 1]:
            continue
        j = res_lists[r - 1][0]
        holders[j - 1].add(r)
        cap = instance.hospitals[j - 1].capacity
        if len(holders[j - 1]) < cap:
            continue
        positions = sorted(tie_position(j, m) for m in holders[j - 1])
        threshold = positions[cap - 1] if cap > 0 else -1
        for group in hosp_groups[j - 1][threshold + 1 :]:
            for victim in list(group):
                if victim in holders[j - 1]:
                    holders[j - 1].remove(victim)
                    free.append(victim)
                res_lists[victim - 1].remove(j)
                group.remove(victim)
                deleted.add((victim, j))
    reduced = Instance(
        residents=tuple(PreferenceList.strict(lst) for lst in res_lists),
        hospitals=tuple(
            Hospital(h.capacity, PreferenceList(tuple(tuple(g) for g in groups if g)))
            for h, groups in zip(instance.hospitals, hosp_groups)
        ),
    )
    return reduced, deleted


def _with_relabelings(instance, rng, count=3):
    """The instance and `count` relabelings of it, each offering in a new order."""
    return [instance] + [relabel(instance, rng)[0] for _ in range(count)]


def test_hospitals_offer_matches_reference_on_random_instances():
    rng = random.Random(4242)
    for _ in range(60):
        instance = random_hospital_ties_instance(rng, max_residents=12)
        for variant in _with_relabelings(instance, rng):
            assert hospitals_offer(variant) == reference_hospitals_offer(variant)


@pytest.mark.parametrize("n1", [60, 150, 300])
@pytest.mark.parametrize("tie_density", [0.0, 0.5, 0.85])
def test_hospitals_offer_matches_reference_on_sfas_like(n1, tie_density):
    instance = generate(sfas_like(n1, tie_density, seed=n1 + int(100 * tie_density)))
    for variant in _with_relabelings(instance, random.Random(n1)):
        expected = reference_hospitals_offer(variant)
        assert hospitals_offer(variant) == expected
        assert expected[1]  # the pass does work on this preset


def test_hospitals_offer_matches_reference_when_worst_assignee_is_pulled_away():
    # h1 takes r1, then r2 (its worst assignee); h2, which r2 prefers, then
    # pulls r2 away and (r2, h1) is cut. h1 falls back to r1 as its worst
    # assignee, skips r2's emptied tie and offers to r3, cutting (r3, h3).
    instance, _ = parse_instance(
        "3 3\nr1: h1\nr2: h2 h1\nr3: h1 h3\nh1: 2: r1 r2 r3\nh2: 1: r2\nh3: 1: r3\n"
    )
    for variant in _with_relabelings(instance, random.Random(5)):
        assert hospitals_offer(variant) == reference_hospitals_offer(variant)
    _, deleted = hospitals_offer(instance)
    assert deleted == {(2, 1), (3, 3)}


def test_residents_apply_matches_reference_on_random_instances():
    rng = random.Random(4343)
    for _ in range(60):
        instance = random_hospital_ties_instance(rng, max_residents=12)
        for variant in _with_relabelings(instance, rng):
            assert residents_apply(variant) == reference_residents_apply(variant)


@pytest.mark.parametrize("n1", [60, 150, 300])
@pytest.mark.parametrize("tie_density", [0.0, 0.5, 0.85])
def test_residents_apply_matches_reference_on_sfas_like(n1, tie_density):
    # On the instance as generated and, as in the pipeline, after pass one.
    instance = generate(sfas_like(n1, tie_density, seed=n1 + int(100 * tie_density)))
    for variant in _with_relabelings(instance, random.Random(n1)):
        for start in (variant, hospitals_offer(variant)[0]):
            expected = reference_residents_apply(start)
            assert residents_apply(start) == expected
            assert expected[1]  # the pass does work on this preset


def test_hospitals_offer_fig1_deletions(fig1):
    reduced, deleted = hospitals_offer(fig1)
    assert deleted == {(1, 2)}
    assert not reduced.is_acceptable(1, 2)
    assert len(reduced.acceptable_pairs()) == 9


def test_hospitals_offer_minimal_no_deletions(single_pair):
    _, deleted = hospitals_offer(single_pair)
    assert deleted == set()


def test_hospitals_offer_oversized_first_tie_never_fires():
    instance, _ = parse_instance(
        "2 1\nr1: h1\nr2: h1\nh1: 1: ( r1 r2 )\n"
    )
    reduced, deleted = hospitals_offer(instance)
    assert deleted == set()
    assert reduced == instance


def test_residents_apply_fig1_deletions(fig1):
    _, deleted = residents_apply(fig1)
    assert deleted == {(3, 1), (6, 1)}


def test_residents_apply_minimal(single_pair):
    reduced, deleted = residents_apply(single_pair)
    assert deleted == set()
    assert reduced == single_pair


def test_residents_apply_tie_at_capacity_no_deletion():
    # capacity-th assignee sits inside a tie: tie members are not strict
    # successors, so nothing is deleted and oversubscription is retained
    instance, _ = parse_instance(
        "3 1\nr1: h1\nr2: h1\nr3: h1\nh1: 2: r1 ( r2 r3 )\n"
    )
    reduced, deleted = residents_apply(instance)
    assert deleted == set()
    assert reduced == instance


def test_reduce_fig1(fig1):
    reduced, deleted = reduce_instance(fig1)
    assert deleted == {(1, 2), (3, 1), (6, 1)}
    assert sorted(reduced.acceptable_pairs()) == [
        (1, 1),
        (2, 1),
        (3, 3),
        (4, 2),
        (5, 2),
        (5, 3),
        (6, 2),
    ]


def test_reduce_idempotent(fig1):
    reduced, _ = reduce_instance(fig1)
    again, deleted = reduce_instance(reduced)
    assert deleted == set()
    assert again == reduced


def test_reduce_rejects_resident_ties():
    instance, _ = parse_instance("2 2\nr1: ( h1 h2 )\nr2: h1\nh1: 1: r1 r2\nh2: 1: r1\n")
    for operation in (hospitals_offer, residents_apply, reduce_instance):
        with pytest.raises(ResidentTiesError):
            operation(instance)


def test_reduce_monotone_over_first_pass(fig1):
    _, first = hospitals_offer(fig1)
    _, both = reduce_instance(fig1)
    assert both >= first


def test_capacity_zero_hospital_fully_pruned():
    instance, _ = parse_instance("2 2\nr1: h1 h2\nr2: h1\nh1: 0: r1 r2\nh2: 1: r1\n")
    reduced, deleted = reduce_instance(instance)
    assert (1, 1) in deleted and (2, 1) in deleted
    assert enumerate_stable_matchings(reduced) == enumerate_stable_matchings(instance)


def test_preservation_on_fig1(fig1):
    reduced, _ = reduce_instance(fig1)
    assert enumerate_stable_matchings(reduced) == enumerate_stable_matchings(fig1)


def test_preservation_random_suite():
    rng = random.Random(2024)
    for _ in range(50):
        instance = random_hospital_ties_instance(rng)
        reduced, deleted = reduce_instance(instance)
        before = enumerate_stable_matchings(instance, ORACLE_LIMIT)
        after = enumerate_stable_matchings(reduced, ORACLE_LIMIT)
        assert before == after
        assert len(reduced.acceptable_pairs()) == len(
            instance.acceptable_pairs()
        ) - len(deleted)


def test_preservation_independent_of_processing_order():
    # Relabeling changes the order both passes take hospitals and residents
    # in; the reduced instance must keep the relabeled stable set all the same.
    rng = random.Random(99)
    for _ in range(15):
        instance = random_hospital_ties_instance(rng, max_residents=6)
        baseline = enumerate_stable_matchings(instance, ORACLE_LIMIT)
        for _ in range(4):
            relabeled, res_map, hosp_map = relabel(instance, rng)
            reduced, _ = reduce_instance(relabeled)
            assert enumerate_stable_matchings(reduced, ORACLE_LIMIT) == {
                carry(m, res_map, hosp_map) for m in baseline
            }


def test_deleted_pairs_out_of_play():
    # deleted pairs appear in no stable matching and block none
    rng = random.Random(7)
    for _ in range(30):
        instance = random_hospital_ties_instance(rng)
        ranks = build_rank_table(instance)
        _, deleted = reduce_instance(instance)
        for matching in enumerate_stable_matchings(instance, ORACLE_LIMIT):
            blockers = set(blocking_pairs(instance, ranks, matching))
            for r, h in deleted:
                assert matching.hospital_of(r) != h
                assert (r, h) not in blockers


@pytest.mark.parametrize("tie_density", [0.0, 0.5, 0.85])
def test_reduction_keeps_the_lists_of_agents_that_lost_no_pair(tie_density):
    # Each list of the reduced instance is the original without its deleted
    # pairs, and an agent that lost none keeps its original list object.
    instance = generate(sfas_like(150, tie_density, seed=3))
    for reduction in (hospitals_offer, residents_apply):
        reduced, deleted = reduction(instance)
        for i, (before, after) in enumerate(zip(instance.residents, reduced.residents), start=1):
            lost = {h for r, h in deleted if r == i}
            assert after == before.without(lost)
            assert (after is before) == (not lost)
        for j, (before, after) in enumerate(zip(instance.hospitals, reduced.hospitals), start=1):
            lost = {r for r, h in deleted if h == j}
            assert after == Hospital(before.capacity, before.preferences.without(lost))
            assert (after is before) == (not lost)
        instance = reduced  # the second pass runs on the first's output
