"""Deferred-acceptance warm starts: tie-broken Gale–Shapley and Király's promotion.

`warm_start` breaks every tie and runs deferred acceptance, so on a strict
instance it is Gale–Shapley; the `test_gale_shapley_*` tests pin it there.
`reference_warm_start` builds the tie-broken instance and runs a textbook
Gale–Shapley on it, the reference for `warm_start` on instances with ties.
`reference_promotion_start` breaks the residents' ties and runs a textbook
promotion deferred acceptance, the reference for `promotion_starts`. Both
apply the free-post rule, `reference_take_free_post`, before each proposal.
"""

import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from maxhrt import draws
from maxhrt.core import (
    Hospital,
    Instance,
    Matching,
    PreferenceList,
    certify,
)
from maxhrt.generator import GeneratorConfig, generate, sfas_like
from maxhrt.heuristics import promotion_starts, warm_start
from maxhrt.instance_io import parse_instance

from conftest import FIG1_TEXT
from oracle import OracleLimit, max_stable_size
from strategies import carry, instances_strategy, relabel


def reference_break_ties(instance):
    """The instance with every tie replaced by a shuffle of its members.

    One `random.Random(0)` shuffles each resident tie, residents in index
    order, and then each hospital tie; the order across ties is kept.
    """
    rng = random.Random(0)

    def broken(plist):
        entries = []
        for group in plist.groups:
            group = list(group)
            if len(group) > 1:
                rng.shuffle(group)
            entries.extend(group)
        return PreferenceList.strict(entries)

    residents = tuple(broken(p) for p in instance.residents)
    hospitals = tuple(Hospital(h.capacity, broken(h.preferences)) for h in instance.hospitals)
    return Instance(residents=residents, hospitals=hospitals)


def reference_take_free_post(plist, entries, k, has_free_post):
    """The free-post rule, applied before a resident proposes to `entries[k]`.

    `plist` is the resident's original list and `entries` its broken order.
    If `entries[k]` has no free post, the first later member of its tie in
    `entries` that has one swaps places with it.
    """
    if has_free_post(entries[k]):
        return
    tie = next(group for group in plist.groups if entries[k] in group)
    for m, hosp in enumerate(entries[k + 1:], start=k + 1):
        if hosp in tie and has_free_post(hosp):
            entries[k], entries[m] = hosp, entries[k]
            return


def reference_warm_start(instance):
    """Textbook Gale–Shapley on the tie-broken instance, the reference for `warm_start`.

    Free residents form a stack, resident 1 on top. The top resident
    proposes to its next hospital, after the free-post rule, and a hospital
    holds its best `capacity` proposers so far; the one it rejects goes on
    top. The rule makes the result depend on the proposal order, so the
    order is the one `warm_start` uses.
    """
    strict = reference_break_ties(instance)
    ranks = [h.preferences.ranks() for h in strict.hospitals]
    lists = [list(p.entries()) for p in strict.residents]
    next_choice = [0] * strict.n1
    held = [[] for _ in strict.hospitals]

    def has_free_post(j):
        return len(held[j - 1]) < strict.capacity(j)

    free = list(range(strict.n1, 0, -1))
    while free:
        i = free.pop()
        prefs = lists[i - 1]
        if next_choice[i - 1] == len(prefs):
            continue
        plist = instance.residents[i - 1]
        reference_take_free_post(plist, prefs, next_choice[i - 1], has_free_post)
        j = prefs[next_choice[i - 1]]
        next_choice[i - 1] += 1
        held[j - 1].append(i)
        held[j - 1].sort(key=ranks[j - 1].__getitem__)
        if len(held[j - 1]) > strict.capacity(j):
            free.append(held[j - 1].pop())
    return Matching({i: j for j, hs in enumerate(held, start=1) for i in hs})


def reference_promotion_start(instance, seed):
    """Textbook promotion deferred acceptance, the reference for `promotion_starts`.

    One `random.Random(seed)` shuffles each resident tie, residents in
    index order, and then, for a seed other than 0, the free residents,
    a stack popped from its end. Each popped resident proposes once, after
    the free-post rule. A hospital keeps its ties and keys each assignee
    `2 * rank + (not promoted)`; a full one displaces the first assignee
    with the largest key, only for a strictly smaller key. A resident that
    runs out of hospitals is promoted once and starts its list again.
    """
    rng = random.Random(seed)
    lists = [None]
    for plist in instance.residents:
        entries = []
        for group in plist.groups:
            group = list(group)
            if len(group) > 1:
                rng.shuffle(group)
            entries.extend(group)
        lists.append(entries)
    free = list(range(instance.n1, 0, -1))
    if seed:
        rng.shuffle(free)
    ranks = [None, *(h.preferences.ranks() for h in instance.hospitals)]
    promoted = [False] * (instance.n1 + 1)
    next_choice = [0] * (instance.n1 + 1)
    held = [[] for _ in range(instance.n2 + 1)]

    def has_free_post(j):
        return len(held[j]) < instance.capacity(j)

    while free:
        i = free.pop()
        if next_choice[i] == len(lists[i]):
            if promoted[i] or not lists[i]:
                continue
            promoted[i] = True
            next_choice[i] = 0
        plist = instance.residents[i - 1]
        reference_take_free_post(plist, lists[i], next_choice[i], has_free_post)
        j = lists[i][next_choice[i]]
        next_choice[i] += 1
        if has_free_post(j):
            held[j].append(i)
            continue
        keys = [2 * ranks[j][r] + (not promoted[r]) for r in held[j]]
        if keys and 2 * ranks[j][i] + (not promoted[i]) < max(keys):
            free.append(held[j].pop(keys.index(max(keys))))
            held[j].append(i)
        else:
            free.append(i)
    return Matching({i: j for j, hs in enumerate(held) for i in hs})


def test_break_ties_preserves_cross_tie_order(fig1):
    strict = reference_break_ties(fig1)
    assert all(p.is_strict() for p in strict.residents)
    assert all(h.preferences.is_strict() for h in strict.hospitals)
    entries = strict.hospitals[1].preferences.entries()
    # order of the strict prefix r1, r6 is kept; the tie members fill the tail
    assert entries[:2] == (1, 6)
    assert set(entries[2:]) == {4, 5}


# A random draw tells a kernel without the free-post rule apart only when a
# resident's first tie member is full, a later one free, and the outcome
# changes; the two tests below also run this instance on every run.
FREE_POST_IN_TIE_TEXT = "2 2\nr1: h1\nr2: ( h1 h2 )\nh1: 1: r2 r1\nh2: 1: r2\n"
FREE_POST_IN_TIE = parse_instance(FREE_POST_IN_TIE_TEXT)[0]


@settings(max_examples=150, deadline=None)
@given(instance=instances_strategy(max_residents=10, max_hospitals=5))
@example(instance=FREE_POST_IN_TIE)
def test_warm_start_is_reference_with_ties_on_both_sides(instance):
    assert warm_start(instance) == reference_warm_start(instance)


@pytest.mark.parametrize(
    "config",
    [
        pytest.param(sfas_like(150, 0.5, 7), id="sfas-150-.5-7"),
        pytest.param(GeneratorConfig(150, 10, 150, 5, 0.3, 0.5, seed=0), id="two-sided-150-0"),
    ],
)
def test_warm_start_is_reference_on_pool_instances(config):
    instance = generate(config)
    assert warm_start(instance) == reference_warm_start(instance)


@settings(max_examples=150, deadline=None)
@given(instance=instances_strategy(max_residents=10, max_hospitals=5), seed=st.integers(0, 2**30))
@example(instance=FREE_POST_IN_TIE, seed=0)
def test_promotion_start_is_reference_with_ties_on_both_sides(instance, seed):
    assert promotion_starts(instance)(seed) == reference_promotion_start(instance, seed)


@pytest.mark.parametrize(
    "config",
    [
        pytest.param(sfas_like(150, 0.5, 7), id="sfas-150-.5-7"),
        pytest.param(GeneratorConfig(150, 10, 150, 5, 0.3, 0.5, seed=0), id="two-sided-150-0"),
    ],
)
def test_promotion_start_is_reference_on_pool_instances(config):
    instance = generate(config)
    start = promotion_starts(instance)
    for seed in range(32):
        assert start(seed) == reference_promotion_start(instance, seed)


@pytest.mark.parametrize("length", [*range(41), 200])
def test_shuffle_draws_as_random_shuffle(length):
    # The kernel must draw exactly what random.Random.shuffle draws, and
    # leave the rng in the same state: a promotion start shuffles its
    # proposal order after its tie shuffles, from the same rng. The list
    # has one more entry at each end, which the slice must leave in place.
    for seed in range(100):
        expected, got = list(range(length)), list(range(-1, length + 1))
        rng, kernel_rng = random.Random(seed), random.Random(seed)
        rng.shuffle(expected)
        draws.shuffle(got, 1, length + 1, kernel_rng.getrandbits)
        assert got == [-1, *expected, length]
        assert kernel_rng.random() == rng.random()


def test_gale_shapley_r4_first():
    # tie (r4 r5) broken as r4, r5: deferred acceptance reaches size 6
    strict, _ = parse_instance(FIG1_TEXT.replace("( r4 r5 )", "r4 r5"))
    expected = Matching.from_pairs([(1, 1), (2, 1), (3, 3), (4, 2), (6, 2), (5, 3)])
    assert warm_start(strict) == expected


def test_gale_shapley_r5_first(fig1, m0):
    # tie broken as r5, r4 instead: deferred acceptance reaches exactly M0
    text = """\
6 3
r1: h1 h2
r2: h1
r3: h1 h3
r4: h2
r5: h2 h3
r6: h1 h2
h1: 2: r1 r2 r3 r6
h2: 2: r1 r6 r5 r4
h3: 2: r5 r3
"""
    strict, warnings = parse_instance(text)
    assert not warnings
    assert warm_start(strict) == m0


def test_warm_start_applies_to_a_free_post_in_the_tie():
    # r2's seeded order puts h1 first, but r1 already fills h1's one post, so
    # r2 applies to h2, free in the same tie, and r1 keeps h1. Applying to h1
    # would displace r1, whom h1 ranks below r2, and leave r1 unmatched.
    instance, warnings = parse_instance(FREE_POST_IN_TIE_TEXT)
    assert not warnings
    assert reference_break_ties(instance).residents[1].entries() == (1, 2)
    assert warm_start(instance) == Matching({1: 1, 2: 2})
    assert promotion_starts(instance)(0) == Matching({1: 1, 2: 2})


def test_a_post_of_capacity_0_is_not_free():
    # r3's tie has the seeded order h1 h2 h3 h4, where h1 has capacity 0 and
    # r1, r2 fill h2, h3. At h1, r3 applies to h4, the first free post, and
    # h1 takes h4's place: r3's list is h4 h2 h3 h1. r4 displaces r3 from h4,
    # so r3 applies next to h2 and displaces r1. Had h1 been passed over
    # without the rule, r3 would swap h2 with h4 instead, leaving h1 h4 h3 h2,
    # and after r4 it would displace r2 from h3. Deferred acceptance without
    # the rule ends here too, so this pins only the capacity-0 case.
    text = "4 4\nr1: h2\nr2: h3\nr3: ( h2 h3 h1 h4 )\nr4: h4\n"
    text += "h1: 0: r3\nh2: 1: r3 r1\nh3: 1: r3 r2\nh4: 1: r4 r3\n"
    instance, warnings = parse_instance(text)
    assert not warnings
    assert reference_break_ties(instance).residents[2].entries() == (1, 2, 3, 4)
    assert warm_start(instance) == Matching({2: 3, 3: 2, 4: 4})
    assert promotion_starts(instance)(0) == Matching({2: 3, 3: 2, 4: 4})


def test_gale_shapley_single_pair(single_pair):
    assert warm_start(single_pair) == Matching({1: 1})


def test_warm_start_stable_and_sized_5_or_6(fig1):
    rng = random.Random(20)
    for _ in range(20):
        relabeled, _, _ = relabel(fig1, rng)
        m = warm_start(relabeled)
        assert certify(relabeled, m) is None
        assert len(m) in (5, 6)


def test_warm_start_unlisted_residents_unmatched():
    instance, _ = parse_instance("2 1\nr1: h1\nr2:\nh1: 1: r1\n")
    m = warm_start(instance)
    assert m == Matching({1: 1})


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_warm_start_always_weakly_stable(data):
    instance = data.draw(instances_strategy())
    matching = warm_start(instance)
    assert certify(instance, matching) is None


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_gale_shapley_no_blocking_pair_in_strict(data):
    instance = data.draw(instances_strategy(ties=False))
    matching = warm_start(instance)
    assert certify(instance, matching) is None


@settings(max_examples=80, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**30))
def test_promotion_start_weakly_stable_with_ties_on_both_sides(data, seed):
    instance = data.draw(instances_strategy())
    matching = promotion_starts(instance)(seed)
    assert certify(instance, matching) is None


@settings(max_examples=40, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**30))
def test_promotion_start_deterministic_given_seed(data, seed):
    instance = data.draw(instances_strategy())
    assert promotion_starts(instance)(seed) == promotion_starts(instance)(seed)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**30))
def test_promotion_start_is_gale_shapley_on_strict(data, seed):
    instance = data.draw(instances_strategy(ties=False))
    assert promotion_starts(instance)(seed) == warm_start(instance)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**30))
def test_promotion_start_two_thirds_of_optimum_with_hospital_ties(data, seed):
    tied = data.draw(instances_strategy(max_residents=8, max_hospitals=4))
    instance = Instance(
        residents=tuple(PreferenceList.strict(p.entries()) for p in tied.residents),
        hospitals=tied.hospitals,
    )
    optimum = max_stable_size(instance, OracleLimit(max_pairs=32))
    assert len(promotion_starts(instance)(seed)) >= math.ceil(2 * optimum / 3)


def test_promotion_start_reaches_optimum_where_tie_breaking_may_not(fig1, m1):
    # r6 displaces r4 from h2, where r4 and r5 are tied. r4 runs out of
    # hospitals, is promoted, and displaces the unpromoted r5, who moves to
    # h3: the size-6 matching M1, under every labeling of the agents.
    # Breaking h2's tie as r5 before r4 gives size 5 instead (see
    # test_gale_shapley_r5_first); relabeling cannot reorder that tie.
    rng = random.Random(39)
    for seed in range(20):
        relabeled, res_map, hosp_map = relabel(fig1, rng)
        assert promotion_starts(relabeled)(seed) == carry(m1, res_map, hosp_map)


def test_promotion_seeds_shuffle_the_proposal_order():
    # Residents' lists are strict, so only the proposal order differs from
    # seed to seed; with the hospitals' ties kept, it changes the matching.
    instance = generate(sfas_like(100, 0.85, 4))
    assert all(p.is_strict() for p in instance.residents)
    start = promotion_starts(instance)
    matchings = {start(seed) for seed in range(8)}
    assert len(matchings) > 1
    assert all(certify(instance, m) is None for m in matchings)
