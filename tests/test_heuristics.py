"""Tie-breaking, deferred-acceptance and promotion warm starts."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxhrt.core import (
    Instance,
    Matching,
    PreferenceList,
    build_rank_table,
    certify,
)
from maxhrt.generator import generate, sfas_like
from maxhrt.heuristics import break_ties, gale_shapley, promotion_starts, warm_start
from maxhrt.instance_io import parse_instance

from conftest import FIG1_TEXT
from oracle import OracleLimit, max_stable_size
from strategies import carry, instances_strategy, relabel


def test_break_ties_identity_on_strict(single_pair):
    assert break_ties(single_pair) == single_pair


def test_break_ties_deterministic(fig1):
    assert break_ties(fig1) == break_ties(fig1)


def test_break_ties_preserves_cross_tie_order(fig1):
    strict = break_ties(fig1)
    assert all(p.is_strict() for p in strict.residents)
    assert all(h.preferences.is_strict() for h in strict.hospitals)
    entries = strict.hospitals[1].preferences.entries()
    # order of the strict prefix r1, r6 is kept; the tie members fill the tail
    assert entries[:2] == (1, 6)
    assert set(entries[2:]) == {4, 5}


def test_gale_shapley_rejects_ties(fig1):
    with pytest.raises(ValueError):
        gale_shapley(fig1)


def test_gale_shapley_r4_first():
    # tie (r4 r5) broken as r4, r5: deferred acceptance reaches size 6
    strict, _ = parse_instance(FIG1_TEXT.replace("( r4 r5 )", "r4 r5"))
    expected = Matching.from_pairs([(1, 1), (2, 1), (3, 3), (4, 2), (6, 2), (5, 3)])
    assert gale_shapley(strict) == expected


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
    assert gale_shapley(strict) == m0


def test_gale_shapley_single_pair(single_pair):
    assert gale_shapley(single_pair) == Matching({1: 1})


def test_warm_start_stable_and_sized_5_or_6(fig1):
    rng = random.Random(20)
    for _ in range(20):
        relabeled, _, _ = relabel(fig1, rng)
        m = warm_start(relabeled)
        assert certify(relabeled, build_rank_table(relabeled), m) is None
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
    assert certify(instance, build_rank_table(instance), matching) is None


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_gale_shapley_no_blocking_pair_in_strict(data):
    instance = data.draw(instances_strategy(ties=False))
    matching = gale_shapley(instance)
    assert certify(instance, build_rank_table(instance), matching) is None


@settings(max_examples=80, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**30))
def test_promotion_start_weakly_stable_with_ties_on_both_sides(data, seed):
    instance = data.draw(instances_strategy())
    matching = promotion_starts(instance)(seed)
    assert certify(instance, build_rank_table(instance), matching) is None


@settings(max_examples=40, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**30))
def test_promotion_start_deterministic_given_seed(data, seed):
    instance = data.draw(instances_strategy())
    assert promotion_starts(instance)(seed) == promotion_starts(instance)(seed)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**30))
def test_promotion_start_is_gale_shapley_on_strict(data, seed):
    instance = data.draw(instances_strategy(ties=False))
    assert promotion_starts(instance)(seed) == gale_shapley(instance)


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
    ranks = build_rank_table(instance)
    assert all(certify(instance, ranks, m) is None for m in matchings)
