"""Brute-force stable-matching enumeration against independent baselines."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxhrt.core import Matching, build_rank_table, certify, validate_matching
from maxhrt.instance_io import parse_instance

from conftest import M0_PAIRS, M1_PAIRS
from oracle import (
    OracleLimit,
    OracleLimitError,
    enumerate_stable_matchings,
    max_stable_size,
)
from strategies import instances_strategy


def naive_enumeration(instance):
    """Product over every resident's options, filtered by the predicates."""
    ranks = build_rank_table(instance)
    choices = [[None] + list(p.entries()) for p in instance.residents]
    out = set()
    for combo in itertools.product(*choices):
        pairs = [(i, h) for i, h in enumerate(combo, start=1) if h is not None]
        matching = Matching.from_pairs(pairs)
        if certify(instance, ranks, matching) is None:
            out.add(matching)
    return out


def test_fig1_stable_set(fig1):
    found = enumerate_stable_matchings(fig1)
    assert Matching.from_pairs(M0_PAIRS) in found
    assert Matching.from_pairs(M1_PAIRS) in found
    assert max(len(m) for m in found) == 6
    assert max_stable_size(fig1) == 6


def test_single_pair(single_pair):
    assert enumerate_stable_matchings(single_pair) == {Matching({1: 1})}
    assert max_stable_size(single_pair) == 1


def test_all_lists_empty():
    instance, _ = parse_instance("2 2\nr1:\nr2:\nh1: 1:\nh2: 1:\n")
    assert enumerate_stable_matchings(instance) == {Matching({})}


def test_refuses_too_many_residents():
    n = 13
    lines = [f"{n} 1"] + [f"r{i}: h1" for i in range(1, n + 1)]
    lines.append("h1: 13: " + " ".join(f"r{i}" for i in range(1, n + 1)))
    instance, _ = parse_instance("\n".join(lines) + "\n")
    with pytest.raises(OracleLimitError):
        enumerate_stable_matchings(instance)


def test_refuses_too_many_pairs(fig1):
    with pytest.raises(OracleLimitError):
        enumerate_stable_matchings(fig1, OracleLimit(max_pairs=9))


def test_node_budget_refusal(fig1):
    with pytest.raises(OracleLimitError):
        enumerate_stable_matchings(fig1, OracleLimit(node_budget=3))


def test_every_result_valid_and_stable(fig1, fig1_ranks):
    for m in enumerate_stable_matchings(fig1):
        assert validate_matching(fig1, m) == []
        assert certify(fig1, fig1_ranks, m) is None


def test_nonempty_on_random_instances():
    rng = random.Random(11)
    from maxhrt.generator import GeneratorConfig, generate

    for trial in range(25):
        n2 = rng.randint(1, 3)
        config = GeneratorConfig(
            n1=rng.randint(1, 8),
            n2=n2,
            total_posts=rng.randint(0, 8),
            list_length=min(3, n2),
            tie_density_residents=0.3,
            tie_density_hospitals=0.5,
            seed=trial,
        )
        instance = generate(config)
        assert enumerate_stable_matchings(instance)


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_pruned_matches_naive(data):
    instance = data.draw(instances_strategy(max_residents=5, max_hospitals=3))
    assert enumerate_stable_matchings(instance) == naive_enumeration(instance)


def test_random_assignments_outside_set_fail_a_predicate(fig1, fig1_ranks):
    stable_set = enumerate_stable_matchings(fig1)
    rng = random.Random(5)
    options = [[None] + list(p.entries()) for p in fig1.residents]
    for _ in range(300):
        pairs = [
            (i, pick)
            for i, opts in enumerate(options, start=1)
            if (pick := rng.choice(opts)) is not None
        ]
        matching = Matching.from_pairs(pairs)
        outside = matching not in stable_set
        assert outside == (certify(fig1, fig1_ranks, matching) is not None)
