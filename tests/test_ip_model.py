"""Model construction and feasibility semantics."""

import itertools
import random

import pytest
from hypothesis import given, settings

from maxhrt.core import Matching, build_rank_table, certify
from maxhrt.instance_io import parse_instance
from maxhrt.ip_model import LinearConstraint, build_model
from maxhrt.generator import GeneratorConfig, generate

from conftest import M1_PAIRS, column_of, encode, highs_optimum, violated_by
from oracle import OracleLimit, enumerate_stable_matchings, max_stable_size
from strategies import instances_strategy


def _model(instance):
    return build_model(instance, build_rank_table(instance))


def is_feasible(model, vector):
    """Whether the point is 0/1 and satisfies every row of the model."""
    if len(vector) != model.num_variables:
        raise ValueError("vector length does not match variable count")
    if any(x not in (0, 1) for x in vector):
        return False
    return not any(violated_by(row, vector) for row in model.constraints)


def kind_of(row):
    """A row's kind, read off its name: res_i, cap_j or stab_i_j."""
    return {"res": "resident", "cap": "capacity", "stab": "stability"}[row.name.split("_")[0]]


def reference_rows(instance, ranks):
    """Every row built eagerly, each stability row by filtering on ranks.

    A pair to a hospital with no post gets no column: it can never be 1,
    and it can never block.
    """
    pairs = [(i, j) for i, j in instance.acceptable_pairs() if instance.capacity(j) > 0]
    res_columns = [[] for _ in range(instance.n1)]
    hosp_columns = [[] for _ in range(instance.n2)]
    for col, (i, j) in enumerate(pairs):
        res_columns[i - 1].append(col)
        hosp_columns[j - 1].append(col)
    rows = [
        LinearConstraint(f"res_{i}", tuple((col, 1) for col in cols), 1)
        for i, cols in enumerate(res_columns, start=1)
    ]
    rows += [
        LinearConstraint(f"cap_{j}", tuple((col, 1) for col in cols), instance.capacity(j))
        for j, cols in enumerate(hosp_columns, start=1)
    ]
    for i, j in pairs:
        cap = instance.capacity(j)
        coeff = {}
        for col in res_columns[i - 1]:
            q = pairs[col][1]
            if ranks.resident_ranks[i - 1][q] <= ranks.resident_ranks[i - 1][j]:
                coeff[col] = coeff.get(col, 0) - cap
        for col in hosp_columns[j - 1]:
            p = pairs[col][0]
            if ranks.hospital_ranks[j - 1][p] <= ranks.hospital_ranks[j - 1][i]:
                coeff[col] = coeff.get(col, 0) - 1
        rows.append(LinearConstraint(f"stab_{i}_{j}", tuple(sorted(coeff.items())), -cap))
    return rows


def test_fig1_rows_equal_reference(fig1, fig1_ranks):
    assert list(_model(fig1).constraints) == reference_rows(fig1, fig1_ranks)


@settings(max_examples=200, deadline=None)
@given(instance=instances_strategy(max_residents=7, max_hospitals=4))
def test_rows_equal_reference(instance):
    # ties on both sides, and capacities from 0 to 3
    ranks = build_rank_table(instance)
    assert list(_model(instance).constraints) == reference_rows(instance, ranks)


def test_fig1_pair_index(fig1):
    # h2 ranks r1, r6, then r4 and r5 tied (kept in column order); h3 ranks r5 first
    model = _model(fig1)
    assert model.pairs == tuple(fig1.acceptable_pairs())
    assert model.num_variables == len(model.pairs)
    col = column_of(model)
    assert model.hosp_columns[1] == (col[1, 2], col[6, 2], col[4, 2], col[5, 2])
    assert [model.hosp_rank[c] for c in model.hosp_columns[1]] == [1, 2, 3, 3]
    assert model.hosp_columns[2] == (col[5, 3], col[3, 3])
    assert model.res_columns[4] == (col[5, 2], col[5, 3])
    assert [model.res_rank[c] for c in model.res_columns[4]] == [1, 2]


def test_fig1_model_shape(fig1):
    model = _model(fig1)
    assert model.num_variables == 10
    assert len(model.constraints) == 19
    kinds = [kind_of(c) for c in model.constraints]
    assert kinds.count("resident") == 6
    assert kinds.count("capacity") == 3
    assert kinds.count("stability") == 10


def test_rows_are_derived_once(fig1):
    # a traced benchmark pass reads the rows twice per model
    model = _model(fig1)
    assert model.constraints is model.constraints


def test_single_pair_forces_match(single_pair):
    model = _model(single_pair)
    assert model.num_variables == 1
    stab = [c for c in model.constraints if kind_of(c) == "stability"]
    assert stab[0].coefficients == ((0, -2),)
    assert stab[0].rhs == -1
    assert not is_feasible(model, [0])
    assert is_feasible(model, [1])


def test_fig1_stability_row_r4_h2(fig1):
    # folded row for (r4, h2): hospitals r4 weakly prefers to h2 = {h2};
    # residents h2 weakly prefers to r4 = {r1, r6, r4, r5} (ties included)
    model = _model(fig1)
    row = next(c for c in model.constraints if c.name == "stab_4_2")
    by_pair = {model.pairs[col]: c for col, c in row.coefficients}
    assert by_pair == {(4, 2): -3, (1, 2): -1, (6, 2): -1, (5, 2): -1}
    assert row.rhs == -2


def test_feasible_iff_stable_exhaustive(fig1):
    # both directions of the model-correctness theorem, by brute force
    model = _model(fig1)
    stable_set = enumerate_stable_matchings(fig1)
    seen = set()
    for bits in itertools.product((0, 1), repeat=model.num_variables):
        vector = list(bits)
        if is_feasible(model, vector):
            pairs = [pair for pair, x in zip(model.pairs, vector) if x == 1]
            matching = Matching.from_pairs(pairs)
            assert certify(fig1, matching) is None
            assert sum(vector) == len(matching)
            seen.add(matching)
    assert seen == stable_set
    for matching in stable_set:
        assert is_feasible(model, encode(model, matching))


def test_all_zero_violates_some_stability_row(fig1):
    model = _model(fig1)
    zero = [0] * model.num_variables
    violated = [c for c in model.constraints if violated_by(c, zero)]
    assert violated and all(kind_of(c) == "stability" for c in violated)


def test_m1_indicator_feasible(fig1):
    model = _model(fig1)
    assert is_feasible(model, encode(model, Matching.from_pairs(M1_PAIRS)))


@pytest.mark.highs
def test_lp_reimport_matches_oracle_optimum():
    # independent route: the model's rows -> HiGHS, against the oracle's
    # enumeration. The random instances' largest matchings are nearly always
    # weakly stable too, so the first instance is one where they are not: its
    # largest matching, r1-h2 and r2-h1, is blocked by (r1, h1), and only the
    # stability rows bring the optimum down to 1.
    instances = [parse_instance("2 2\nr1: h1 h2\nr2: h1\nh1: 1: r1 r2\nh2: 1: r1\n")[0]]
    rng = random.Random(31)
    for _ in range(12):
        n2 = rng.randint(2, 3)
        instances.append(
            generate(
                GeneratorConfig(
                    n1=rng.randint(3, 8),
                    n2=n2,
                    total_posts=rng.randint(2, 8),
                    list_length=min(2, n2),
                    tie_density_residents=0.0,
                    tie_density_hospitals=rng.choice([0.4, 0.8]),
                    seed=rng.randrange(10**6),
                )
            )
        )
    for instance in instances:
        model = _model(instance)
        if model.num_variables == 0:
            continue
        assert highs_optimum(model) == max_stable_size(instance, OracleLimit(max_pairs=99))
