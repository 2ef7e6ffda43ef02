"""Model construction, feasibility semantics, and LP export."""

import itertools
import random
import re

import pytest
from hypothesis import given, settings

from maxhrt.core import Matching, build_rank_table, certify
from maxhrt.instance_io import parse_instance
from maxhrt.ip_model import LinearConstraint, build_model, export_lp
from maxhrt.generator import GeneratorConfig, generate

from conftest import M1_PAIRS, column_of, encode, violated_by
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


def test_feasible_iff_stable_exhaustive(fig1, fig1_ranks):
    # both directions of the model-correctness theorem, by brute force
    model = _model(fig1)
    stable_set = enumerate_stable_matchings(fig1)
    seen = set()
    for bits in itertools.product((0, 1), repeat=model.num_variables):
        vector = list(bits)
        if is_feasible(model, vector):
            pairs = [pair for pair, x in zip(model.pairs, vector) if x == 1]
            matching = Matching.from_pairs(pairs)
            assert certify(fig1, fig1_ranks, matching) is None
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


def test_export_lp_single_pair(single_pair):
    text = export_lp(_model(single_pair))
    assert "stab_1_1: - 2 x_1_1 <= -1" in text
    assert text.startswith("Maximize\n")
    assert text.rstrip().endswith("End")


def test_export_lp_rejects_model_without_variables():
    # r1 lists nothing; then every acceptable pair goes to a hospital with no post
    for text in ("1 1\nr1:\nh1: 1:\n", "2 2\nr1: h1\nr2: h1 h2\nh1: 0: r1 r2\nh2: 0: r2\n"):
        instance, _ = parse_instance(text)
        with pytest.raises(ValueError) as info:
            export_lp(_model(instance))
        assert str(info.value) == (
            "cannot export a model with no variables:"
            " no acceptable pair has a hospital with a post"
        )


def test_export_lp_fig1_rows_and_binaries(fig1):
    text = export_lp(_model(fig1))
    rows = re.findall(r"^ (res|cap|stab)\S*:", text, flags=re.M)
    assert len(rows) == 19
    binary_section = text.split("Binary\n")[1].split("End")[0]
    assert len(binary_section.split()) == 10


def parse_lp(text):
    """Minimal reader for the exported subset of the LP format."""
    body = text.replace("\n", " ")
    objective = re.search(r"Maximize\s+obj:(.*?)Subject To", body).group(1)
    rows_text = re.search(r"Subject To(.*?)Binary", body).group(1)
    names = re.findall(r"x_\d+_\d+", text)
    columns = {}
    for name in names:
        columns.setdefault(name, len(columns))

    def parse_terms(expr):
        coeffs = {}
        for sign, mag, name in re.findall(r"([+-]?)\s*(\d*)\s*(x_\d+_\d+)", expr):
            value = int(mag) if mag else 1
            if sign == "-":
                value = -value
            coeffs[columns[name]] = coeffs.get(columns[name], 0) + value
        return coeffs

    obj = parse_terms(objective)
    rows = []
    for chunk in re.findall(r"\S+:(.*?)<=\s*(-?\d+)", rows_text):
        rows.append((parse_terms(chunk[0]), int(chunk[1])))
    return len(columns), obj, rows


@pytest.mark.highs
def test_lp_reimport_matches_oracle_optimum():
    # independent route: exported text -> generic reader -> HiGHS
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint as ScipyRow, milp

    rng = random.Random(31)
    for _ in range(12):
        n2 = rng.randint(2, 3)
        instance = generate(
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
        model = _model(instance)
        if model.num_variables == 0:
            continue
        ncols, obj, rows = parse_lp(export_lp(model))
        assert ncols == model.num_variables
        c = np.zeros(ncols)
        for col, value in obj.items():
            c[col] = -value
        mats, ubs = [], []
        for coeffs, rhs in rows:
            row = np.zeros(ncols)
            for col, value in coeffs.items():
                row[col] = value
            mats.append(row)
            ubs.append(rhs)
        result = milp(
            c=c,
            constraints=ScipyRow(np.array(mats), -np.inf, np.array(ubs)),
            integrality=np.ones(ncols),
            bounds=Bounds(0, 1),
        )
        assert result.status == 0
        external = round(-result.fun)
        assert external == max_stable_size(instance, OracleLimit(max_pairs=99))
