"""The HiGHS child's tie-count rows against the model's rows.

This module imports neither numpy nor scipy, so it runs where they are not
installed. For every 0/1 point x of a small model, y is set to each
hospital's cumulative tie counts; the child's rows must accept (x, y)
exactly when the model's rows accept x. The tie rows fix y given x, so no
other y needs checking.
"""

import itertools

from hypothesis import given, settings

from maxhrt.core import build_rank_table
from maxhrt.highs import tie_count_rows
from maxhrt.instance_io import parse_instance
from maxhrt.ip_model import build_model

from conftest import violated_by
from strategies import instances_strategy

# Ties on both sides, and h3 with no post.
TIED_TEXT = """\
4 3
r1: ( h1 h2 ) h3
r2: h1 h3
r3: h2 ( h1 h3 )
r4: h3 h2
h1: 1: ( r1 r2 ) r3
h2: 2: r3 ( r1 r4 )
h3: 0: r2 ( r1 r3 r4 )
"""


def cumulative_counts(model, x):
    """Each hospital's assignees in its ties 1 to t, for every tie t, hospital by hospital."""
    y = []
    for cols in model.hosp_columns:
        count = 0
        for _, tie in itertools.groupby(cols, key=model.hosp_rank.__getitem__):
            count += sum(x[col] for col in tie)
            y.append(count)
    return y


def accepts(row, point):
    terms, lower, upper = row
    return lower <= sum(c * point[col] for col, c in terms) <= upper


def assert_rows_agree(instance):
    model = build_model(instance, build_rank_table(instance))
    paper = model.constraints
    columns, rows = tie_count_rows(model)
    stable_points = 0
    for bits in itertools.product((0, 1), repeat=model.num_variables):
        x = list(bits)
        point = x + cumulative_counts(model, x)
        assert len(point) == columns
        stable = not any(violated_by(row, x) for row in paper)
        assert all(accepts(row, point) for row in rows) == stable, x
        stable_points += stable
    assert stable_points > 0  # a weakly stable matching always exists


def test_fig1_rows_agree(fig1):
    assert_rows_agree(fig1)


def test_rows_agree_with_ties_on_both_sides_and_a_closed_hospital():
    instance, warnings = parse_instance(TIED_TEXT)
    assert not warnings and instance.capacity(3) == 0
    assert_rows_agree(instance)


@settings(max_examples=150, deadline=None)
@given(instance=instances_strategy(max_residents=5, max_hospitals=3))
def test_rows_agree(instance):
    # ties on both sides, and capacities from 0 to 3
    assert_rows_agree(instance)
