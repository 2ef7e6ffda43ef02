"""Parsing and serialization round-trips for both text formats."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxhrt.core import Matching, build_rank_table
from maxhrt.instance_io import (
    ParseError,
    _parse_id,
    parse_instance,
    parse_matching,
    serialize_instance,
    serialize_matching,
)

from conftest import FIG1_TEXT, M1_PAIRS
from strategies import instances_strategy, matchings_for

M1_TEXT = """\
r1 h1
r2 h1
r3 h3
r4 h2
r5 h3
r6 h2
"""


def test_parse_fig1_prunes_one_sided_pair(fig1):
    assert fig1.n1 == 6 and fig1.n2 == 3
    assert not fig1.is_acceptable(2, 2)
    assert len(fig1.acceptable_pairs()) == 10


def test_minimal_instance():
    instance, warnings = parse_instance("1 1\nr1: h1\nh1: 1: r1\n")
    assert not warnings
    assert instance.acceptable_pairs() == [(1, 1)]
    assert instance.capacity(1) == 1


def test_duplicate_entry_rejected():
    with pytest.raises(ParseError, match="duplicate"):
        parse_instance("1 1\nr1: h1 h1\nh1: 1: r1\n")


def test_malformed_header():
    with pytest.raises(ParseError, match="header"):
        parse_instance("one two\nr1: h1\n")


def test_non_positive_counts():
    with pytest.raises(ParseError, match="positive"):
        parse_instance("0 1\nh1: 1:\n")


def test_unknown_id():
    with pytest.raises(ParseError, match="unknown id"):
        parse_instance("1 1\nr1: h2\nh1: 1: r1\n")


def test_unbalanced_parentheses():
    with pytest.raises(ParseError, match="parentheses"):
        parse_instance("2 1\nr1: h1\nr2: h1\nh1: 1: ( r1 r2\n")


def test_fig1_round_trip(fig1):
    text = serialize_instance(fig1)
    again, warnings = parse_instance(text)
    assert not warnings
    assert again == fig1
    assert build_rank_table(again) == build_rank_table(fig1)


def test_tie_emitted_in_parentheses(fig1):
    assert "( r4 r5 )" in serialize_instance(fig1)


def test_empty_list_line():
    instance, _ = parse_instance("1 1\nr1:\nh1: 2:\n")
    text = serialize_instance(instance)
    assert "r1:\n" in text
    again, _ = parse_instance(text)
    assert again == instance


def test_crlf_and_comments_tolerated():
    text = FIG1_TEXT.replace("\n", "\r\n") + "# trailing comment\r\n"
    instance, warnings = parse_instance(text)
    assert len(warnings) == 1
    assert len(instance.acceptable_pairs()) == 10


def test_glued_parentheses_accepted():
    instance, _ = parse_instance("2 1\nr1: h1\nr2: h1\nh1: 1: (r1 r2)\n")
    assert instance.hospitals[0].preferences.groups == ((1, 2),)


def test_parse_matching_m1(fig1, m1):
    assert parse_matching(M1_TEXT, fig1) == m1


def test_parse_matching_unmatched_marker(fig1):
    text = "r1 -\nr2 h1\nr3 -\nr4 -\nr5 -\nr6 -\n"
    matching = parse_matching(text, fig1)
    assert matching.hospital_of(1) is None
    assert len(matching) == 1


def test_parse_matching_rejects_unacceptable(fig1):
    text = "r1 -\nr2 h3\nr3 -\nr4 -\nr5 -\nr6 -\n"
    with pytest.raises(ParseError, match="line 2: .*not acceptable"):
        parse_matching(text, fig1)


def test_parse_matching_rejects_capacity_breach(fig1):
    text = "r1 h1\nr2 h1\nr3 h1\nr4 -\nr5 -\nr6 -\n"
    with pytest.raises(ParseError, match="line 3: .*capacity"):
        parse_matching(text, fig1)


def test_matching_round_trip(fig1, m1):
    text = serialize_matching(m1, fig1)
    assert parse_matching(text, fig1) == m1


def test_serialize_matching_m1_exact(fig1):
    assert serialize_matching(Matching.from_pairs(M1_PAIRS), fig1) == M1_TEXT


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_instance_round_trip_property(data):
    instance = data.draw(instances_strategy())
    again, warnings = parse_instance(serialize_instance(instance))
    assert not warnings
    assert again == instance


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_matching_round_trip_property(data):
    instance = data.draw(instances_strategy())
    matching = data.draw(matchings_for(instance))
    text = serialize_matching(matching, instance)
    assert parse_matching(text, instance) == matching


def test_non_ascii_digit_id_rejected():
    with pytest.raises(ParseError) as info:
        parse_instance("1 1\nr1: h١\nh1: 1: r1\n")
    assert str(info.value) == "line 2: expected h<number>, got 'h١'"


def test_out_of_range_id_names_line_and_range():
    with pytest.raises(ParseError) as info:
        parse_instance("2 1\nr1: h1\nr2: h1\nh1: 1: r1 r3\n")
    assert str(info.value) == "line 4: unknown id 'r3' (valid: r1..r2)"


def test_wrong_kind_id_rejected():
    with pytest.raises(ParseError) as info:
        parse_instance("1 1\nr1: r1\nh1: 1: r1\n")
    assert str(info.value) == "line 2: expected h<number>, got 'r1'"


def test_leading_zero_id_accepted():
    instance, warnings = parse_instance("1 1\nr01: h01\nh1: 1: r001\n")
    assert not warnings
    assert instance.acceptable_pairs() == [(1, 1)]


@pytest.mark.parametrize("header", ["1² 1", "--1 1", "1 --1"])
def test_header_with_non_integer_count_names_line(header):
    with pytest.raises(ParseError) as info:
        parse_instance(f"# counts\n{header}\nr1: h1\nh1: 1: r1\n")
    assert str(info.value) == f"line 2: malformed header {header!r}, expected '<n1> <n2>'"


@pytest.mark.parametrize("capacity", ["²", "--1", "(--1)"])
def test_capacity_that_is_not_an_integer_names_line(capacity):
    with pytest.raises(ParseError) as info:
        parse_instance(f"1 1\nr1: h1\nh1: {capacity}: r1\n")
    token = capacity.strip("()")
    assert str(info.value) == f"line 3: capacity must be an integer, got {token!r}"


def test_negative_header_count_and_capacity_keep_their_messages():
    with pytest.raises(ParseError, match="line 1: n1 and n2 must be positive, got -1 1"):
        parse_instance("-1 1\nh1: 1:\n")
    with pytest.raises(ParseError, match="line 3: capacity must be non-negative, got -2"):
        parse_instance("1 1\nr1: h1\nh1: -2: r1\n")


@settings(max_examples=300, deadline=None)
@given(token=st.text(alphabet="rh0159١²-+ _x", min_size=0, max_size=5))
def test_id_tokens_accepted_exactly_as_kind_then_ascii_digits(token):
    match = re.fullmatch(r"h([0-9]+)", token)
    try:
        value = _parse_id(token, "h", 10**6, 1)
    except ParseError:
        value = None
    assert value == (int(match.group(1)) if match and 1 <= int(match.group(1)) else None)
