"""Parsing and serialization round-trips for both text formats."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxhrt import instance_io
from maxhrt.core import Hospital, Instance, Matching, PreferenceList, build_rank_table
from maxhrt.generator import generate
from maxhrt.instance_io import (
    ParseError,
    _parse_id,
    parse_instance,
    parse_matching,
    serialize_instance,
    serialize_matching,
)

from conftest import FIG1_TEXT, M1_PAIRS
from reference_parser import reference_parse_instance
from strategies import instances_strategy, matchings_for
from test_pool_digests import workloads

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
    with pytest.raises(ParseError) as info:
        parse_instance("1 1\nr1: h1 h1\nh1: 1: r1\n")
    assert str(info.value) == "line 2: duplicate entry 'h1'"


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


def test_serialized_edge_text_exact():
    # An empty resident list, a capacity-0 hospital with an empty list, and
    # a two-member tie between strict entries with ids of two digits. A
    # change of spacing would still parse back to the same instance, so the
    # round trip alone cannot catch it.
    empty = PreferenceList(())
    instance = Instance(
        residents=(PreferenceList(((2,), (1, 10), (11,))), empty),
        hospitals=(
            Hospital(1, PreferenceList(((1,),))),
            Hospital(2, PreferenceList(((1,),))),
            Hospital(0, empty),
            *(Hospital(1, empty) for _ in range(4, 10)),
            Hospital(1, PreferenceList(((1,),))),
            Hospital(3, PreferenceList(((1,),))),
        ),
    )
    assert serialize_instance(instance) == (
        "2 11\n"
        "r1: h2 ( h1 h10 ) h11\n"
        "r2:\n"
        "h1: 1: r1\n"
        "h2: 2: r1\n"
        "h3: 0:\n"
        + "".join(f"h{j}: 1:\n" for j in range(4, 10))
        + "h10: 1: r1\n"
        "h11: 3: r1\n"
    )


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


def test_matching_leading_zero_id_accepted(fig1, m1):
    assert parse_matching(M1_TEXT.replace("r1 h1", "r01 h001"), fig1) == m1


@pytest.mark.parametrize("header", ["1² 1", "--1 1", "1 --1"])
def test_header_with_non_integer_count_names_line(header):
    with pytest.raises(ParseError) as info:
        parse_instance(f"# counts\n{header}\nr1: h1\nh1: 1: r1\n")
    assert str(info.value) == f"line 2: malformed header {header!r}, expected '<n1> <n2>'"


@pytest.mark.parametrize("capacity", ["²", "--1", "(--1)", "()"])
def test_capacity_that_is_not_an_integer_names_line(capacity):
    with pytest.raises(ParseError) as info:
        parse_instance(f"1 1\nr1: h1\nh1: {capacity}: r1\n")
    token = capacity.strip("()")
    assert str(info.value) == f"line 3: capacity must be an integer, got {token!r}"


@pytest.mark.parametrize("capacity", ["(2)", "( 2 )"])
def test_figure_style_capacity_accepted(capacity):
    instance, warnings = parse_instance(f"1 1\nr1: h1\nh1: {capacity}: r1\n")
    assert warnings == []
    assert instance.capacity(1) == 2
    assert serialize_instance(instance) == "1 1\nr1: h1\nh1: 2: r1\n"


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


# Malformed instance texts and the full message each must raise.
@pytest.mark.parametrize(
    "text, message",
    [
        pytest.param("1 1\nr1: ( ( h1 ) )\nh1: 1: r1\n", "line 2: nested tie bracket",
                     id="nested-tie"),
        pytest.param("1 1\nr1: h1 )\nh1: 1: r1\n", "line 2: unbalanced tie parentheses",
                     id="close-without-open"),
        pytest.param("1 1\nr1: h1 ( )\nh1: 1: r1\n", "line 2: empty tie group", id="empty-tie"),
        pytest.param("1 1\nr1: ( h1 h1 )\nh1: 1: r1\n", "line 2: duplicate entry 'h1'",
                     id="repeat-in-tie"),
        # the repeat comes before the unknown id, so it is the line's first fault
        pytest.param("1 1\nr1: h1 h1 h9\nh1: 1: r1\n", "line 2: duplicate entry 'h1'",
                     id="repeat-before-unknown"),
        pytest.param("# no content\n\n", "line 1: empty input", id="empty-input"),
        pytest.param("2 1\nr1: h1\nh1: 1: r1\n",
                     "line 3: expected 2 resident lines and 1 hospital lines, got 2",
                     id="line-count"),
        pytest.param("1 1\nr1 h1\nh1: 1: r1\n", "line 2: missing ':' after resident id",
                     id="resident-colon"),
        pytest.param("1 1\nr1: h1\nh1 1 r1\n", "line 3: missing ':' after hospital id",
                     id="hospital-colon"),
        pytest.param("2 1\nr2: h1\nr1: h1\nh1: 2: r1 r2\n",
                     "line 2: expected r1 at this position, got 'r2'", id="resident-position"),
        pytest.param("1 2\nr1: h1 h2\nh2: 1: r1\nh1: 1: r1\n",
                     "line 3: expected h1 at this position, got 'h2'", id="hospital-position"),
        pytest.param("1 1\nr1: h1\nh1: r1\n", "line 3: missing capacity field",
                     id="capacity-field"),
    ],
)
def test_malformed_instance_names_its_line(text, message):
    with pytest.raises(ParseError) as info:
        parse_instance(text)
    assert str(info.value) == message


def test_resident_side_one_sided_pair_warns_with_its_line():
    instance, warnings = parse_instance("1 2\nr1: h1 h2\nh1: 1: r1\nh2: 1:\n")
    assert [str(w) for w in warnings] == [
        "line 2: warning: pruned one-sided pair (r1, h2): h2 does not list r1"
    ]
    assert instance.acceptable_pairs() == [(1, 1)]


# Malformed matching texts for the example instance, and the full message.
@pytest.mark.parametrize(
    "text, message",
    [
        pytest.param("r1 h1\nr2 h1\n", "line 2: expected one line per resident (6), got 2",
                     id="line-count"),
        pytest.param("", "line 1: expected one line per resident (6), got 0", id="empty"),
        pytest.param(M1_TEXT.replace("r3 h3", "r3 h3 h1"),
                     "line 3: expected 'r<i> h<j>' or 'r<i> -', got 'r3 h3 h1'", id="malformed"),
        pytest.param(M1_TEXT.replace("r1 h1\nr2 h1", "r2 h1\nr1 h1"),
                     "line 1: expected r1 at this position, got 'r2'", id="resident-position"),
        pytest.param(M1_TEXT.replace("r2 h1", "h2 h1"),
                     "line 2: expected r<number>, got 'h2'", id="wrong-kind"),
        pytest.param(M1_TEXT.replace("r4 h2", "r4 h4"),
                     "line 4: unknown id 'h4' (valid: h1..h3)", id="unknown-hospital"),
        pytest.param(M1_TEXT.replace("r5 h3", "r5 h\u0663"),
                     "line 5: expected h<number>, got 'h\u0663'", id="non-ascii-digit"),
    ],
)
def test_malformed_matching_names_its_line(fig1, text, message):
    with pytest.raises(ParseError) as info:
        parse_matching(text, fig1)
    assert str(info.value) == message


def test_agent_with_several_one_sided_entries_is_pruned_once(monkeypatch):
    # r1 lists four hospitals that do not list it back: four warnings, in
    # order, and one rebuild of its list.
    rebuilt = []
    without = PreferenceList.without

    def counting_without(self, removed):
        rebuilt.append(set(removed))
        return without(self, removed)

    monkeypatch.setattr(PreferenceList, "without", counting_without)
    instance, warnings = parse_instance(
        "1 5\nr1: h1 h2 ( h3 h4 ) h5\nh1: 1: r1\nh2: 1:\nh3: 1:\nh4: 1:\nh5: 1:\n"
    )
    assert [str(w) for w in warnings] == [
        f"line 2: warning: pruned one-sided pair (r1, h{h}): h{h} does not list r1"
        for h in (2, 3, 4, 5)
    ]
    assert rebuilt == [{2, 3, 4, 5}]
    assert instance.residents[0].groups == ((1,),)


def test_hospital_side_warnings_keep_pair_order():
    # The warnings follow (resident, hospital) order, across hospital lines.
    text = "2 2\nr1:\nr2:\nh1: 1: r1 r2\nh2: 1: r2 r1\n"
    instance, warnings = parse_instance(text)
    assert [w.line for w in warnings] == [4, 5, 4, 5]
    assert (instance, warnings) == reference_parse_instance(text)
    assert instance.acceptable_pairs() == []


def _outcome(parse, text):
    """What a parser makes of the text: its result, or its error's type and text."""
    try:
        return parse(text)
    except Exception as exc:  # the two parsers must fail alike, whatever the error
        return type(exc), str(exc)


# Each mutation takes a line's tokens and the index of one of its id tokens,
# and returns the line's new text.
def _glue_brackets(tokens, k):
    return " ".join(tokens).replace("( ", "(").replace(" )", ")")


def _leading_zero(tokens, k):
    tokens[k] = tokens[k][0] + "0" + tokens[k][1:]
    return " ".join(tokens)


def _non_ascii_digit(tokens, k):
    tokens[k] = tokens[k][0] + "\u0661" + tokens[k][1:]
    return " ".join(tokens)


def _wrong_kind(tokens, k):
    tokens[k] = {"r": "h", "h": "r"}[tokens[k][0]] + tokens[k][1:]
    return " ".join(tokens)


def _out_of_range(tokens, k):
    number = "0" if k % 2 else "99"
    tokens[k] = tokens[k][0] + number + tokens[k][-1] * tokens[k].endswith(":")
    return " ".join(tokens)


def _duplicate(tokens, k):
    return " ".join(tokens + [tokens[k][0] + "0" + tokens[k][1:].rstrip(":")])


def _repeat_entry(tokens, k):
    # The id token again, verbatim: for odd k next to itself, so inside its
    # tie if it is in one, and for even k as a strict entry at the end.
    token = tokens[k].rstrip(":")
    if k % 2:
        return " ".join(tokens[: k + 1] + [token] + tokens[k + 1 :])
    return " ".join(tokens + [token])


def _empty_tie(tokens, k):
    return " ".join(tokens + ["(", ")"])


def _nested_tie(tokens, k):
    return " ".join(tokens[:k] + ["(", "(", tokens[k], ")", ")"] + tokens[k + 1 :])


def _unclosed_tie(tokens, k):
    return " ".join(tokens[:k] + ["("] + tokens[k:])


def _missing_colon(tokens, k):
    # The last colon: the one after a resident's id, or a hospital's capacity.
    head, _, rest = " ".join(tokens).rpartition(":")
    return head + " " + rest


def _drop_entry(tokens, k):
    # An entry only one side lists, pruned with a warning unless k is the head.
    return " ".join(tokens[:k] + tokens[k + 1 :])


MUTATIONS = [
    _glue_brackets,
    _leading_zero,
    _non_ascii_digit,
    _wrong_kind,
    _out_of_range,
    _duplicate,
    _repeat_entry,
    _empty_tie,
    _nested_tie,
    _unclosed_tie,
    _missing_colon,
    _drop_entry,
]


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_parse_instance_matches_reference(data):
    text = serialize_instance(data.draw(instances_strategy(max_residents=8, max_hospitals=5)))
    lines = text.split("\n")
    for _ in range(data.draw(st.integers(1, 3))):
        index = data.draw(st.integers(1, len(lines) - 2))  # a resident or hospital line
        tokens = lines[index].split()
        ids = [k for k, token in enumerate(tokens) if token[0] in "rh"]
        if not ids:  # an earlier mutation left no id on this line
            continue
        k = data.draw(st.sampled_from(ids[::-1]))  # list entries before the head
        mutation = data.draw(st.sampled_from(MUTATIONS))
        lines[index] = mutation(tokens, k)
    mutated = "\n".join(lines)
    assert _outcome(parse_instance, mutated) == _outcome(reference_parse_instance, mutated)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_pool_texts_parse_by_the_quick_pass_alone(workload, monkeypatch):
    # Every line of a serialized pool instance is read by the quick pass, so
    # a change of the text format cannot send the pools to the token walk.
    walked = []
    walk = instance_io._parse_groups

    def counting_walk(tokens, ids, kind, line):
        walked.append(line)
        return walk(tokens, ids, kind, line)

    monkeypatch.setattr(instance_io, "_parse_groups", counting_walk)
    for config in workloads.WORKLOADS[workload]:
        instance = generate(config)
        text = serialize_instance(instance)
        assert parse_instance(text) == reference_parse_instance(text) == (instance, [])
    assert walked == []
