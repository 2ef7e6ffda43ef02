"""Text formats for instances and matchings.

Instance format::

    # comment lines start with '#'
    <n1> <n2>
    r1: h1 ( h2 h3 )
    r2:
    ...
    h1: <capacity>: r2 ( r1 r3 )
    ...

A capacity may also be written in round brackets, as the paper's figures
do: ``h1: (2): r1 r2`` and ``h1: ( 2 ): r1 r2`` both give h1 two posts.
Groups in round brackets are ties; a bare id is a strict entry. Tokens are
whitespace-separated, but brackets glued to ids (as in ``(r4 r5)``) are
accepted. Ids are ``r`` or ``h`` followed by ASCII digits and must be the
dense ranges 1..n1 and 1..n2, with resident and hospital lines in index order.
Both parsers look ids up in one table per kind, which maps each canonical
id (``r1`` to ``r<n1>``, ``h1`` to ``h<n2>``) to the 1-tuple of its number.
A list is read first by a quick pass that takes only those ids and spaced
brackets, gives each strict entry that shared 1-tuple, and leaves repeats
to `PreferenceList`'s check.
A line it refuses (a token such as ``h01`` or ``(r4``, a bracket fault, an
empty tie or a repeat) is walked token by token by `_parse_groups`, which
alone words errors, so what is accepted and every error message are the
same as without the tables.

Matching format: one line per resident in index order, ``r<i> h<j>`` for a
matched resident or ``r<i> -`` for an unmatched one.

One-sided list entries (a hospital listing a resident that does not list it
back, or vice versa) are pruned with a warning, since acceptability is
mutual by definition. Each pruned agent's list is rebuilt once.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Hospital, Instance, InstanceError, Matching, PreferenceList
from .core import one_sided_pairs, validate_matching


@dataclass(frozen=True)
class ParseDiagnostic:
    """A warning about input that was accepted after a repair."""

    line: int
    message: str

    def __str__(self) -> str:
        return f"line {self.line}: warning: {self.message}"


class ParseError(ValueError):
    """Raised when input text cannot be parsed into a valid object."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")


def _content_lines(text: str) -> list[tuple[int, str]]:
    """Non-empty, non-comment lines with their 1-based line numbers."""
    out = []
    for num, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            out.append((num, line))
    return out


def _is_int(text: str) -> bool:
    """Whether `text` is an optional '-' followed by ASCII digits."""
    digits = text[1:] if text.startswith("-") else text
    return digits.isascii() and digits.isdigit()


def _id_table(kind: str, limit: int) -> dict[str, tuple[int]]:
    """Each canonical id token of one kind, "h1" up to f"h{limit}", mapped to its number's 1-tuple.

    That 1-tuple is the group of the id as a strict entry, in every list.
    """
    return {f"{kind}{value}": (value,) for value in range(1, limit + 1)}


def _parse_id(token: str, kind: str, limit: int, line: int) -> int:
    """The number of an id token: `kind` followed by ASCII digits."""
    digits = token[1:]
    if token[:1] != kind or not (digits.isascii() and digits.isdigit()):
        raise ParseError(line, f"expected {kind}<number>, got {token!r}")
    value = int(digits)
    if not 1 <= value <= limit:
        raise ParseError(line, f"unknown id {token!r} (valid: {kind}1..{kind}{limit})")
    return value


def _lookup_id(token: str, ids: dict[str, tuple[int]], kind: str, line: int) -> int:
    """The number of an id token: from the table, or else by the full check."""
    entry = ids.get(token)
    return entry[0] if entry is not None else _parse_id(token, kind, len(ids), line)


def _parse_groups(
    tokens: list[str], ids: dict[str, tuple[int]], kind: str, line: int
) -> PreferenceList:
    """A line's list, walked in token order: it words the line's first fault."""
    groups: list[tuple[int, ...]] = []
    seen: set[int] = set()
    tie: list[int] | None = None
    for token in tokens:
        entry = ids.get(token)
        if entry is None:
            if token == "(":
                if tie is not None:
                    raise ParseError(line, "nested tie bracket")
                tie = []
                continue
            if token == ")":
                if tie is None:
                    raise ParseError(line, "unbalanced tie parentheses")
                if not tie:
                    raise ParseError(line, "empty tie group")
                groups.append(tuple(tie))
                tie = None
                continue
            entry = (_parse_id(token, kind, len(ids), line),)
        agent = entry[0]
        if agent in seen:
            raise ParseError(line, f"duplicate entry {token!r}")
        seen.add(agent)
        if tie is None:
            groups.append(entry)
        else:
            tie.append(agent)
    if tie is not None:
        raise ParseError(line, "unbalanced tie parentheses")
    return PreferenceList(tuple(groups))


def _read_list(body: str, ids: dict[str, tuple[int]], kind: str, line: int) -> PreferenceList:
    """A line's list by the quick pass, or by `_parse_groups` if it refuses the line."""
    try:
        if "(" not in body:
            return PreferenceList(tuple(map(ids.__getitem__, body.split())))
        groups: list[tuple[int, ...]] = []
        tie: list[int] | None = None
        # A nested "(" or a stray ")" falls through to a table and misses it.
        for token in body.split():
            if token == "(" and tie is None:
                tie = []
            elif token == ")" and tie is not None:
                groups.append(tuple(tie))
                tie = None
            elif tie is None:
                groups.append(ids[token])
            else:
                tie.append(ids[token][0])
        if tie is None:
            return PreferenceList(tuple(groups))
    except (KeyError, InstanceError):
        pass
    return _parse_groups(body.replace("(", " ( ").replace(")", " ) ").split(), ids, kind, line)


def _prune(lists: list[PreferenceList], removed: dict[int, set[int]]) -> None:
    """Drop each agent's `removed` ids from its list, one rebuild per agent."""
    for agent, ids in removed.items():
        lists[agent - 1] = lists[agent - 1].without(ids)


def parse_instance(text: str) -> tuple[Instance, list[ParseDiagnostic]]:
    """Parse instance text; returns the instance and any warnings.

    Raises ParseError on malformed input. Non-mutual entries are pruned
    and reported as warnings, never as errors.
    """
    lines = _content_lines(text)
    if not lines:
        raise ParseError(1, "empty input")
    header_line, header = lines[0]
    parts = header.split()
    if len(parts) != 2 or not all(_is_int(p) for p in parts):
        raise ParseError(header_line, f"malformed header {header!r}, expected '<n1> <n2>'")
    n1, n2 = int(parts[0]), int(parts[1])
    if n1 < 1 or n2 < 1:
        raise ParseError(header_line, f"n1 and n2 must be positive, got {n1} {n2}")
    if len(lines) != 1 + n1 + n2:
        raise ParseError(
            lines[-1][0],
            f"expected {n1} resident lines and {n2} hospital lines, got {len(lines) - 1}",
        )
    res_ids = _id_table("r", n1)
    hosp_ids = _id_table("h", n2)

    res_lists: list[PreferenceList] = []
    for i in range(1, n1 + 1):
        num, line = lines[i]
        head, sep, body = line.partition(":")
        if not sep:
            raise ParseError(num, "missing ':' after resident id")
        if _lookup_id(head.strip(), res_ids, "r", num) != i:
            raise ParseError(num, f"expected r{i} at this position, got {head.strip()!r}")
        res_lists.append(_read_list(body, hosp_ids, "h", num))

    capacities: list[int] = []
    hosp_lists: list[PreferenceList] = []
    for j in range(1, n2 + 1):
        num, line = lines[n1 + j]
        head, sep, rest = line.partition(":")
        if not sep:
            raise ParseError(num, "missing ':' after hospital id")
        if _lookup_id(head.strip(), hosp_ids, "h", num) != j:
            raise ParseError(num, f"expected h{j} at this position, got {head.strip()!r}")
        cap_text, sep, body = rest.partition(":")
        if not sep:
            raise ParseError(num, "missing capacity field")
        cap_token = cap_text.strip()
        # Accept the Figure-style "(2)" capacity notation as well.
        if cap_token.startswith("(") and cap_token.endswith(")"):
            cap_token = cap_token[1:-1].strip()
        if not _is_int(cap_token):
            raise ParseError(num, f"capacity must be an integer, got {cap_token!r}")
        capacity = int(cap_token)
        if capacity < 0:
            raise ParseError(num, f"capacity must be non-negative, got {capacity}")
        capacities.append(capacity)
        hosp_lists.append(_read_list(body, res_ids, "r", num))

    try:
        return Instance(tuple(res_lists), tuple(map(Hospital, capacities, hosp_lists))), []
    except InstanceError:
        # A one-sided pair: the lines above check every other invariant.
        # Such input builds the pair sets twice, once in the failed check
        # to word the error dropped here and once below to prune them.
        pass
    # Prune one-sided entries so that acceptability is mutual.
    res_only, hosp_only = one_sided_pairs(res_lists, hosp_lists)
    warnings: list[ParseDiagnostic] = []
    res_removed: dict[int, set[int]] = {}
    for i, h in sorted(res_only):
        warnings.append(
            ParseDiagnostic(
                lines[i][0], f"pruned one-sided pair (r{i}, h{h}): h{h} does not list r{i}"
            )
        )
        res_removed.setdefault(i, set()).add(h)
    hosp_removed: dict[int, set[int]] = {}
    for r, j in sorted(hosp_only):
        warnings.append(
            ParseDiagnostic(
                lines[n1 + j][0], f"pruned one-sided pair (r{r}, h{j}): r{r} does not list h{j}"
            )
        )
        hosp_removed.setdefault(j, set()).add(r)
    _prune(res_lists, res_removed)
    _prune(hosp_lists, hosp_removed)

    return Instance(tuple(res_lists), tuple(map(Hospital, capacities, hosp_lists))), warnings


def _format_groups(plist: PreferenceList, names: list[str]) -> str:
    """The list's text, each id written as names[id]."""
    name = names.__getitem__
    return " ".join(
        names[group[0]] if len(group) == 1 else "( " + " ".join(map(name, group)) + " )"
        for group in plist.groups
    )


def serialize_instance(instance: Instance) -> str:
    """Canonical text for an instance; parse(serialize(I)) reproduces I."""
    res_names = [f"r{i}" for i in range(instance.n1 + 1)]
    hosp_names = [f"h{j}" for j in range(instance.n2 + 1)]
    out = [f"{instance.n1} {instance.n2}"]
    for name, plist in zip(res_names[1:], instance.residents):
        body = _format_groups(plist, hosp_names)
        out.append(f"{name}: {body}".rstrip())
    for name, hosp in zip(hosp_names[1:], instance.hospitals):
        body = _format_groups(hosp.preferences, res_names)
        out.append(f"{name}: {hosp.capacity}: {body}".rstrip())
    return "\n".join(out) + "\n"


def parse_matching(text: str, instance: Instance) -> Matching:
    """Parse a matching file and validate it against the instance."""
    lines = _content_lines(text)
    if len(lines) != instance.n1:
        actual = len(lines)
        raise ParseError(
            lines[-1][0] if lines else 1,
            f"expected one line per resident ({instance.n1}), got {actual}",
        )
    res_ids = _id_table("r", instance.n1)
    hosp_ids = _id_table("h", instance.n2)
    assignment: dict[int, int] = {}
    for i, (num, line) in enumerate(lines, start=1):
        tokens = line.split()
        if len(tokens) != 2:
            raise ParseError(num, f"expected 'r<i> h<j>' or 'r<i> -', got {line!r}")
        if _lookup_id(tokens[0], res_ids, "r", num) != i:
            raise ParseError(num, f"expected r{i} at this position, got {tokens[0]!r}")
        if tokens[1] == "-":
            continue
        assignment[i] = _lookup_id(tokens[1], hosp_ids, "h", num)
    matching = Matching(assignment)
    violations = validate_matching(instance, matching)
    if violations:
        # report the line of the first resident whose pair is unacceptable
        # or takes its hospital past capacity
        load: dict[int, int] = {}
        for i, h in assignment.items():
            load[h] = load.get(h, 0) + 1
            if not instance.is_acceptable(i, h) or load[h] > instance.capacity(h):
                break
        raise ParseError(lines[i - 1][0], "; ".join(v.message for v in violations))
    return matching


def serialize_matching(matching: Matching, instance: Instance) -> str:
    """One line per resident in index order; '-' marks unmatched."""
    out = []
    for i in range(1, instance.n1 + 1):
        h = matching.hospital_of(i)
        out.append(f"r{i} -" if h is None else f"r{i} h{h}")
    return "\n".join(out) + "\n"
