"""The instance parser as it was before ids were looked up in a table.

It checks every id token with `_parse_id`'s slicing and digit test, and it
prunes one one-sided pair at a time. `test_instance_io` compares
`parse_instance` against it, on results, warnings and error messages.
"""

from maxhrt.core import Hospital, Instance, PreferenceList, one_sided_pairs
from maxhrt.instance_io import ParseDiagnostic, ParseError


def _content_lines(text):
    out = []
    for num, raw in enumerate(text.split("\n"), start=1):
        line = raw.rstrip("\r").strip()
        if line and not line.startswith("#"):
            out.append((num, line))
    return out


def _is_int(text):
    digits = text[1:] if text.startswith("-") else text
    return digits.isascii() and digits.isdigit()


def _parse_id(token, kind, limit, line):
    digits = token[1:]
    if token[:1] != kind or not (digits.isascii() and digits.isdigit()):
        raise ParseError(line, f"expected {kind}<number>, got {token!r}")
    value = int(digits)
    if not 1 <= value <= limit:
        raise ParseError(line, f"unknown id {token!r} (valid: {kind}1..{kind}{limit})")
    return value


def _parse_groups(tokens, kind, limit, line):
    groups = []
    seen = set()
    tie = None
    for token in tokens:
        if token == "(":
            if tie is not None:
                raise ParseError(line, "nested tie bracket")
            tie = []
        elif token == ")":
            if tie is None:
                raise ParseError(line, "unbalanced tie parentheses")
            if not tie:
                raise ParseError(line, "empty tie group")
            groups.append(tuple(tie))
            tie = None
        else:
            agent = _parse_id(token, kind, limit, line)
            if agent in seen:
                raise ParseError(line, f"duplicate entry {token!r}")
            seen.add(agent)
            if tie is None:
                groups.append((agent,))
            else:
                tie.append(agent)
    if tie is not None:
        raise ParseError(line, "unbalanced tie parentheses")
    return PreferenceList(tuple(groups))


def _tokenize_list(body):
    return body.replace("(", " ( ").replace(")", " ) ").split()


def reference_parse_instance(text):
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

    res_lists = []
    res_lines = []
    for i in range(1, n1 + 1):
        num, line = lines[i]
        head, sep, body = line.partition(":")
        if not sep:
            raise ParseError(num, "missing ':' after resident id")
        if _parse_id(head.strip(), "r", n1, num) != i:
            raise ParseError(num, f"expected r{i} at this position, got {head.strip()!r}")
        res_lists.append(_parse_groups(_tokenize_list(body), "h", n2, num))
        res_lines.append(num)

    capacities = []
    hosp_lists = []
    hosp_lines = []
    for j in range(1, n2 + 1):
        num, line = lines[n1 + j]
        head, sep, rest = line.partition(":")
        if not sep:
            raise ParseError(num, "missing ':' after hospital id")
        if _parse_id(head.strip(), "h", n2, num) != j:
            raise ParseError(num, f"expected h{j} at this position, got {head.strip()!r}")
        cap_text, sep, body = rest.partition(":")
        if not sep:
            raise ParseError(num, "missing capacity field")
        cap_token = cap_text.strip()
        if cap_token.startswith("(") and cap_token.endswith(")"):
            cap_token = cap_token[1:-1].strip()
        if not _is_int(cap_token):
            raise ParseError(num, f"capacity must be an integer, got {cap_token!r}")
        capacity = int(cap_token)
        if capacity < 0:
            raise ParseError(num, f"capacity must be non-negative, got {capacity}")
        capacities.append(capacity)
        hosp_lists.append(_parse_groups(_tokenize_list(body), "r", n1, num))
        hosp_lines.append(num)

    res_only, hosp_only = one_sided_pairs(res_lists, hosp_lists)
    warnings = []
    for i, h in sorted(res_only):
        warnings.append(
            ParseDiagnostic(
                res_lines[i - 1], f"pruned one-sided pair (r{i}, h{h}): h{h} does not list r{i}"
            )
        )
        res_lists[i - 1] = res_lists[i - 1].without({h})
    for r, j in sorted(hosp_only):
        warnings.append(
            ParseDiagnostic(
                hosp_lines[j - 1], f"pruned one-sided pair (r{r}, h{j}): r{r} does not list h{j}"
            )
        )
        hosp_lists[j - 1] = hosp_lists[j - 1].without({r})

    instance = Instance(
        residents=tuple(res_lists),
        hospitals=tuple(Hospital(c, pl) for c, pl in zip(capacities, hosp_lists)),
    )
    return instance, warnings
