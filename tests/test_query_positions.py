"""Query syntax errors carry the line and column of the offending token,
counted from its offset only when the error is raised."""

import random

import pytest

from bago import ParseError, parse_cq

CASES = [
    # a comment line before the query
    ("# a comment\nq(x) :- A(x),\n  %", 3, 3, "unexpected character '%'"),
    ("q(x) :- # one\n# two\n  A(x) :-", 3, 8, "expected end of query, found ':-'"),
    ("q(x) :- A(x), # trailing", 1, 25, "expected a term, found 'end of input'"),
    # a head split over lines
    ("q(x,\n  y) :- R(x, y), A(\n)", 3, 1, "expected a term, found ')'"),
    ("q(\nx) :- A(x) B", 2, 12, "expected end of query, found 'B'"),
    # an error right after a newline
    ("q(x) :- A(x)\n%", 2, 1, "unexpected character '%'"),
    ("q(x) :- A(x),\n", 2, 1, "expected a term, found 'end of input'"),
    ("\n\n", 3, 1, "expected query name, found 'end of input'"),
    ("q(x)\n:-\nA(x),\n\n\n  y = ", 6, 7, "expected a term, found 'end of input'"),
    ("%q", 1, 1, "unexpected character '%'"),
    ("", 1, 1, "expected query name, found 'end of input'"),
    ('q(x) :- A(x), B("a\n")', 1, 17, "unexpected character '\"'"),
]


@pytest.mark.parametrize("text, line, col, message", CASES)
def test_error_position_and_message(text, line, col, message):
    with pytest.raises(ParseError) as err:
        parse_cq(text)
    assert (err.value.line, err.value.col) == (line, col)
    assert str(err.value) == f"line {line}, col {col}: {message}"


def test_an_invalid_individual_carries_its_line_only():
    with pytest.raises(ParseError) as err:
        parse_cq('q(x) :-\n  A(x),\n  B("1a")')
    assert (err.value.line, err.value.col) == (3, None)
    assert str(err.value) == "line 3: invalid individual name '1a'"


def test_a_stray_character_is_placed_by_its_offset():
    rng = random.Random(2203)
    tokens = ["q", "(", "x", ",", "y", ")", ":-", "R", "(", "x", ",", "y", ")", ",",
              "A", "(", "x", ")", ",", "y", "=", '"b"']
    for _ in range(300):
        seps = [rng.choice(("", " ", "\n", "  ", " # c\n", "\n\n")) for _ in tokens]
        text = "".join(tok + sep for tok, sep in zip(tokens, seps))
        assert parse_cq(text).atoms
        # Just before or just after a token: never inside a token or a comment.
        i = rng.randrange(len(tokens))
        pos = sum(len(t) + len(s) for t, s in zip(tokens[:i], seps)) + rng.choice(
            (0, len(tokens[i])))
        bad = text[:pos] + "%" + text[pos:]
        before = bad[:pos].split("\n")
        with pytest.raises(ParseError) as err:
            parse_cq(bad)
        assert (err.value.line, err.value.col) == (len(before), len(before[-1]) + 1)
        assert str(err.value).endswith("unexpected character '%'")
