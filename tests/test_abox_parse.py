"""The ABox text parsed in one pass into name relations, against the
reference that builds one assertion object per line: the same relations in
the same key order at both levels, and the same error for every faulty line."""

import random

import pytest

from bago import ParseError, parse_abox
from bago.errors import U64_MAX

from oracles import reference_parse_abox

# "P" is both a concept and a role; "_probe_" anywhere in a name is legal.
PREDICATES = ("A", "B", "P", "R", "P_probe_x")
NAMES = ("a", "b", "_c", "d_1", "x_probe_", "a_probe_b", "_probe_a")
SPACES = ("", "", " ", "  ", "\t")


def _outcome(parse, text):
    """The relations in order at both levels, or the error's type, message and line."""
    try:
        relations = parse(text).relations
    except ParseError as exc:
        return ("error", type(exc), str(exc), exc.line, exc.col)
    return ("ok", [(key, list(rel.items())) for key, rel in relations.items()])


def _assertion_line(rng):
    sp = lambda: rng.choice(SPACES)  # noqa: E731
    names = [rng.choice(NAMES) for _ in range(rng.choice((1, 2)))]
    args = f"{sp()},{sp()}".join(names)
    count = rng.choice(("", "", "1", "3", "007", str(rng.randint(1, 9)), str(U64_MAX)))
    if count and rng.random() < 0.9:
        count = sp() + " " + count
    comment = rng.choice(("", "", " # note", "#R(a,b) 2"))
    return f"{sp()}{rng.choice(PREDICATES)}({sp()}{args}{sp()}){count}{sp()}{comment}"


def _random_text(rng):
    lines = []
    for _ in range(rng.randint(0, 12)):
        r = rng.random()
        if r < 0.1:
            lines.append(rng.choice(("", "   ", "\t")))
        elif r < 0.2:
            lines.append(rng.choice(("# only a comment", "  # A(a) 3", "#")))
        elif r < 0.35 and lines:
            lines.append(rng.choice(lines))  # repeated lines sum
        else:
            lines.append(_assertion_line(rng))
    return rng.choice(("\n", "\r\n")).join(lines) + rng.choice(("", "\n"))


def test_relations_equal_the_reference_in_the_same_order():
    rng = random.Random(2201)
    parsed = 0
    for _ in range(2000):
        text = _random_text(rng)
        outcome = _outcome(parse_abox, text)
        assert outcome == _outcome(reference_parse_abox, text), text
        parsed += outcome[0] == "ok"
    assert parsed > 1500  # most texts parse; the rest sum past 2^64 - 1


FAULTY_LINES = {
    "malformed": ["A(a", "A a", "A(a,b,c)", "1A(a)", "A(1a)", "A(a) x", "A(a) -1", "A()",
                  "A(a)(b)", "A(a) 1 2", "A(a b)", "(a)", "A(a,)"],
    "count of 0": ["A(a) 0", "R(a,b) 000"],
    "count past 2^64 - 1": [f"A(a) {U64_MAX + 1}", f"R(a,b) {10 ** 30}"],
    "probe individual": ["A(@anchor)", "R(a,@fresh)", "R(@anchor,@fresh)",
                         "R( @anchor , b ) 2"],
}


@pytest.mark.parametrize("kind", sorted(FAULTY_LINES))
def test_each_faulty_line_raises_as_the_reference(kind):
    for bad in FAULTY_LINES[kind]:
        text = f"# header\nA(a) 2\n\nR(a,b)\n{bad}\nB(b) 1\n"
        outcome = _outcome(parse_abox, text)
        assert outcome == _outcome(reference_parse_abox, text)
        assert outcome[0] == "error" and outcome[3] == 5


def test_faulty_lines_in_random_texts_raise_as_the_reference():
    rng = random.Random(2202)
    faults = [line for lines in FAULTY_LINES.values() for line in lines]
    for _ in range(1000):
        lines = _random_text(rng).splitlines()
        for _ in range(rng.randint(1, 2)):
            lines.insert(rng.randint(0, len(lines)), rng.choice(faults))
        text = "\n".join(lines)
        assert _outcome(parse_abox, text) == _outcome(reference_parse_abox, text), text


def test_messages_of_each_faulty_line():
    cases = {
        "A(a": (2, "malformed assertion 'A(a'"),
        "A(a) 0": (2, "multiplicity must be a positive integer"),
        f"A(a) {U64_MAX + 1}": (2, "multiplicity exceeds the 64-bit range"),
        "R(a,@fresh)": (2, "malformed assertion 'R(a,@fresh)'"),
    }
    for bad, (line, message) in cases.items():
        with pytest.raises(ParseError) as err:
            parse_abox(f"A(a)\n{bad}\n")
        assert err.value.line == line and str(err.value) == f"line {line}: {message}"


def test_a_later_malformed_line_beats_an_earlier_sum_overflow():
    text = f"A(b) {U64_MAX}\nA(b) 1\nA(b\n"
    with pytest.raises(ParseError) as err:
        parse_abox(text)
    assert err.value.line == 3 and "malformed assertion" in str(err.value)
    assert _outcome(parse_abox, text) == _outcome(reference_parse_abox, text)


def test_the_overflow_names_the_first_assertion_to_cross():
    text = f"A(b) {U64_MAX}\nR(c,d) {U64_MAX}\nR(c,d) 1\nA(b) 1\n"
    with pytest.raises(ParseError) as err:
        parse_abox(text)
    assert str(err.value) == "multiplicity of R(c,d) exceeds the 64-bit range"
    assert err.value.line is None
    assert _outcome(parse_abox, text) == _outcome(reference_parse_abox, text)


def test_counts_at_the_bound_and_a_name_of_both_arities():
    text = f"P(a) {U64_MAX}\n  P( a , b )  {U64_MAX - 1}\nP(a,b)\n# P(a) 1\nP(b)\n"
    assert parse_abox(text).relations == {
        ("P", 1): {("a",): U64_MAX, ("b",): 1},
        ("P", 2): {("a", "b"): U64_MAX},
    }
    assert _outcome(parse_abox, text) == _outcome(reference_parse_abox, text)


@pytest.mark.parametrize("count,expected", [
    ("0" * 4299 + "3", 3),  # 4,300 digits: int() reads it
    ("0" * 4300 + "3", 3),  # 4,301 digits: past int()'s limit, read again
    ("0" * 4999 + "3", 3),
    ("\u0660" * 4999 + "\u0663", 3),  # `\d` admits any decimal digit
    ("0" * 5000 + str(U64_MAX), U64_MAX),
    ("1" * 4300, "64-bit range"),
    ("1" * 4301, "64-bit range"),
    ("1" * 5000, "64-bit range"),
    ("0" * 4980 + "1" * 21, "64-bit range"),
    ("0" * 5000, "positive integer"),
], ids=["zeros-4300", "zeros-4301", "zeros-5000", "arabic-indic-zeros", "zeros-u64-max",
        "ones-4300", "ones-4301", "ones-5000", "zeros-then-21-digits", "all-zeros"])
def test_a_count_of_thousands_of_digits_parses_or_raises_at_its_line(count, expected):
    text = f"B(b)\nA(a) {count}\n"
    assert _outcome(parse_abox, text) == _outcome(reference_parse_abox, text)
    if isinstance(expected, int):
        assert parse_abox(text).relations[("A", 1)][("a",)] == expected
    else:
        with pytest.raises(ParseError, match=expected) as info:
            parse_abox(text)
        assert info.value.line == 2
