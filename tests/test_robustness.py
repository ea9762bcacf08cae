"""Inputs that must end in an answer or a documented exit code, quickly."""

import importlib
import pathlib
import random
import sys
import time

import pytest

from bago import (BagOntology, ChaseLimitExceeded, chase, parse_abox, parse_balg, parse_cq,
                  parse_tbox, to_sexpr)
from bago.chase import dump_chase
from bago.cli import EXIT_RESOURCE, main

# The package re-exports the function `chase`, which shadows the module name.
chase_module = importlib.import_module("bago.chase")

U64_MAX = 2**64 - 1

# The self-feeding TBox: every A has an R-successor that is again an A.
SELF_FEEDING = "A SUB EX R\nEX R- SUB A\n"


def _employee_files(tmp_path, fixtures_dir, multiplicity):
    abox = tmp_path / "a.bag"
    abox.write_text(f"Emp(Lee) {multiplicity}\n")
    base = fixtures_dir / "employees"
    return ["-T", str(base / "tbox.dl"), "-A", str(abox), "-q", str(base / "query.cq")]


def test_huge_multiplicity_via_chase_answers_exactly(capsys, tmp_path, fixtures_dir):
    files = _employee_files(tmp_path, fixtures_dir, U64_MAX)
    start = time.process_time()
    code = main(["answer", *files])
    elapsed = time.process_time() - start
    assert (code, capsys.readouterr().out) == (0, f"(Lee) {U64_MAX}\n")
    assert elapsed < 1.0  # the chase keeps one copy of Lee's run and counts the rest


def test_huge_multiplicity_chase_dump_exits_with_resource_limit(capsys, tmp_path, fixtures_dir):
    # The chase with no query has Lee's whole run, which passes the budget
    # before any of it is allocated.
    files = _employee_files(tmp_path, fixtures_dir, U64_MAX)[:4]
    start = time.process_time()
    code = main(["chase", *files, "--depth", "2"])
    elapsed = time.process_time() - start
    captured = capsys.readouterr()
    assert code == EXIT_RESOURCE
    assert captured.out == ""
    assert "anonymous elements" in captured.err
    assert elapsed < 1.0


def test_huge_multiplicity_in_crosscheck_passes(capsys, tmp_path, fixtures_dir):
    files = _employee_files(tmp_path, fixtures_dir, U64_MAX)
    code = main(["crosscheck", *files])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (0, f"PASS\n(Lee) {U64_MAX}\n", "")


def test_branching_chase_in_crosscheck_exits_with_resource_limit(capsys, tmp_path, monkeypatch):
    # Every A bears an R- and an S-successor that are again A's: the chase to
    # depth 11 doubles at each stage and passes a budget of 1,000.
    monkeypatch.setattr(chase_module, "MAX_CHASE_ELEMENTS", 1_000)
    (tmp_path / "t.dl").write_text("A SUB EX R\nA SUB EX S\nEX R- SUB A\nEX S- SUB A\n")
    (tmp_path / "a.bag").write_text("A(a) 1\n")
    terms = ["x"] + [f"y{i}" for i in range(1, 12)]
    body = ", ".join(f"R({s}, {o})" for s, o in zip(terms, terms[1:]))
    (tmp_path / "q.cq").write_text(f"q(x) :- {body}\n")
    code = main(["crosscheck", "-T", str(tmp_path / "t.dl"), "-A", str(tmp_path / "a.bag"),
                 "-q", str(tmp_path / "q.cq")])
    captured = capsys.readouterr()
    assert code == EXIT_RESOURCE
    assert captured.out == ""
    assert "1,000 anonymous elements" in captured.err
    assert "error: error:" not in captured.err


def test_huge_multiplicity_via_rewrite_answers_exactly(capsys, tmp_path, fixtures_dir):
    files = _employee_files(tmp_path, fixtures_dir, U64_MAX)
    code = main(["answer", *files, "--via", "rewrite"])
    assert code == 0
    assert capsys.readouterr().out == f"(Lee) {U64_MAX}\n"


def test_intermediate_sum_past_u64_max_answers_on_both_paths(capsys, tmp_path):
    # S/A sums to 2^64 for x = a, but no z has both T(a,z) and C(z): the answer
    # is empty, and neither path reports the intermediate sum as an overflow.
    (tmp_path / "t.dl").write_text("")
    (tmp_path / "a.bag").write_text(f"S(a,y1) {2**63}\nS(a,y2) {2**63}\n"
                                    "A(y1)\nA(y2)\nT(a,z1)\nC(z2)\n")
    (tmp_path / "q.cq").write_text("q(x) :- S(x,y), A(y), T(x,z), C(z)\n")
    files = ["-T", str(tmp_path / "t.dl"), "-A", str(tmp_path / "a.bag"),
             "-q", str(tmp_path / "q.cq")]
    for via in ("chase", "rewrite", "both"):
        code = main(["answer", *files, "--via", via])
        assert (code, capsys.readouterr().out) == (0, "EMPTY\n")
    code = main(["crosscheck", *files])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (0, "PASS\nEMPTY\n", "")


def test_deep_chase_of_a_self_feeding_tbox_stops_at_the_budget(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(chase_module, "MAX_CHASE_ELEMENTS", 1_000)
    (tmp_path / "t.dl").write_text(SELF_FEEDING)
    (tmp_path / "a.bag").write_text("A(a) 2\nR(a,b) 1\nR(b,a) 1\n")
    code = main(["chase", "-T", str(tmp_path / "t.dl"), "-A", str(tmp_path / "a.bag"),
                 "--depth", "1000000"])
    captured = capsys.readouterr()
    assert code == EXIT_RESOURCE
    assert captured.out == ""
    assert "1,000 anonymous elements" in captured.err


def test_deep_self_feeding_chain_chases_and_dumps_quickly():
    # One witness per stage, each a level deeper: past the recursion limit,
    # equality, hashing, ordering and printing must not recurse.
    depth = 1_200
    assert depth > sys.getrecursionlimit()
    k = BagOntology(parse_tbox(SELF_FEEDING), parse_abox("A(a) 2\nR(a,b)\nR(b,a)\n"))
    start = time.process_time()
    result = chase(k, depth)
    text = dump_chase(result)
    deepest = result.union.anonymous()[-1]
    twin = chase(k, depth).union.anonymous()[-1]  # equal, but built apart
    elapsed = time.process_time() - start
    assert deepest.depth == depth
    assert deepest is not twin and deepest == twin and hash(deepest) == hash(twin)
    assert f"\n@{depth} = _w(@{depth - 1},R,1)\n" in text
    assert text.endswith(f"R(@{depth - 1},@{depth}) 1\n")
    assert elapsed < 2.0


def test_chase_dump_of_five_deep_chains_prints_every_line(capsys, tmp_path):
    # Five chains of 100 witnesses: each witness is defined once and named by
    # its id, so every line is short. Lines: the header, 500 definitions,
    # A on the name and on all but the deepest witnesses, and 500 edges.
    (tmp_path / "t.dl").write_text(SELF_FEEDING)
    (tmp_path / "a.bag").write_text("A(a) 5\n")
    code = main(["chase", "-T", str(tmp_path / "t.dl"), "-A", str(tmp_path / "a.bag"),
                 "--depth", "100"])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    lines = captured.out.splitlines()
    assert len(lines) == 1 + 500 + 496 + 500
    assert lines[500] == "@500 = _w(@495,R,1)"
    assert max(map(len, lines)) == len("@500 = _w(@495,R,1)")


def test_long_path_query_answers_via_the_chase(capsys, tmp_path):
    # Each atom is one level of the evaluator, kept on an explicit stack, so a
    # query longer than the recursion limit answers.
    length = 1_500
    assert length > sys.getrecursionlimit()
    terms = ["x"] + [f"y{i}" for i in range(1, length + 1)]
    body = ", ".join(f"R({s}, {o})" for s, o in zip(terms, terms[1:]))
    (tmp_path / "t.dl").write_text(SELF_FEEDING)
    (tmp_path / "a.bag").write_text("A(a) 1\n")
    (tmp_path / "q.cq").write_text(f"q(x) :- {body}\n")
    start = time.process_time()
    code = main(["answer", "-T", str(tmp_path / "t.dl"), "-A", str(tmp_path / "a.bag"),
                 "-q", str(tmp_path / "q.cq"), "--via", "chase"])
    elapsed = time.process_time() - start
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (0, "(a) 1\n", "")
    assert elapsed < 2.0


def test_deep_balg_answers_through_eval_balg(capsys, tmp_path, fixtures_dir):
    # Parsing, printing and evaluation each keep their own explicit stack, so
    # nesting deeper than the recursion limit answers.
    depth = 3_000
    assert depth > sys.getrecursionlimit()
    abox = str(fixtures_dir / "managers" / "abox.bag")
    for op, answer in (("max-union", "(Lee) 1\n"), ("arith-union", f"(Lee) {depth + 1}\n")):
        text = f"({op} " * depth + "(atom Emp x)" + " (atom Emp x))" * depth + "\n"
        (tmp_path / "deep.balg").write_text(text)
        code = main(["eval-balg", "-A", abox, "-q", str(tmp_path / "deep.balg")])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (0, "# columns: x\n" + answer, "")
    assert " ".join(to_sexpr(parse_balg(text)).split()) == text.strip()


def test_deep_balg_prints_in_linear_size_and_round_trips():
    # Indentation stops growing at a fixed depth, so past it each level adds
    # the same number of characters; two spaces per level would add ever more.
    sizes = []
    for depth in (1_000, 2_000, 3_000):
        text = "(arith-union " * depth + "(atom Emp x)" + " (atom Emp x))" * depth
        printed = to_sexpr(parse_balg(text))
        assert " ".join(printed.split()) == text
        assert to_sexpr(parse_balg(printed)) == printed
        sizes.append(len(printed))
    assert sizes[2] - sizes[1] == sizes[1] - sizes[0]


def test_budget_counts_anonymous_elements_only(monkeypatch):
    # Emp(Lee) 10 needs a run of ten witnesses, one per missing manager edge.
    # The chase for a query with three role atoms keeps three of them; the
    # full chase has all ten.
    k = BagOntology(parse_tbox("Emp SUB EX hasMngr\nEX hasMngr- SUB Mngr\n"),
                    parse_abox("Emp(Lee) 10\n"))
    q = parse_cq("q(x) :- hasMngr(x, y), hasMngr(x, z), hasMngr(x, w)")
    monkeypatch.setattr(chase_module, "MAX_CHASE_ELEMENTS", 10)
    assert len(chase(k, 3, query=q).counted.domain) == 4
    assert len(chase(k, 3).union.domain) == 11
    monkeypatch.setattr(chase_module, "MAX_CHASE_ELEMENTS", 9)
    result = chase(k, 3, query=q)
    with pytest.raises(ChaseLimitExceeded):
        result.union
    with pytest.raises(ChaseLimitExceeded):
        chase(k, 3)
    monkeypatch.setattr(chase_module, "MAX_CHASE_ELEMENTS", 2)
    with pytest.raises(ChaseLimitExceeded):
        chase(k, 3, query=q)
    # Stage 1 bears three witnesses for each of a and b, as one run of the
    # names with deficit three along hasMngr; stage 2 bears one for each of
    # those, as one run along hasMngr: six and six, twelve in all, in one
    # chase.
    k = BagOntology(parse_tbox("Emp SUB EX hasMngr\nEX hasMngr- SUB Mngr\nMngr SUB Emp\n"),
                    parse_abox("Emp(a) 3\nEmp(b) 3\n"))
    born = []
    bear = chase_module.BagInterpretation._bear

    def counting(self, parents, role, count):
        born.append(len(parents) * count)
        return bear(self, parents, role, count)

    monkeypatch.setattr(chase_module.BagInterpretation, "_bear", counting)
    monkeypatch.setattr(chase_module, "MAX_CHASE_ELEMENTS", 12)
    assert len(chase(k, 2).union.anonymous()) == 12
    assert born == [6, 6]
    born.clear()
    monkeypatch.setattr(chase_module, "MAX_CHASE_ELEMENTS", 11)
    with pytest.raises(ChaseLimitExceeded):
        chase(k, 2)
    assert born == [6]  # stage 2's run of six was refused before any of it was born


def test_huge_depth_on_a_terminating_chase_answers(capsys, fixtures_dir):
    base = fixtures_dir / "employees"
    files = ["-T", str(base / "tbox.dl"), "-A", str(base / "abox.bag")]
    assert main(["chase", *files, "--depth", "3"]) == 0
    shallow = capsys.readouterr().out
    assert main(["chase", *files, "--depth", str(10**12)]) == 0
    deep = capsys.readouterr().out
    assert deep.splitlines()[1:] == shallow.splitlines()[1:]


def test_rewriting_past_its_budget_exits_with_resource_limit(capsys, tmp_path):
    # Thirteen pairwise adjacent existential variables: 8,191 clusters.
    ys = [f"y{i}" for i in range(13)]
    pairs = [f"R({a}, {b})" for i, a in enumerate(ys) for b in ys[i + 1:]]
    body = ", ".join(['R("a", y0)'] + pairs)
    (tmp_path / "t.dl").write_text(SELF_FEEDING)
    (tmp_path / "q.cq").write_text(f"q() :- {body}\n")
    code = main(["rewrite", "-T", str(tmp_path / "t.dl"), "-q", str(tmp_path / "q.cq")])
    captured = capsys.readouterr()
    assert code == EXIT_RESOURCE
    assert captured.out == ""
    assert "error: resource limit: rewriting needs more than 1,024" in captured.err


def test_explaining_too_many_branches_exits_with_resource_limit(capsys, tmp_path):
    # Star k = 30 rewrites in milliseconds, but its table would list 2^30 branches.
    star = ", ".join(f"R(x, y{i})" for i in range(30))
    (tmp_path / "t.dl").write_text(SELF_FEEDING)
    (tmp_path / "q.cq").write_text(f"q(x) :- {star}\n")
    files = ["-T", str(tmp_path / "t.dl"), "-q", str(tmp_path / "q.cq")]
    assert main(["rewrite", *files]) == 0
    assert capsys.readouterr().out.startswith("(join")
    code = main(["rewrite", *files, "--explain"])
    captured = capsys.readouterr()
    assert code == EXIT_RESOURCE
    assert captured.out == ""
    assert "1,073,741,824 branches" in captured.err


# -- seeded mutation fuzz of the CLI ---------------------------------------------

FUZZ_SEED = 2017
FUZZ_MUTANTS = 300
_FUZZ_CHARS = '()",:=#-\n 0123456789abxyzqRSABEmpSUBEXKIND'
_FUZZ_NUMBERS = ("18446744073709551616", "0", "-1", "99999999999")
_FUZZ_FIXTURES = (
    ("employees", "query.cq"),
    ("managers", "query_managed.cq"),
    ("prime", "query.cq"),
    ("prime_pair", "query.cq"),
)


def _mutate(rng, text):
    """One to three edits: drop, duplicate or insert text, or swap two lines."""
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(text) + 1)
        j = min(len(text), i + rng.randint(1, 8))
        edit = rng.randrange(5)
        if edit == 0:
            text = text[:i] + text[j:]
        elif edit == 1:
            text = text[:j] + text[i:j] + text[j:]
        elif edit == 2:
            text = text[:i] + rng.choice(_FUZZ_CHARS) + text[i:]
        elif edit == 3:
            text = text[:i] + rng.choice(_FUZZ_NUMBERS) + text[i:]
        else:
            lines = text.split("\n")
            a, b = rng.randrange(len(lines)), rng.randrange(len(lines))
            lines[a], lines[b] = lines[b], lines[a]
            text = "\n".join(lines)
    return text


def test_cli_mutation_fuzz_keeps_the_exit_code_contract(tmp_path, capsys, fixtures_dir):
    from bago import rewrite
    from bago.bagalg import to_sexpr

    bases = []
    for name, query in _FUZZ_FIXTURES:
        base = fixtures_dir / name
        texts = {"dl": (base / "tbox.dl").read_text(), "bag": (base / "abox.bag").read_text(),
                 "cq": (base / query).read_text()}
        rw = rewrite(parse_cq(texts["cq"]), parse_tbox(texts["dl"]))
        texts["balg"] = to_sexpr(rw.combined) + "\n"
        bases.append(texts)
    path = {ext: str(tmp_path / f"in.{ext}") for ext in ("dl", "bag", "cq", "balg")}
    t, a, q, b = ["-T", path["dl"]], ["-A", path["bag"]], ["-q", path["cq"]], ["-q", path["balg"]]
    commands = {  # every subcommand that reads a file of the mutated kind
        "dl": [["check", *t, *a], ["chase", *t, *a, "--depth", "2"],
               ["answer", *t, *a, *q, "--via", "both"], ["rewrite", *t, *q, "--explain"],
               ["crosscheck", *t, *a, *q]],
        "bag": [["check", *t, *a], ["chase", *t, *a, "--depth", "2"],
                ["answer", *t, *a, *q, "--via", "both"], ["eval-balg", *a, *b],
                ["crosscheck", *t, *a, *q]],
        "cq": [["answer", *t, *a, *q, "--via", "both"], ["rewrite", *t, *q, "--explain"],
               ["crosscheck", *t, *a, *q]],
        "balg": [["eval-balg", *a, *b]],
    }
    rng = random.Random(FUZZ_SEED)
    seen_commands, seen_codes = set(), set()
    for n in range(FUZZ_MUTANTS):
        texts = dict(rng.choice(bases))
        kind = rng.choice(sorted(texts))
        texts[kind] = _mutate(rng, texts[kind])
        for ext, text in texts.items():
            pathlib.Path(path[ext]).write_text(text)
        argv = commands[kind][n % len(commands[kind])]
        try:
            code = main(argv)
        except Exception as exc:  # the contract: no traceback, whatever the input
            pytest.fail(f"{argv[0]} raised {exc!r} on a mutated .{kind}:\n{texts[kind]}")
        capsys.readouterr()
        assert code in range(6), (argv[0], code, texts[kind])
        seen_commands.add(argv[0])
        seen_codes.add(code)
    assert seen_commands == {"answer", "rewrite", "eval-balg", "crosscheck", "chase", "check"}
    assert {0, 2} <= seen_codes
