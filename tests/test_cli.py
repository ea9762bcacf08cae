import pytest

from bago import parse_abox, parse_cq, parse_tbox
from bago.cli import main

FIXTURE_SETS = [
    ("employees", "query.cq"),
    ("managers", "query_managed.cq"),
    ("prime", "query.cq"),
    ("prime_pair", "query.cq"),
    ("deep_path", "query.cq"),
    ("unsat_role", "query.cq"),
    ("wide_abox", "query.cq"),
    ("huge_mult", "query.cq"),
    ("reach", "query.cq"),
]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_satisfiable(capsys, fixtures_dir):
    code, out, _ = run(
        capsys, "check",
        "-T", str(fixtures_dir / "employees" / "tbox.dl"),
        "-A", str(fixtures_dir / "employees" / "abox.bag"),
    )
    assert code == 0 and out == "SATISFIABLE\n"


def test_check_unsatisfiable(capsys, tmp_path):
    (tmp_path / "t.dl").write_text("DISJ A B\n")
    (tmp_path / "a.bag").write_text("A(a)\nB(a)\n")
    code, out, _ = run(capsys, "check", "-T", str(tmp_path / "t.dl"),
                       "-A", str(tmp_path / "a.bag"))
    assert code == 1 and out == "UNSATISFIABLE\n"


def test_answer_golden(capsys, fixtures_dir):
    code, out, _ = run(
        capsys, "answer",
        "-T", str(fixtures_dir / "employees" / "tbox.dl"),
        "-A", str(fixtures_dir / "employees" / "abox.bag"),
        "-q", str(fixtures_dir / "employees" / "query.cq"),
        "--via", "both",
    )
    assert code == 0 and out == "(Lee) 3\n"


@pytest.mark.parametrize("name,query", FIXTURE_SETS)
def test_both_paths_agree_byte_for_byte(capsys, fixtures_dir, name, query):
    base = fixtures_dir / name
    outputs = []
    for via in ("chase", "rewrite"):
        code, out, _ = run(
            capsys, "answer", "-T", str(base / "tbox.dl"),
            "-A", str(base / "abox.bag"), "-q", str(base / query), "--via", via,
        )
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_answer_refuses_non_rooted(capsys, fixtures_dir):
    code, _, err = run(
        capsys, "answer",
        "-T", str(fixtures_dir / "managers" / "tbox.dl"),
        "-A", str(fixtures_dir / "managers" / "abox.bag"),
        "-q", str(fixtures_dir / "managers" / "query_some.cq"),
    )
    assert code == 3 and "refused" in err


def test_parse_error_exit_code(capsys, tmp_path, fixtures_dir):
    (tmp_path / "bad.cq").write_text("q(x) :- A(x\n")
    code, _, err = run(
        capsys, "answer",
        "-T", str(fixtures_dir / "employees" / "tbox.dl"),
        "-A", str(fixtures_dir / "employees" / "abox.bag"),
        "-q", str(tmp_path / "bad.cq"),
    )
    assert code == 2 and "error" in err


# Each subcommand that reads a file, with BAD in place of one of its files.
READING_COMMANDS = [
    ["check", "-T", "BAD", "-A", "employees/abox.bag"],
    ["chase", "-T", "employees/tbox.dl", "-A", "BAD", "--depth", "1"],
    ["answer", "-T", "employees/tbox.dl", "-A", "employees/abox.bag", "-q", "BAD"],
    ["cert", "-T", "employees/tbox.dl", "-A", "employees/abox.bag", "-q", "BAD",
     "--tuple", "(Lee)", "-k", "1"],
    ["rewrite", "-T", "BAD", "-q", "employees/query.cq"],
    ["eval-balg", "-A", "employees/abox.bag", "-q", "BAD"],
    ["crosscheck", "-T", "employees/tbox.dl", "-A", "BAD", "-q", "employees/query.cq"],
    ["gen-3col", "-G", "BAD"],
    ["gen-3col", "-G", "triangle.graph", "--coloring", "BAD"],
]


@pytest.mark.parametrize("argv", READING_COMMANDS, ids=lambda argv: "-".join(argv[:3]))
def test_non_utf8_input_is_an_input_error(capsys, tmp_path, fixtures_dir, argv):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"A(a) 1\n\xff\n")
    argv = [str(bad) if arg == "BAD" else str(fixtures_dir / arg) if "/" in arg or "." in arg
            else arg for arg in argv]
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.splitlines() == [f"error: cannot read {bad}: not UTF-8 text (byte 7)"]


def test_chase_dump(capsys, fixtures_dir):
    code, out, _ = run(
        capsys, "chase",
        "-T", str(fixtures_dir / "managers" / "tbox.dl"),
        "-A", str(fixtures_dir / "managers" / "abox.bag"),
        "--depth", "2",
    )
    assert code == 0
    assert out == (
        "# depth=2\n"
        "Emp(Lee) 1\n"
        "Mngr(Hill) 1\n"
        "Mngr(_w(Lee,hasMngr,1)) 1\n"
        "hasMngr(Lee,_w(Lee,hasMngr,1)) 1\n"
    )


def test_cert_exit_codes(capsys, fixtures_dir):
    base = [
        "cert",
        "-T", str(fixtures_dir / "employees" / "tbox.dl"),
        "-A", str(fixtures_dir / "employees" / "abox.bag"),
        "-q", str(fixtures_dir / "employees" / "query.cq"),
        "--tuple", "(Lee)",
    ]
    assert run(capsys, *base, "-k", "3")[0] == 0
    assert run(capsys, *base, "-k", "4")[0] == 1
    assert run(capsys, *base, "-k", "0")[0] == 0
    assert run(capsys, *base, "-k", "inf")[0] == 1
    assert run(capsys, *base, "-k", "3", "--via", "both")[0] == 0
    assert run(capsys, *base, "-k", "\u00b2")[0] == 2
    assert run(capsys, *base, "--tuple", "(Lee,Hill)", "-k", "3")[0] == 2


def test_rewrite_output_feeds_eval_balg(capsys, tmp_path, fixtures_dir):
    out_file = tmp_path / "rw.balg"
    code, _, _ = run(
        capsys, "rewrite",
        "-T", str(fixtures_dir / "managers" / "tbox.dl"),
        "-q", str(fixtures_dir / "managers" / "query_managed.cq"),
        "-o", str(out_file),
    )
    assert code == 0
    code, out, _ = run(
        capsys, "eval-balg",
        "-A", str(fixtures_dir / "managers" / "abox.bag"),
        "-q", str(out_file),
    )
    assert code == 0
    assert out.endswith("(Lee) 1\n")


def test_rewrite_explain_table(capsys, fixtures_dir):
    code, out, _ = run(
        capsys, "rewrite",
        "-T", str(fixtures_dir / "managers" / "tbox.dl"),
        "-q", str(fixtures_dir / "managers" / "query_managed.cq"),
        "--explain",
    )
    assert code == 0
    assert "# z={} verdict=realisable" in out
    assert "# z={y} verdict=realisable" in out
    assert "probe=1" in out


def test_probe_over_a_role_with_no_model_answers(capsys, fixtures_dir):
    # The TBox forbids every R-edge but the ontology is satisfiable: the
    # cluster {y} is unrealisable, not a reason to refuse the input.
    base = fixtures_dir / "unsat_role"
    code, out, _ = run(
        capsys, "answer", "-T", str(base / "tbox.dl"), "-A", str(base / "abox.bag"),
        "-q", str(base / "query.cq"), "--via", "both",
    )
    assert (code, out) == (0, "EMPTY\n")
    code, out, _ = run(
        capsys, "rewrite", "-T", str(base / "tbox.dl"), "-q", str(base / "query.cq"),
        "--explain",
    )
    assert code == 0
    assert "# z={y} verdict=unrealisable failing={y}" in out


def test_crosscheck_single_and_random(capsys, fixtures_dir):
    code, out, _ = run(
        capsys, "crosscheck",
        "-T", str(fixtures_dir / "managers" / "tbox.dl"),
        "-A", str(fixtures_dir / "managers" / "abox.bag"),
        "-q", str(fixtures_dir / "managers" / "query_managed.cq"),
    )
    assert code == 0 and out.startswith("PASS\n(Lee) 1\n")
    code, out, _ = run(capsys, "crosscheck", "--random", "25", "--seed", "7")
    assert code == 0 and out.strip() == "crosscheck: 25/25 PASS"


# Inputs that `answer` refuses (exit 3): a non-rooted query, a KIND R TBox and
# an unsatisfiable ontology, as (TBox, ABox, query) texts.
REFUSED_INPUTS = {
    "non_rooted": ("Emp SUB EX hasMngr\n", "Emp(Lee)\n", "q() :- Mngr(y)\n"),
    "kind_r": ("KIND R\nR SUBR S\n", "R(a,b)\n", "q(x) :- S(x, y)\n"),
    "unsatisfiable": ("DISJ A B\n", "A(a)\nB(a)\n", "q(x) :- A(x)\n"),
}


@pytest.mark.parametrize("name", sorted(REFUSED_INPUTS))
def test_crosscheck_exits_as_answer_does_on_refused_input(capsys, tmp_path, name):
    for text, file in zip(REFUSED_INPUTS[name], ("t.dl", "a.bag", "q.cq")):
        (tmp_path / file).write_text(text)
    files = ["-T", str(tmp_path / "t.dl"), "-A", str(tmp_path / "a.bag"),
             "-q", str(tmp_path / "q.cq")]
    answer_code, _, answer_err = run(capsys, "answer", *files)
    code, out, err = run(capsys, "crosscheck", *files)
    assert answer_code == 3
    assert (code, out, err) == (answer_code, "", answer_err)


def test_crosscheck_random_counts_a_refused_instance_as_failed(capsys, monkeypatch):
    import bago.answers as answers_mod

    tbox, abox, query = REFUSED_INPUTS["non_rooted"]
    instance = (parse_tbox(tbox), parse_abox(abox), parse_cq(query))
    monkeypatch.setattr(answers_mod, "random_instance", lambda rng: instance)
    code, out, _ = run(capsys, "crosscheck", "--random", "2")
    assert code == 4
    assert out.splitlines() == [
        "instance 0: FAIL error: certain answers are supported for rooted queries only",
        "instance 1: FAIL error: certain answers are supported for rooted queries only",
        "crosscheck: 0/2 PASS",
    ]


def test_gen_3col_files_round_trip(capsys, tmp_path, fixtures_dir):
    out_dir = tmp_path / "gen"
    code, _, _ = run(
        capsys, "gen-3col",
        "-G", str(fixtures_dir / "triangle.graph"),
        "--out-dir", str(out_dir),
    )
    assert code == 0
    parse_tbox((out_dir / "tbox.dl").read_text())
    parse_abox((out_dir / "abox.bag").read_text())
    parse_cq((out_dir / "query.cq").read_text())
    assert (out_dir / "threshold.txt").read_text() == "11\n"


def test_gen_3col_model_eval(capsys, fixtures_dir):
    code, out, _ = run(
        capsys, "gen-3col",
        "-G", str(fixtures_dir / "triangle.graph"),
        "--coloring", str(fixtures_dir / "triangle.coloring"),
        "--eval-model",
    )
    assert code == 0
    assert "model-eval: 10 (proper 3-coloring yields exactly 10)" in out


@pytest.mark.parametrize("content", [b"\xff\n", b"nowhere red\n"], ids=["not-utf8", "unparsable"])
@pytest.mark.parametrize("to_dir", [False, True], ids=["printed", "out-dir"])
def test_gen_3col_bad_coloring_leaves_no_output(capsys, tmp_path, fixtures_dir, content, to_dir):
    bad = tmp_path / "bad.coloring"
    bad.write_bytes(content)
    out_dir = tmp_path / "gen"
    argv = ["gen-3col", "-G", str(fixtures_dir / "triangle.graph"), "--coloring", str(bad)]
    code, out, err = run(capsys, *argv, *(["--out-dir", str(out_dir)] if to_dir else []))
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert not out_dir.exists()


def test_gen_3col_variant_r_is_refused_by_answer(capsys, tmp_path, fixtures_dir):
    out_dir = tmp_path / "genr"
    code, _, _ = run(
        capsys, "gen-3col",
        "-G", str(fixtures_dir / "triangle.graph"),
        "--variant", "r", "--out-dir", str(out_dir),
    )
    assert code == 0
    code, _, err = run(
        capsys, "answer",
        "-T", str(out_dir / "tbox.dl"),
        "-A", str(out_dir / "abox.bag"),
        "-q", str(out_dir / "query.cq"),
    )
    assert code == 3 and "refused" in err


def test_chase_rejects_negative_depth(capsys, fixtures_dir):
    code, _, err = run(
        capsys, "chase",
        "-T", str(fixtures_dir / "managers" / "tbox.dl"),
        "-A", str(fixtures_dir / "managers" / "abox.bag"),
        "--depth", "-1",
    )
    assert code == 2 and "nonnegative" in err


def test_chase_refuses_unsatisfiable(capsys, tmp_path):
    (tmp_path / "t.dl").write_text("DISJ A B\n")
    (tmp_path / "a.bag").write_text("A(a)\nB(a)\n")
    code, _, err = run(capsys, "chase", "-T", str(tmp_path / "t.dl"),
                       "-A", str(tmp_path / "a.bag"), "--depth", "1")
    assert code == 3 and "refused" in err


@pytest.mark.parametrize("text", [
    "(diff (atom A x) (atom A y))",
    '(atom "a" x)',
    "(atom ( x)",
    '(project ("a") (atom R x y))',
], ids=["side-condition", "quoted-predicate", "paren-predicate", "quoted-projection"])
def test_eval_balg_rejects_ill_formed(capsys, tmp_path, fixtures_dir, text):
    (tmp_path / "bad.balg").write_text(text + "\n")
    code, _, err = run(
        capsys, "eval-balg",
        "-A", str(fixtures_dir / "managers" / "abox.bag"),
        "-q", str(tmp_path / "bad.balg"),
    )
    assert code == 2 and "error" in err


def test_answer_empty_bag_prints_empty(capsys, tmp_path, fixtures_dir):
    (tmp_path / "q.cq").write_text('q(x) :- Unheard(x)\n')
    code, out, _ = run(
        capsys, "answer",
        "-T", str(fixtures_dir / "managers" / "tbox.dl"),
        "-A", str(fixtures_dir / "managers" / "abox.bag"),
        "-q", str(tmp_path / "q.cq"), "--via", "both",
    )
    assert code == 0 and out == "EMPTY\n"


def test_threads_flag_is_accepted(capsys, fixtures_dir):
    code, out, _ = run(
        capsys, "--threads", "4", "answer",
        "-T", str(fixtures_dir / "employees" / "tbox.dl"),
        "-A", str(fixtures_dir / "employees" / "abox.bag"),
        "-q", str(fixtures_dir / "employees" / "query.cq"),
    )
    assert code == 0 and out == "(Lee) 3\n"
