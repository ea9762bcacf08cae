"""Inputs that must end in an answer or a documented exit code, quickly."""

import importlib
import sys
import time

import pytest

from bago import BagOntology, ChaseLimitExceeded, chase, parse_abox, parse_tbox
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


def test_huge_multiplicity_via_chase_exits_with_resource_limit(capsys, tmp_path, fixtures_dir):
    files = _employee_files(tmp_path, fixtures_dir, U64_MAX)
    start = time.process_time()
    code = main(["answer", *files])
    elapsed = time.process_time() - start
    captured = capsys.readouterr()
    assert code == EXIT_RESOURCE
    assert captured.out == ""
    assert "--via rewrite" in captured.err
    assert elapsed < 1.0  # the budget is checked before any witness is allocated


def test_huge_multiplicity_in_crosscheck_exits_with_resource_limit(capsys, tmp_path, fixtures_dir):
    files = _employee_files(tmp_path, fixtures_dir, U64_MAX)
    code = main(["crosscheck", *files])
    captured = capsys.readouterr()
    assert code == EXIT_RESOURCE
    assert captured.out == ""
    assert "--via rewrite" in captured.err
    assert "error: error:" not in captured.err


def test_huge_multiplicity_via_rewrite_answers_exactly(capsys, tmp_path, fixtures_dir):
    files = _employee_files(tmp_path, fixtures_dir, U64_MAX)
    code = main(["answer", *files, "--via", "rewrite"])
    assert code == 0
    assert capsys.readouterr().out == f"(Lee) {U64_MAX}\n"


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
    assert text.endswith(f"R({deepest.parent},{deepest}) 1\n")
    assert elapsed < 2.0


def test_budget_counts_anonymous_elements_only(monkeypatch):
    # Emp(Lee) 10 needs exactly ten witnesses, one per missing manager edge.
    k = BagOntology(parse_tbox("Emp SUB EX hasMngr\nEX hasMngr- SUB Mngr\n"),
                    parse_abox("Emp(Lee) 10\n"))
    monkeypatch.setattr(chase_module, "MAX_CHASE_ELEMENTS", 10)
    assert len(chase(k, 3).union.domain) == 11
    monkeypatch.setattr(chase_module, "MAX_CHASE_ELEMENTS", 9)
    with pytest.raises(ChaseLimitExceeded):
        chase(k, 3)


def test_huge_depth_on_a_terminating_chase_answers(capsys, fixtures_dir):
    base = fixtures_dir / "employees"
    files = ["-T", str(base / "tbox.dl"), "-A", str(base / "abox.bag")]
    assert main(["chase", *files, "--depth", "3"]) == 0
    shallow = capsys.readouterr().out
    assert main(["chase", *files, "--depth", str(10**12)]) == 0
    deep = capsys.readouterr().out
    assert deep.splitlines()[1:] == shallow.splitlines()[1:]
