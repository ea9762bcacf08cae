import importlib
import math

import pytest

from bago import (
    AnswerBag,
    BagOntology,
    CertRequest,
    CrosscheckMismatch,
    NotRooted,
    UnsatisfiableOntology,
    UnsupportedTBoxKind,
    bag_cert,
    certain_answers,
    crosscheck_one,
    crosscheck_random,
    parse_abox,
    parse_cq,
    parse_tbox,
)
from bago import answers as answers_module
from bago.cli import main
from bago.answers import VIA_BOTH, VIA_CHASE, VIA_REWRITE
from bago.ontology import BagABox
from bago.rewrite import PROBE_FRESH

# The package re-exports the function `chase`, which shadows the module name.
chase_module = importlib.import_module("bago.chase")


def test_certain_answers_running_example(employees):
    k, q = employees
    expected = AnswerBag(1, {("Lee",): 3})
    assert certain_answers(q, k, via=VIA_CHASE) == expected
    assert certain_answers(q, k, via=VIA_REWRITE) == expected
    assert certain_answers(q, k, via=VIA_BOTH) == expected


def test_certain_answers_empty_abox(employees):
    k, q = employees
    empty = BagOntology(k.tbox, BagABox())
    assert certain_answers(q, empty) == AnswerBag(1)
    assert certain_answers(q, empty, via=VIA_REWRITE) == AnswerBag(1)


def test_certain_answers_two_component_fixture(prime_pair):
    k, q = prime_pair
    expected = AnswerBag(2, {("a", "a"): 448})
    assert certain_answers(q, k, via=VIA_BOTH) == expected


def test_certain_answers_refusals(managers):
    k, q_rooted, q_nr = managers
    with pytest.raises(NotRooted):
        certain_answers(q_nr, k)
    k_r = BagOntology(parse_tbox("KIND R\nR SUBR S\n"), parse_abox("R(a,b)\n"))
    with pytest.raises(UnsupportedTBoxKind):
        certain_answers(parse_cq("q() :- R(x, y), A(x)"), k_r)
    unsat = BagOntology(parse_tbox("DISJ A B\n"), parse_abox("A(a)\nB(a)\n"))
    with pytest.raises(UnsatisfiableOntology):
        certain_answers(parse_cq("q(x) :- A(x)"), unsat)
    with pytest.raises(UnsatisfiableOntology):
        certain_answers(parse_cq("q(x) :- A(x)"), unsat, via=VIA_REWRITE)


def test_bag_cert_thresholds(employees):
    k, q = employees
    assert bag_cert(CertRequest(q, k, ("Lee",), 3))
    assert not bag_cert(CertRequest(q, k, ("Lee",), 4))
    assert bag_cert(CertRequest(q, k, ("Lee",), 0))
    assert bag_cert(CertRequest(q, k, ("Nobody",), 0))
    assert not bag_cert(CertRequest(q, k, ("Lee",), math.inf))
    assert bag_cert(CertRequest(q, k, ("Lee",), 3), via=VIA_REWRITE)


@pytest.mark.parametrize("threshold", [0, 3, math.inf])
@pytest.mark.parametrize("via", [VIA_CHASE, VIA_REWRITE, VIA_BOTH])
def test_bag_cert_validates_once(employees, monkeypatch, threshold, via):
    k, q = employees
    calls = _count_satisfiability_checks(monkeypatch)
    bag_cert(CertRequest(q, k, ("Lee",), threshold), via=via)
    assert calls == [k]


def _count_satisfiability_checks(monkeypatch) -> list:
    """Record the ontology of each call at both lookup sites: the rewriting
    path's in `bago.answers` and the chase's in `bago.chase`. The rewriting's
    probe chases check their own one-assertion ontologies, which are left out."""
    calls = []
    check = answers_module.is_satisfiable

    def counting(ontology):
        if PROBE_FRESH not in ontology.abox.individuals():
            calls.append(ontology)
        return check(ontology)

    monkeypatch.setattr(answers_module, "is_satisfiable", counting)
    monkeypatch.setattr(chase_module, "is_satisfiable", counting)
    return calls


@pytest.mark.parametrize("via", [VIA_CHASE, VIA_REWRITE, VIA_BOTH])
def test_each_path_checks_satisfiability_once(employees, monkeypatch, tmp_path, via):
    k, q = employees
    calls = _count_satisfiability_checks(monkeypatch)
    certain_answers(q, k, via=via)
    assert calls == [k]
    unsat = BagOntology(parse_tbox("DISJ A B\n"), parse_abox("A(a)\nB(a)\n"))
    calls.clear()
    with pytest.raises(UnsatisfiableOntology):
        certain_answers(parse_cq("q(x) :- A(x)"), unsat, via=via)
    assert calls == [unsat]
    for text, file in (("DISJ A B\n", "t.dl"), ("A(a)\nB(a)\n", "a.bag"),
                       ("q(x) :- A(x)\n", "q.cq")):
        (tmp_path / file).write_text(text)
    assert main(["answer", "-T", str(tmp_path / "t.dl"), "-A", str(tmp_path / "a.bag"),
                 "-q", str(tmp_path / "q.cq"), "--via", via]) == 3
    if via == VIA_BOTH:  # `crosscheck_one` runs both paths as `--via both` does
        calls.clear()
        assert crosscheck_one(k.tbox, k.abox, q).passed
        assert calls == [k]
        calls.clear()
        with pytest.raises(UnsatisfiableOntology):
            crosscheck_one(unsat.tbox, unsat.abox, parse_cq("q(x) :- A(x)"))
        assert calls == [unsat]


def test_cert_request_checks_arity(employees):
    k, q = employees
    with pytest.raises(ValueError):
        CertRequest(q, k, ("Lee", "Hill"), 1)


def test_crosscheck_single_pass(managers):
    k, q_rooted, _ = managers
    outcome = crosscheck_one(k.tbox, k.abox, q_rooted)
    assert outcome.passed
    assert outcome.chase_bag == AnswerBag(1, {("Lee",): 1})
    assert outcome.rewrite_bag == outcome.chase_bag


def test_crosscheck_detects_corrupted_rewriting(managers, monkeypatch):
    # Dropping a branch from the arithmetic union must be caught.
    import bago.answers as answers_mod
    from bago.rewrite import Rewriting, rewrite as real_rewrite

    k, q_rooted, _ = managers

    def broken_rewrite(q, tbox):
        rw = real_rewrite(q, tbox)
        return Rewriting(
            rw.source, rw.tbox, rw.branches[:1],
            rw.branches[0].compiled, rw.certificates,
        )

    monkeypatch.setattr(answers_mod, "rewrite", broken_rewrite)
    outcome = crosscheck_one(k.tbox, k.abox, q_rooted)
    assert not outcome.passed
    assert "chase=1 rewrite=0" in outcome.detail
    with pytest.raises(CrosscheckMismatch):
        certain_answers(q_rooted, k, via=VIA_BOTH)


def test_crosscheck_random_batch_is_reproducible():
    report = crosscheck_random(30, seed=99)
    assert report.summary() == "30/30 PASS"
    again = crosscheck_random(30, seed=99)
    assert [o.label for o in report.outcomes] == [o.label for o in again.outcomes]
