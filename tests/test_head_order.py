"""Queries whose head order, equalities or pinned answer variables take the
rarer branches of the rewriting's closing and evaluation, on both answer
paths and the reference: an equality `x = x`, a class pinned to two
individuals, a head that lists the compiled columns in another order, and an
answer variable pinned to an individual that no atom mentions."""

import random

import pytest

from bago import BagOntology, CQ, certain_answers, parse_abox, parse_cq, parse_tbox
from bago.answers import VIA_CHASE, VIA_REWRITE
from bago.chase import interpretation_from_abox, required_depth
from bago.randgen import random_bag_abox, random_core_tbox, random_rooted_cq

from oracles import brute_eval_cq, chase_step

ONTOLOGIES = [
    # the head_order fixture's: a's named successors cover its A, c's is a witness
    ("A SUB EX R\nEX R- SUB B\n", "A(a) 2\nR(a,b) 3\nB(a) 1\nA(c) 1\n"),
    ("EX R SUB A\nA SUB EX R-\n", "A(a) 3\nR(b,a) 1\nB(b) 2\n"),
]

QUERIES = [
    "q(x) :- A(x), x = x",
    'q() :- A("a"), y = "a", y = "b"',
    "q(y, x) :- R(x, y)",
    'q(w, x) :- R(x, y), B(y), w = "a", B("a")',
]


def _reference(q, tbox, abox):
    interp = interpretation_from_abox(abox)
    for _ in range(required_depth(q)):
        interp = chase_step(interp, tbox)
    return brute_eval_cq(q, interp)


@pytest.mark.parametrize("tbox_text, abox_text", ONTOLOGIES)
@pytest.mark.parametrize("text", QUERIES)
def test_both_paths_answer_as_the_reference(text, tbox_text, abox_text):
    tbox, abox = parse_tbox(tbox_text), parse_abox(abox_text)
    k, q = BagOntology(tbox, abox), parse_cq(text)
    chased = dict(certain_answers(q, k, via=VIA_CHASE).items())
    assert chased == dict(certain_answers(q, k, via=VIA_REWRITE).items())
    assert chased == _reference(q, tbox, abox)


def test_reversing_the_head_reverses_every_answer():
    rng = random.Random(25)
    checked = answered = 0
    while checked < 300:
        tbox, abox, base = random_core_tbox(rng), random_bag_abox(rng), random_rooted_cq(rng)
        if len(base.variables()) < 2:
            continue
        # The head keeps the query's answer variable, if it has one, so the
        # query stays rooted.
        rest = [v for v in base.variables() if v not in base.answer_vars]
        head = list(base.answer_vars) + rng.sample(rest, 2 - len(base.answer_vars))
        rng.shuffle(head)
        q, reversed_q = CQ(head, base.atoms), CQ(head[::-1], base.atoms)
        k = BagOntology(tbox, abox)
        for via in (VIA_CHASE, VIA_REWRITE):
            forward = certain_answers(q, k, via=via).items()
            backward = certain_answers(reversed_q, k, via=via).items()
            assert sorted((t[::-1], m) for t, m in forward) == backward, (q, via)
        checked += 1
        answered += bool(forward)
    assert answered > 50  # enough of the heads have answers to reverse
