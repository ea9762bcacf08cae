"""A bag ABox kept as name relations: every view against a reference built
from the assertion list, and evaluation never writing into the ABox."""

import copy
import random

import pytest

from bago import (BagABox, BagOntology, ParseError, certain_answers, eval_balg, parse_abox,
                  parse_cq, parse_tbox)
from bago import bagalg
from bago.errors import U64_MAX
from bago.ontology import ConceptAssertion, RoleAssertion
from bago.randgen import random_bag_abox, random_rooted_cq
from bago.rewrite import evaluate_rewriting, rewrite

from generators import random_balg, wide_abox

# "P" is both a concept and a role name.
CONCEPTS, ROLES, NAMES = ("A", "B", "P"), ("R", "P"), ("a", "b", "c", "d_1")


def _random_assertions(rng):
    out = []
    for _ in range(rng.randint(0, 15)):
        if rng.random() < 0.5:
            a = ConceptAssertion(rng.choice(CONCEPTS), rng.choice(NAMES))
        else:
            a = RoleAssertion(rng.choice(ROLES), rng.choice(NAMES), rng.choice(NAMES))
        out.append((a, rng.randint(1, 4)))
    if out and rng.random() < 0.5:
        out += rng.sample(out, rng.randint(1, len(out)))  # repeated lines sum
    return out


def _reference_key(a):
    if isinstance(a, ConceptAssertion):
        return (0, a.concept, a.individual, "")
    return (1, a.role, a.subject, a.object)


def _reference(assertions):
    merged = {}
    for a, m in assertions:
        merged[a] = merged.get(a, 0) + m
    return merged


def _reference_relations(merged):
    rels = {}
    for a, m in merged.items():
        if isinstance(a, ConceptAssertion):
            rels.setdefault((a.concept, 1), {})[(a.individual,)] = m
        else:
            rels.setdefault((a.role, 2), {})[(a.subject, a.object)] = m
    return rels


def test_every_view_equals_the_reference_built_from_the_assertions():
    rng = random.Random(2101)
    pool = ([ConceptAssertion(c, n) for c in CONCEPTS for n in NAMES]
            + [RoleAssertion(r, u, v) for r in ROLES for u in NAMES for v in NAMES])
    for _ in range(300):
        assertions = _random_assertions(rng)
        abox, merged = BagABox(assertions), _reference(assertions)
        ordered = sorted(merged.items(), key=lambda kv: _reference_key(kv[0]))
        assert abox.relations == _reference_relations(merged)
        assert abox.items() == ordered
        assert sorted(abox.entries(), key=str) == sorted(merged.items(), key=str)
        assert len(abox.entries()) == len(abox) == len(merged)
        assert abox.support() == frozenset(merged)
        assert all(abox.multiplicity(a) == merged.get(a, 0) for a in pool)
        assert abox.individuals() == tuple(sorted(
            {n for a in merged for n in
             ((a.individual,) if isinstance(a, ConceptAssertion) else (a.subject, a.object))}))
        assert abox.to_text() == "".join(f"{a} {m}\n" for a, m in ordered)
        assert abox.scaled(3).items() == [(a, 3 * m) for a, m in ordered]
        assert abox.flattened().items() == [(a, 1) for a, _ in ordered]
        assert parse_abox(abox.to_text()) == abox
        assert BagABox(merged) == abox


def test_equality_and_hash_ignore_insertion_order():
    rng = random.Random(2102)
    for _ in range(200):
        assertions = _random_assertions(rng)
        shuffled = assertions[:]
        rng.shuffle(shuffled)
        a, b = BagABox(assertions), BagABox(shuffled)
        assert a == b and hash(a) == hash(b)
        assert a.items() == b.items() and a.to_text() == b.to_text()


def test_a_concept_and_a_role_of_one_name_are_two_relations():
    abox = BagABox([(ConceptAssertion("P", "a"), 2), (RoleAssertion("P", "a", "b"), 3),
                    (ConceptAssertion("P", "a"), 1)])
    assert abox.relations == {("P", 1): {("a",): 3}, ("P", 2): {("a", "b"): 3}}
    assert abox.multiplicity(ConceptAssertion("P", "a")) == 3
    assert abox.multiplicity(RoleAssertion("P", "a", "b")) == 3
    assert abox.multiplicity(ConceptAssertion("P", "b")) == 0
    assert len(abox) == 2
    assert abox.to_text() == "P(a) 3\nP(a,b) 3\n"


def test_sums_at_the_64_bit_bound_and_one_past_it():
    a = ConceptAssertion("A", "a")
    at = BagABox([(a, U64_MAX - 1), (a, 1)])
    assert at.multiplicity(a) == U64_MAX
    with pytest.raises(ValueError, match="exceeds the 64-bit range"):
        BagABox([(a, U64_MAX), (a, 1)])
    with pytest.raises(ValueError, match="exceeds the 64-bit range"):
        at.scaled(2)
    with pytest.raises(ValueError, match="must be >= 1"):
        BagABox([(a, 0)])
    assert parse_abox(f"R(a,b) {U64_MAX - 1}\nR(a,b)\n").relations == {
        ("R", 2): {("a", "b"): U64_MAX}}
    with pytest.raises(ParseError, match="exceeds the 64-bit range"):
        parse_abox(f"R(a,b) {U64_MAX}\nR(a,b)\n")


def test_bag_algebra_evaluation_leaves_the_abox_intact():
    rng = random.Random(2103)
    for _ in range(300):
        abox = random_bag_abox(rng)
        before = copy.deepcopy(abox.relations)
        eval_balg(random_balg(rng), abox)
        assert abox.relations == before


def test_answering_wide_aboxes_leaves_the_abox_intact():
    rng = random.Random(2104)
    chain3 = parse_cq("q(x) :- R(x, y), S(y, z), B(z)")
    for _ in range(3):
        tbox, abox = wide_abox(rng, n=60)
        before = copy.deepcopy(abox.relations)
        for q in [chain3] + [random_rooted_cq(rng) for _ in range(4)]:
            evaluate_rewriting(rewrite(q, tbox), abox)
            certain_answers(q, BagOntology(tbox, abox), via="both")
            assert abox.relations == before


@pytest.mark.parametrize("query", ["q(x, y) :- R(x, y)", "q(x) :- Missing(x)"])
def test_answer_bags_do_not_share_the_abox_relations(query):
    # A one-atom rewriting reads the ABox's relation itself, and an atom over
    # a predicate the ABox lacks reads the shared empty map: the answer bag
    # must own a copy of either.
    abox = parse_abox("R(a,b) 2\nR(b,b) 1\nA(a) 3\n")
    before = copy.deepcopy(abox.relations)
    bag = evaluate_rewriting(rewrite(parse_cq(query), parse_tbox("")), abox)
    assert all(bag._entries is not rel for rel in abox.relations.values())
    assert bag._entries is not bagalg._EMPTY
    bag._entries[("c",) * bag.arity] = 1
    assert abox.relations == before and bagalg._EMPTY == {}
