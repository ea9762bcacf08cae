"""A bag ABox is its name relations: every view against a reference built
from (predicate, names, multiplicity) triples, the constructor's range
check, and evaluation never writing into the ABox."""

import copy
import random

import pytest

from bago import (BagABox, BagOntology, ParseError, certain_answers, eval_balg, parse_abox,
                  parse_cq, parse_tbox)
from bago import bagalg
from bago.errors import U64_MAX
from bago.randgen import random_bag_abox, random_rooted_cq
from bago.rewrite import evaluate_rewriting, rewrite

from generators import random_balg, wide_abox
from oracles import scaled

# "P" is both a concept and a role name.
CONCEPTS, ROLES, NAMES = ("A", "B", "P"), ("R", "P"), ("a", "b", "c", "d_1")
POOL = ([(c, (n,)) for c in CONCEPTS for n in NAMES]
        + [(r, (u, v)) for r in ROLES for u in NAMES for v in NAMES])


def _random_triples(rng):
    """Distinct (predicate, names) keys in random order, each with a multiplicity."""
    keys = rng.sample(POOL, rng.randint(0, 15))
    return [(p, names, rng.choice((1, 2, 3, 4, U64_MAX))) for p, names in keys]


def _relations(triples):
    rels = {}
    for p, names, m in triples:
        rels.setdefault((p, len(names)), {})[names] = m
    return rels


def test_every_view_equals_the_reference_built_from_triples():
    rng = random.Random(2101)
    for _ in range(300):
        triples = _random_triples(rng)
        abox = BagABox(_relations(triples))
        ordered = sorted(triples, key=lambda t: (len(t[1]), t[0], t[1]))
        assert abox.relations == _relations(triples)
        assert abox.items() == [((p, names), m) for p, names, m in ordered]
        assert len(abox) == len(triples)
        assert abox.individuals() == tuple(sorted({n for _, names, _ in triples for n in names}))
        assert abox.to_text() == "".join(f"{p}({','.join(names)}) {m}\n"
                                         for p, names, m in ordered)
        assert parse_abox(abox.to_text()) == abox
        shuffled = triples[:]
        rng.shuffle(shuffled)
        other = BagABox(_relations(shuffled))
        assert other == abox and hash(other) == hash(abox)
        if triples:
            p, names, m = rng.choice(triples)
            changed = BagABox(_relations(triples + [(p, names, m % 4 + 1)]))
            assert changed != abox


def test_the_constructor_owns_its_map_and_checks_each_multiplicity():
    relations = {("A", 1): {("a",): U64_MAX}, ("R", 2): {("a", "b"): 1}}
    assert BagABox(relations).relations is relations
    assert BagABox() == BagABox({}) and len(BagABox()) == 0
    for bad in (0, -1, U64_MAX + 1):
        with pytest.raises(ValueError, match=r"multiplicity of R\(a,b\) must lie in"):
            BagABox({("A", 1): {("a",): 2}, ("R", 2): {("b", "a"): 1, ("a", "b"): bad}})


def test_equality_and_hash_ignore_insertion_order():
    rng = random.Random(2102)
    for _ in range(200):
        lines = [f"{p}({','.join(names)}) {rng.randint(1, 4)}"
                 for p, names in rng.choices(POOL, k=rng.randint(0, 15))]
        shuffled = lines[:]
        rng.shuffle(shuffled)
        a, b = parse_abox("\n".join(lines)), parse_abox("\n".join(shuffled))
        assert a == b and hash(a) == hash(b)
        assert a.items() == b.items() and a.to_text() == b.to_text()


def test_a_concept_and_a_role_of_one_name_are_two_relations():
    abox = parse_abox("P(a) 2\nP(a,b) 3\nP(a) 1\n")
    assert abox.relations == {("P", 1): {("a",): 3}, ("P", 2): {("a", "b"): 3}}
    assert len(abox) == 2
    assert abox.items() == [(("P", ("a",)), 3), (("P", ("a", "b")), 3)]
    assert abox.to_text() == "P(a) 3\nP(a,b) 3\n"


def test_sums_at_the_64_bit_bound_and_one_past_it():
    at = parse_abox(f"A(a) {U64_MAX - 1}\nA(a)\n")
    assert at.relations == {("A", 1): {("a",): U64_MAX}}
    with pytest.raises(ValueError, match="must lie in"):
        scaled(at, 2)
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
