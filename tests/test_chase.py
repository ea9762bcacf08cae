import random

import pytest

from bago import (
    AtomicConcept,
    BagInterpretation,
    BagOntology,
    ExistsRole,
    Named,
    Role,
    UnsatisfiableOntology,
    UnsupportedTBoxKind,
    chase,
    chase_step,
    concept_closure,
    interpretation_from_abox,
    parse_abox,
    parse_cq,
    parse_tbox,
    required_depth,
)
from bago.chase import Anon, bag_union, dump_chase
from bago.ontology import BagABox
from bago.randgen import random_instance

LEE = Named("Lee")


def test_concept_closure_running_example(employees):
    k, _ = employees
    stage0 = interpretation_from_abox(k.abox)
    ccl = concept_closure(stage0, LEE, k.tbox)
    assert ccl[AtomicConcept("Emp")] == 3
    assert ccl[ExistsRole(Role("hasMngr"))] == 3
    assert ccl[AtomicConcept("SalEmp")] == 3
    assert ccl[AtomicConcept("ITEmp")] == 2
    hill = concept_closure(stage0, Named("Hill"), k.tbox)
    assert hill[AtomicConcept("Mngr")] == 2


def test_concept_closure_empty_tbox_is_reflexive():
    stage0 = interpretation_from_abox(parse_abox("A(a) 4\nR(a,b) 2\n"))
    ccl = concept_closure(stage0, Named("a"), parse_tbox(""))
    assert ccl == {
        AtomicConcept("A"): 4,
        ExistsRole(Role("R")): 2,
    }


def test_chase_stage_one_running_example(employees):
    k, _ = employees
    result = chase(k, 1)
    stage1 = result.stages[1]
    w = Anon(LEE, Role("hasMngr"), 1)
    # deficit 3 - 2 = 1: exactly one fresh manager edge
    assert stage1.role_mult("hasMngr", LEE, w) == 1
    assert stage1.role_mult("hasMngr", LEE, Named("Hill")) == 2
    assert stage1.concept_mult("Emp", LEE) == 3
    assert [el for el in stage1.anonymous()] == [w]


def test_chase_example_model(managers):
    k, _, _ = managers
    w = Anon(LEE, Role("hasMngr"), 1)
    stage1 = chase(k, 1).union
    assert stage1.domain == {LEE, Named("Hill"), w}
    assert stage1.concepts == {"Emp": {LEE: 1}, "Mngr": {Named("Hill"): 1}}
    assert stage1.roles == {"hasMngr": {(LEE, w): 1}}
    # the full canonical model adds the witness's derived membership
    full = chase(k, 2).union
    assert full.concepts == {
        "Emp": {LEE: 1},
        "Mngr": {Named("Hill"): 1, w: 1},
    }
    assert full.roles == {"hasMngr": {(LEE, w): 1}}
    assert chase(k, 3).union == full


def test_chase_step_fixpoint_on_saturated_interpretation(managers):
    k, _, _ = managers
    saturated = chase(k, 2).union
    assert chase_step(saturated, k.tbox) == saturated


def test_chase_empty_tbox_is_stage_zero():
    abox = parse_abox("A(a) 2\nR(a,b) 3\n")
    k = BagOntology(parse_tbox(""), abox)
    result = chase(k, 4)
    assert result.union == interpretation_from_abox(abox)


def test_chase_prime_fixture(prime):
    k, _ = prime
    w = Anon(Named("a"), Role("R"), 1)
    union = chase(k, 1).union
    assert union.domain == {Named("a"), Named("b"), w}
    assert union.roles["R"] == {(Named("a"), Named("b")): 2, (Named("a"), w): 1}
    assert union.concepts["B"] == {Named("b"): 3}
    union2 = chase(k, 2).union
    assert union2.concepts["B"] == {Named("b"): 3, w: 1}


def test_chase_refuses_non_core_and_unsat():
    t_r = parse_tbox("KIND R\nR SUBR S\n")
    with pytest.raises(UnsupportedTBoxKind):
        chase(BagOntology(t_r, parse_abox("R(a,b)\n")), 1)
    t = parse_tbox("DISJ A B\n")
    with pytest.raises(UnsatisfiableOntology):
        chase(BagOntology(t, parse_abox("A(a)\nB(a)\n")), 1)


def test_required_depth_counts_atom_copies():
    assert required_depth(parse_cq("q(x) :- hasMngr(x, y)")) == 1
    assert required_depth(parse_cq("q(x) :- hasMngr(x, y), Mngr(y)")) == 2
    assert required_depth(parse_cq("q(x) :- A(x), A(x), A(x)")) == 3
    assert required_depth(parse_cq("q(x) :- A(x), x = y")) == 1


def test_stage_monotonicity_and_union_on_random_instances():
    rng = random.Random(3)
    for _ in range(25):
        tbox, abox, q = random_instance(rng)
        result = chase(BagOntology(tbox, abox), 3)
        for earlier, later in zip(result.stages, result.stages[1:]):
            assert later.contains(earlier)
        folded = result.stages[0]
        for stage in result.stages[1:]:
            folded = bag_union(folded, stage)
        assert folded == result.union


def test_anonymous_multiplicities_are_one():
    rng = random.Random(4)
    for _ in range(25):
        tbox, abox, _ = random_instance(rng)
        union = chase(BagOntology(tbox, abox), 3).union
        for name, ext in union.roles.items():
            for (u, v), m in ext.items():
                if isinstance(u, Anon) or isinstance(v, Anon):
                    assert m == 1
        for name, ext in union.concepts.items():
            for el, m in ext.items():
                if isinstance(el, Anon):
                    assert m == 1
                    seed = ExistsRole(el.role.inverse)
                    assert tbox.entails_concept(seed, AtomicConcept(name))


def test_chase_matches_iterated_naive_step():
    rng = random.Random(5)
    for _ in range(20):
        tbox, abox, _ = random_instance(rng)
        result = chase(BagOntology(tbox, abox), 3)
        naive = interpretation_from_abox(abox)
        for depth in range(3):
            naive = chase_step(naive, tbox)
            assert naive == result.stages[depth + 1]


def test_chase_is_insertion_order_independent(employees):
    k, _ = employees
    entries = list(k.abox.items())
    shuffled = BagABox(list(reversed(entries)))
    assert chase(BagOntology(k.tbox, shuffled), 2).union == chase(k, 2).union


def test_dump_format(managers):
    k, _, _ = managers
    text = dump_chase(chase(k, 2))
    lines = text.splitlines()
    assert lines[0] == "# depth=2"
    assert "Mngr(_w(Lee,hasMngr,1)) 1" in lines
    assert "hasMngr(Lee,_w(Lee,hasMngr,1)) 1" in lines


def test_model_property_on_random_instances():
    # The union at sufficient depth dominates the ABox and closes concepts
    # on named elements.
    rng = random.Random(6)
    for _ in range(15):
        tbox, abox, _ = random_instance(rng)
        union = chase(BagOntology(tbox, abox), 3).union
        stage0 = interpretation_from_abox(abox)
        assert union.contains(stage0)
        for el in stage0.domain:
            for concept, m in concept_closure(stage0, el, tbox).items():
                if isinstance(concept, AtomicConcept):
                    assert union.concept_mult(concept.name, el) >= m


def test_contains_fails_on_a_smaller_entry_or_a_missing_element():
    stage0 = interpretation_from_abox(parse_abox("A(a) 2\nR(a,b) 3\n"))
    a, b = Named("a"), Named("b")
    smaller_concept = interpretation_from_abox(parse_abox("A(a) 1\nR(a,b) 3\n"))
    smaller_edge = interpretation_from_abox(parse_abox("A(a) 2\nR(a,b) 2\n"))
    assert stage0.contains(smaller_concept) and not smaller_concept.contains(stage0)
    assert stage0.contains(smaller_edge) and not smaller_edge.contains(stage0)
    c = Named("c")
    extra = BagInterpretation({a, b, c}, stage0.concepts, stage0.roles)
    assert extra.contains(stage0) and not stage0.contains(extra)
