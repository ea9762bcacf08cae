"""Subsumees and satisfiability against their definitions, and both linear
in their input: an inclusion chain and many disjointness axioms."""

import random
import time

from bago import BagOntology, is_satisfiable, parse_abox, parse_tbox
from bago.chase import BagInterpretation
from bago.ontology import (
    AtomicConcept,
    ConceptAssertion,
    ConceptDisjointness,
    ConceptInclusion,
    ExistsRole,
    Role,
    RoleInclusion,
    TBox,
    concept_key,
)
from bago.query import parse_cq
from bago.randgen import (
    CONCEPTS,
    ROLES,
    random_bag_abox,
    random_core_tbox,
    random_tbox_with_disjointness,
)
from bago.rewrite import rewrite

from oracles import chase_step, concept_closure

POOL = ([AtomicConcept(c) for c in CONCEPTS + ("Z",)]
        + [ExistsRole(Role(r, inv)) for r in ROLES for inv in (False, True)])


def _random_r_tbox(rng):
    roles = [Role(r, inv) for r in ROLES for inv in (False, True)]
    axioms = set(random_core_tbox(rng).axioms)
    for _ in range(rng.randint(0, 4)):
        sub, sup = rng.sample(roles, 2)
        axioms.add(RoleInclusion(sub, sup))
    return TBox(axioms, kind="r")


def test_subsumees_are_every_concept_that_entails_it():
    rng = random.Random(2111)
    for i in range(300):
        tbox = random_core_tbox(rng) if i % 2 else _random_r_tbox(rng)
        for c in POOL:
            expected = {d for d in POOL if c in tbox.concepts_entailed_by(d)} | {c}
            assert tbox.concept_subsumees(c) == tuple(sorted(expected, key=concept_key))


def _brute_satisfiable(tbox, abox):
    """Chase the support one literal stage at a time, then look for a
    declared disjoint pair in the concept closure of any element."""
    concepts, roles = {}, {}
    for a, _ in abox.items():
        if isinstance(a, ConceptAssertion):
            concepts.setdefault(a.concept, {})[a.individual] = 1
        else:
            roles.setdefault(a.role, {})[(a.subject, a.object)] = 1
    stage = BagInterpretation(abox.individuals(), concepts, roles)
    for _ in range(2 * len(ROLES) + 2):
        stage = chase_step(stage, tbox)
    disjoint = [(ax.first, ax.second) for ax in tbox.axioms
                if isinstance(ax, ConceptDisjointness)]
    for u in stage.domain:
        closure = concept_closure(stage, u, tbox)
        if any(first in closure and second in closure for first, second in disjoint):
            return False
    return True


def test_satisfiability_equals_a_brute_force_chase():
    rng = random.Random(2112)
    outcomes = set()
    for _ in range(300):
        tbox, abox = random_tbox_with_disjointness(rng), random_bag_abox(rng)
        expected = _brute_satisfiable(tbox, abox)
        assert is_satisfiable(BagOntology(tbox, abox)) == expected
        outcomes.add(expected)
    assert outcomes == {True, False}


def test_self_disjointness_holds_through_inclusions():
    tbox = TBox({ConceptDisjointness(AtomicConcept("A"), AtomicConcept("A")),
                 ConceptInclusion(AtomicConcept("B"), AtomicConcept("A"))})
    assert not is_satisfiable(BagOntology(tbox, parse_abox("B(a)\nC(b)\n")))
    assert is_satisfiable(BagOntology(tbox, parse_abox("C(a)\nR(a,b)\n")))


def _chain(n):
    tbox = "".join(f"C{i} SUB C{i + 1}\n" for i in range(n)) + f"C{n} SUB EX R\n"
    return parse_tbox(tbox), parse_cq(f"q(x) :- C{n}(x), R(x, y)")


def test_rewriting_an_inclusion_chain_is_linear():
    tbox, q = _chain(5_000)
    start = time.process_time()
    rewrite(q, tbox)
    assert time.process_time() - start < 1.0


def test_satisfiability_with_many_disjointness_axioms_is_linear():
    n, names = 1_000, 20_000
    tbox = parse_tbox("".join(f"DISJ D{j} E{j}\nF{j} SUB D{j}\n" for j in range(n)))
    abox = parse_abox("".join(f"{'DF'[i % 2]}{i % n}(i{i})\nR(i{i},i{(i + 1) % names})\n"
                              for i in range(names)))
    k = BagOntology(tbox, abox)
    start = time.process_time()
    assert is_satisfiable(k)
    assert time.process_time() - start < 0.5
