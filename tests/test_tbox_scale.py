"""Subsumees and satisfiability against their definitions, and both linear
in their input: an inclusion chain and many disjointness axioms."""

import random
import time

from bago import BagOntology, is_satisfiable, parse_abox, parse_tbox
from bago.chase import BagInterpretation
from bago.ontology import (
    AtomicConcept,
    ConceptDisjointness,
    ConceptInclusion,
    ExistsRole,
    Role,
    RoleDisjointness,
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
    for (predicate, names), _ in abox.items():
        if len(names) == 1:
            concepts.setdefault(predicate, {})[names[0]] = 1
        else:
            roles.setdefault(predicate, {})[names] = 1
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


def _literal_r_clash(tbox, abox, stages=2 * len(ROLES) + 2):
    """Chase a kind-R instance's support literally, in set semantics, and name
    what makes it unsatisfiable: "concept", "role" or None.

    Each edge is stored in both orientations and closed under the role
    inclusions, each element's concepts (its concept names and EX R for each
    role R on an edge out of it) under the concept inclusions, and each
    EX R with no R-edge out of its element gets one fresh witness along R.
    An element holding two disjoint concepts, or an edge two disjoint roles,
    is a clash. A witness's concepts follow from the role it was born along,
    so every kind of witness is born within the stages run here.
    """
    concept_sup, role_sup = {}, {}
    for ax in tbox.axioms:
        if isinstance(ax, ConceptInclusion):
            concept_sup.setdefault(ax.sub, set()).add(ax.sup)
        elif isinstance(ax, RoleInclusion):
            role_sup.setdefault(ax.sub, set()).add(ax.sup)
            role_sup.setdefault(ax.sub.inverse, set()).add(ax.sup.inverse)

    def close(start, sup):
        out, stack = set(start), list(start)
        while stack:
            for nxt in sup.get(stack.pop(), ()):
                if nxt not in out:
                    out.add(nxt)
                    stack.append(nxt)
        return out

    names, edges = {}, {}  # element -> concept names; (u, v) -> roles
    for (predicate, args), _ in abox.items():
        if len(args) == 1:
            names.setdefault(args[0], set()).add(AtomicConcept(predicate))
        else:
            edges.setdefault(args, set()).add(Role(predicate))
            edges.setdefault(args[::-1], set()).add(Role(predicate, True))
    elements = set(abox.individuals())
    for stage in range(stages + 1):
        edges = {pair: close(roles, role_sup) for pair, roles in edges.items()}
        out = {}
        for (u, _), roles in edges.items():
            out.setdefault(u, set()).update(roles)
        concepts = {u: close(names.get(u, set()) | {ExistsRole(r) for r in out.get(u, ())},
                             concept_sup) for u in elements}
        if stage == stages:
            break
        for u, cs in concepts.items():
            for c in cs:
                if isinstance(c, ExistsRole) and c.role not in out.get(u, ()):
                    w = (u, c.role)
                    elements.add(w)
                    edges[(u, w)], edges[(w, u)] = {c.role}, {c.role.inverse}
    for ax in tbox.axioms:
        if isinstance(ax, ConceptDisjointness) and any(
                ax.first in cs and ax.second in cs for cs in concepts.values()):
            return "concept"
    for ax in tbox.axioms:
        if isinstance(ax, RoleDisjointness) and any(
                ax.first in roles and ax.second in roles for roles in edges.values()):
            return "role"
    return None


def test_kind_r_satisfiability_equals_a_literal_chase_with_role_inclusions():
    rng = random.Random(2113)
    roles = [Role(r, inv) for r in ROLES for inv in (False, True)]
    clashes = []
    for _ in range(300):
        axioms = set(_random_r_tbox(rng).axioms)
        for _ in range(rng.randint(0, 2)):
            axioms.add(ConceptDisjointness(rng.choice(POOL), rng.choice(POOL)))
        for _ in range(rng.randint(0, 2)):
            axioms.add(RoleDisjointness(rng.choice(roles), rng.choice(roles)))
        tbox, abox = TBox(axioms, kind="r"), random_bag_abox(rng)
        clash = _literal_r_clash(tbox, abox)
        assert is_satisfiable(BagOntology(tbox, abox)) == (clash is None), tbox.to_text()
        clashes.append(clash)
    assert set(clashes) == {None, "concept", "role"}


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
    abox = parse_abox("".join(f"{'DF'[i % 2]}{i % n}(i{i})\nR(i{i},i{(i + 1) % names})\n"
                              for i in range(names)))
    named = "".join(f"DISJ D{j} E{j}\nF{j} SUB D{j}\n" for j in range(n))
    # Each F{j} name needs a witness along R{j}, which holds D{j}; the axiom
    # added last gives the witness along R{n - 1} its disjoint E{n - 1} too.
    witnessed = "".join(f"F{j} SUB EX R{j}\nEX R{j}- SUB D{j}\nDISJ D{j} E{j}\n"
                        for j in range(n))
    for tbox, expected in [(named, True), (witnessed, True),
                           (witnessed + f"EX R{n - 1}- SUB E{n - 1}\n", False)]:
        k = BagOntology(parse_tbox(tbox), abox)
        start = time.process_time()
        assert is_satisfiable(k) == expected
        assert time.process_time() - start < 0.5
