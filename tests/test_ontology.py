import pytest

from bago import (
    AtomicConcept,
    BagABox,
    BagOntology,
    ConceptAssertion,
    ExistsRole,
    ParseError,
    Role,
    RoleAssertion,
    TBox,
    is_satisfiable,
    parse_abox,
    parse_tbox,
)
from bago.ontology import (
    ConceptDisjointness,
    ConceptInclusion,
    RoleDisjointness,
    RoleInclusion,
)


def test_role_inverse_normalizes():
    r = Role("hasMngr")
    assert r.inverse.inverse == r
    assert str(r.inverse) == "hasMngr-"


def test_entails_concept_running_example(employees):
    k, _ = employees
    assert k.tbox.entails_concept(AtomicConcept("SalEmp"), AtomicConcept("Emp"))
    assert k.tbox.entails_concept(AtomicConcept("SalEmp"), ExistsRole(Role("hasMngr")))
    assert not k.tbox.entails_concept(AtomicConcept("Emp"), AtomicConcept("SalEmp"))


def test_entails_concept_reflexive_even_for_unknown_names():
    t = TBox()
    assert t.entails_concept(AtomicConcept("Nowhere"), AtomicConcept("Nowhere"))
    assert not t.entails_concept(AtomicConcept("X"), AtomicConcept("Y"))


def test_entails_concept_two_step_chain():
    t = parse_tbox("A SUB B\nB SUB EX P\n")
    assert t.entails_concept(AtomicConcept("A"), ExistsRole(Role("P")))


def test_entails_role_inverse_symmetry():
    t = parse_tbox("KIND R\nR SUBR S\n")
    assert t.entails_role(Role("R", True), Role("S", True))
    assert t.entails_role(Role("R"), Role("R"))
    assert not t.entails_role(Role("S"), Role("R"))
    assert TBox().entails_role(Role("R"), Role("R"))


def test_exists_edges_from_role_inclusions():
    t = parse_tbox("KIND R\nR SUBR S-\n")
    assert t.entails_concept(ExistsRole(Role("R")), ExistsRole(Role("S", True)))
    assert t.entails_concept(ExistsRole(Role("R", True)), ExistsRole(Role("S")))


def test_core_tbox_rejects_role_axioms():
    with pytest.raises(ParseError):
        TBox({RoleInclusion(Role("R"), Role("S"))})
    with pytest.raises(ParseError):
        parse_tbox("R SUBR S\n")
    with pytest.raises(ParseError):
        parse_tbox("DISJR R S\n")


def test_tbox_text_round_trip(employees):
    k, _ = employees
    assert parse_tbox(k.tbox.to_text()) == k.tbox
    t_r = parse_tbox("KIND R\nR SUBR S\nDISJR R S-\nA SUB EX R\n")
    assert parse_tbox(t_r.to_text()) == t_r


def test_abox_parsing_sums_and_defaults():
    a = parse_abox("A(a) 2\nA(a)\nhasMngr(Lee,Hill) 2\n# comment\n")
    assert a.multiplicity(ConceptAssertion("A", "a")) == 3
    assert a.multiplicity(RoleAssertion("hasMngr", "Lee", "Hill")) == 2
    assert parse_abox(a.to_text()) == a


def test_abox_rejects_bad_input():
    with pytest.raises(ParseError):
        parse_abox("A(a) 0\n")
    with pytest.raises(ParseError):
        parse_abox("A(@anchor)\n")
    with pytest.raises(ParseError):
        parse_abox("A(a b)\n")
    with pytest.raises(ValueError):
        BagABox({ConceptAssertion("A", "a"): 0})


def test_multiplicities_are_unsigned_64_bit():
    top = 2**64 - 1
    assert parse_abox(f"A(a) {top}\n").multiplicity(ConceptAssertion("A", "a")) == top
    with pytest.raises(ParseError):
        parse_abox(f"A(a) {top + 1}\n")
    with pytest.raises(ParseError):
        parse_abox(f"A(a) {top}\nA(a) 1\n")  # repeated lines sum past the bound
    with pytest.raises(ValueError):
        BagABox([(ConceptAssertion("A", "a"), top), (ConceptAssertion("A", "a"), 1)])


def test_satisfiable_running_example(employees):
    k, _ = employees
    assert is_satisfiable(k)


def test_no_disjointness_is_always_satisfiable():
    k = BagOntology(parse_tbox("A SUB B\n"), parse_abox("A(a) 5\nR(a,b)\n"))
    assert is_satisfiable(k)
    assert is_satisfiable(BagOntology(TBox(), parse_abox("A(a)\n")))


def test_direct_concept_disjointness_violation():
    t = parse_tbox("DISJ A B\n")
    assert not is_satisfiable(BagOntology(t, parse_abox("A(a) 1\nB(a) 1\n")))
    assert is_satisfiable(BagOntology(t, parse_abox("A(a) 1\nB(b) 1\n")))


def test_disjointness_reached_through_inclusions():
    t = parse_tbox("A SUB B\nDISJ B C\n")
    assert not is_satisfiable(BagOntology(t, parse_abox("A(a)\nC(a)\n")))


def test_disjointness_at_anonymous_witness():
    t = parse_tbox("A SUB EX R\nEX R- SUB B\nEX R- SUB C\nDISJ B C\n")
    assert not is_satisfiable(BagOntology(t, parse_abox("A(a)\n")))
    # Named witnesses hit the same closure.
    assert not is_satisfiable(BagOntology(t, parse_abox("R(a,b)\n")))


def test_disjointness_behind_anonymous_chain():
    t = parse_tbox(
        "A SUB EX R\nEX R- SUB EX S\nEX S- SUB B\nEX S- SUB C\nDISJ B C\n"
    )
    assert not is_satisfiable(BagOntology(t, parse_abox("A(a)\n")))


def test_role_disjointness_on_asserted_pair():
    t = parse_tbox("KIND R\nR SUBR S\nDISJR R S\n")
    assert not is_satisfiable(BagOntology(t, parse_abox("R(a,b)\n")))
    assert is_satisfiable(BagOntology(t, parse_abox("S(a,b)\n")))


def test_role_disjointness_at_inverse_orientation():
    t = TBox(
        {
            ConceptInclusion(AtomicConcept("A"), ExistsRole(Role("P"))),
            RoleInclusion(Role("P"), Role("R1")),
            RoleInclusion(Role("P"), Role("R2")),
            RoleDisjointness(Role("R1", True), Role("R2", True)),
        },
        kind="r",
    )
    assert not is_satisfiable(BagOntology(t, parse_abox("A(a)\n")))


def test_disjointness_through_role_hierarchy_chain():
    t = parse_tbox(
        "KIND R\nA SUB EX P\nP SUBR S\nEX S- SUB B\nEX P- SUB C\nDISJ B C\n"
    )
    assert not is_satisfiable(BagOntology(t, parse_abox("A(a)\n")))
    # without the role inclusion the witness only reaches C
    t2 = parse_tbox("KIND R\nA SUB EX P\nEX S- SUB B\nEX P- SUB C\nDISJ B C\n")
    assert is_satisfiable(BagOntology(t2, parse_abox("A(a)\n")))


def test_satisfiability_ignores_multiplicities():
    t = parse_tbox("DISJ A B\n")
    bad = parse_abox("A(a) 1\nB(a) 1\n")
    good = parse_abox("A(a) 7\nB(b) 3\n")
    for factor in (1, 2, 17):
        assert not is_satisfiable(BagOntology(t, bad.scaled(factor)))
        assert is_satisfiable(BagOntology(t, good.scaled(factor)))


def test_self_disjointness_forces_empty_concept():
    t = TBox({ConceptDisjointness(AtomicConcept("A"), AtomicConcept("A"))})
    assert not is_satisfiable(BagOntology(t, parse_abox("A(a)\n")))
    assert is_satisfiable(BagOntology(t, parse_abox("B(a)\n")))


def test_kind_directive_must_lead():
    with pytest.raises(ParseError):
        parse_tbox("A SUB B\nKIND R\n")
