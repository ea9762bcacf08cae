import pathlib
import random

import pytest

from bago import (
    AnswerBag,
    AtomicConcept,
    BagInterpretation,
    BagOntology,
    ExistsRole,
    Role,
    UnsatisfiableOntology,
    UnsupportedTBoxKind,
    certain_answers,
    chase,
    eval_cq,
    interpretation_from_abox,
    parse_abox,
    parse_cq,
    parse_tbox,
    required_depth,
)
from bago.chase import Anon, dump_chase
from bago.ontology import BagABox, TBox
from bago.randgen import random_instance
from generators import wide_abox
from oracles import (
    bag_union,
    brute_eval_cq,
    chase_step,
    concept_closure,
    contains,
    expand_dump,
    reference_dump,
)

LEE = "Lee"
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"


def test_concept_closure_running_example(employees):
    k, _ = employees
    stage0 = interpretation_from_abox(k.abox)
    ccl = concept_closure(stage0, LEE, k.tbox)
    assert ccl[AtomicConcept("Emp")] == 3
    assert ccl[ExistsRole(Role("hasMngr"))] == 3
    assert ccl[AtomicConcept("SalEmp")] == 3
    assert ccl[AtomicConcept("ITEmp")] == 2
    hill = concept_closure(stage0, "Hill", k.tbox)
    assert hill[AtomicConcept("Mngr")] == 2


def test_concept_closure_empty_tbox_is_reflexive():
    stage0 = interpretation_from_abox(parse_abox("A(a) 4\nR(a,b) 2\n"))
    ccl = concept_closure(stage0, "a", parse_tbox(""))
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
    assert stage1.role_mult("hasMngr", LEE, "Hill") == 2
    assert stage1.concept_mult("Emp", LEE) == 3
    assert [el for el in stage1.anonymous()] == [w]


def test_chase_example_model(managers):
    k, _, _ = managers
    w = Anon(LEE, Role("hasMngr"), 1)
    stage1 = chase(k, 1).union
    assert stage1.domain == {LEE, "Hill", w}
    assert stage1.concepts == {"Emp": {LEE: 1}, "Mngr": {"Hill": 1}}
    assert stage1.roles == {"hasMngr": {(LEE, w): 1}}
    # the full canonical model adds the witness's derived membership
    full = chase(k, 2).union
    assert full.concepts == {
        "Emp": {LEE: 1},
        "Mngr": {"Hill": 1, w: 1},
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
    w = Anon("a", Role("R"), 1)
    union = chase(k, 1).union
    assert union.domain == {"a", "b", w}
    assert union.roles["R"] == {("a", "b"): 2, ("a", w): 1}
    assert union.concepts["B"] == {"b": 3}
    union2 = chase(k, 2).union
    assert union2.concepts["B"] == {"b": 3, w: 1}


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
            assert contains(later, earlier)
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


# (TBox, ABox) pairs that stress the chase's later stages: a self-feeding
# TBox, a self-loop, an inverse seed with a sibling role, multiplicities in
# the hundreds, and interleaved runs of forward and inverse births.
HAND_BUILT = {
    "self_feeding": ("A SUB EX R\nEX R- SUB A\n", "A(a) 2\nR(a,b) 1\nR(b,a) 1\n"),
    "self_loop": ("C SUB EX R\nEX R- SUB EX R\nEX R SUB B\n", "C(a) 5\nR(a,a) 3\nB(a) 1\n"),
    "inverse_seed_and_sibling": (
        "A SUB EX R\nEX R- SUB EX S\nEX R- SUB B\nEX S- SUB EX R-\n",
        "A(a) 2\nR(a,b) 1\nS(b,a) 4\n",
    ),
    "company": (
        "SalEmp SUB Emp\nITEmp SUB Emp\nEmp SUB EX hasMngr\n"
        "EX hasMngr- SUB Mngr\nMngr SUB Emp\n",
        "SalEmp(p) 300\nITEmp(q) 200\nEmp(r) 100\nhasMngr(p,boss) 30\n"
        "hasMngr(q,boss) 10\nMngr(boss) 1\n",
    ),
    # Births along R, S- and T- from several parents, whose witnesses bear
    # along S, R, R- and S-: each stage's runs of different roles interleave.
    "mixed_runs": (
        "A SUB EX R\nA SUB EX S-\nB SUB EX T-\nEX R- SUB EX S\nEX R- SUB C\n"
        "EX S SUB EX R\nEX T SUB EX R-\nEX T SUB EX S-\n",
        "A(a) 3\nA(b) 2\nB(c) 2\nR(a,c) 1\nS(c,b) 1\n",
    ),
}


def _assert_chase_matches_iterated_naive_step(tbox, abox, depth):
    result = chase(BagOntology(tbox, abox), depth)
    naive = interpretation_from_abox(abox)
    for grown in result.stages:
        assert grown == naive
        # the successor rows that eval_cq walks must match as well
        for name in naive.roles:
            for inverted in (False, True):
                assert grown.rows(name, inverted) == naive.rows(name, inverted)
        naive = chase_step(naive, tbox)


def test_chase_matches_iterated_naive_step():
    rng = random.Random(5)
    cases = [(*random_instance(rng)[:2], 3) for _ in range(20)]
    cases += [(parse_tbox(t), parse_abox(a), 5) for t, a in HAND_BUILT.values()]
    for tbox, abox, depth in cases:
        _assert_chase_matches_iterated_naive_step(tbox, abox, depth)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_first_stage_over_many_names_matches_iterated_naive_step(seed):
    # Stage 1 closes the names a concept column at a time and bears their
    # witnesses in runs of equal deficit; the reference goes name by name.
    _assert_chase_matches_iterated_naive_step(*wide_abox(random.Random(seed)), 3)


# In the fixture `shared_successor`, witnesses born along R and along T- both
# entail EX S, so each stage after the first bears their S-successors as one
# run.
@pytest.mark.parametrize("depth", range(5))
def test_witnesses_of_two_roles_share_a_successor_run(monkeypatch, fixtures_dir, depth):
    k = _dump_ontology(fixtures_dir, "shared_successor")
    tbox, abox = k.tbox, k.abox
    _assert_chase_matches_iterated_naive_step(tbox, abox, depth)
    reference = interpretation_from_abox(abox)
    for _ in range(depth):
        reference = chase_step(reference, tbox)
    runs = []
    bear = BagInterpretation._bear

    def recording(self, parents, role, count):
        runs.append((str(role), sorted({str(u.role) for u in parents if type(u) is Anon})))
        return bear(self, parents, role, count)

    monkeypatch.setattr(BagInterpretation, "_bear", recording)
    for text in ("q(x) :- R(x, y), S(y, z), C(z)", "q(x) :- T(v, x), S(v, w), C(w)",
                 (fixtures_dir / "shared_successor" / "query.cq").read_text()):
        q = parse_cq(text)
        got = eval_cq(q, chase(k, depth, query=q).counted)
        want = eval_cq(q, reference)
        assert got == want, (text, depth)
        if len(q.variables()) <= 3:
            assert dict(got.items()) == brute_eval_cq(q, reference)
        # The S-witnesses have their C from stage 3 on.
        assert depth < 3 or len(q.atoms) < 6 or got == AnswerBag(1, {("a",): 15})
    runs.clear()
    chase(k, depth)
    assert (("S", ["R", "T-"]) in runs) == (depth >= 2)


# The benchmark's multiplicity-heavy queries, which read successor rows only.
FORWARD_ONLY_QUERIES = (
    "q(x) :- hasMngr(x, y)",
    "q(x) :- hasMngr(x, y), Mngr(y)",
    "q(x) :- hasMngr(x, y), hasMngr(y, z)",
    "q(x) :- hasMngr(x, y), hasMngr(y, z), Emp(z)",
)


def test_forward_only_queries_derive_no_reverse_rows_or_pairs(monkeypatch):
    tbox, abox = HAND_BUILT["company"]
    k = BagOntology(parse_tbox(tbox), parse_abox(abox))
    queries = [parse_cq(text) for text in FORWARD_ONLY_QUERIES]
    # The rewriting's probes chase and read both directions, so run it first.
    expected = [certain_answers(q, k, via="rewrite") for q in queries]

    def refuse(self, *args):
        raise AssertionError("a forward-only query derived witness rows or pairs")

    monkeypatch.setattr(BagInterpretation, "_derive_rows", refuse)
    assert [certain_answers(q, k, via="chase") for q in queries] == expected
    assert all(answer for answer in expected)


def test_chase_is_insertion_order_independent(employees):
    k, _ = employees
    entries = list(k.abox.items())
    shuffled = BagABox(list(reversed(entries)))
    assert chase(BagOntology(k.tbox, shuffled), 2).union == chase(k, 2).union


def test_dump_format(managers):
    k, _, _ = managers
    text = dump_chase(chase(k, 2))
    lines = text.splitlines()
    assert lines[:2] == ["# depth=2", "@1 = _w(Lee,hasMngr,1)"]
    assert "Mngr(@1) 1" in lines
    assert "hasMngr(Lee,@1) 1" in lines


def test_model_property_on_random_instances():
    # The union at sufficient depth dominates the ABox and closes concepts
    # on named elements.
    rng = random.Random(6)
    for _ in range(15):
        tbox, abox, _ = random_instance(rng)
        union = chase(BagOntology(tbox, abox), 3).union
        stage0 = interpretation_from_abox(abox)
        assert contains(union, stage0)
        for el in stage0.domain:
            for concept, m in concept_closure(stage0, el, tbox).items():
                if isinstance(concept, AtomicConcept):
                    assert union.concept_mult(concept.name, el) >= m


def test_contains_fails_on_a_smaller_entry_or_a_missing_element():
    stage0 = interpretation_from_abox(parse_abox("A(a) 2\nR(a,b) 3\n"))
    a, b = "a", "b"
    smaller_concept = interpretation_from_abox(parse_abox("A(a) 1\nR(a,b) 3\n"))
    smaller_edge = interpretation_from_abox(parse_abox("A(a) 2\nR(a,b) 2\n"))
    assert contains(stage0, smaller_concept) and not contains(smaller_concept, stage0)
    assert contains(stage0, smaller_edge) and not contains(smaller_edge, stage0)
    c = "c"
    extra = BagInterpretation({a, b, c}, stage0.concepts, stage0.roles)
    assert contains(extra, stage0) and not contains(stage0, extra)


def test_chase_pays_no_concept_closure_per_element(monkeypatch, employees):
    # Each stage closes its seed columns, one per concept, not its elements:
    # a hundredfold longer run reads the TBox as often.
    k, _ = employees
    calls = []
    entailed = TBox.concepts_entailed_by

    def counting(self, c):
        calls.append(c)
        return entailed(self, c)

    monkeypatch.setattr(TBox, "concepts_entailed_by", counting)
    counts = []
    for n in (5, 500):
        calls.clear()
        union = chase(BagOntology(k.tbox, parse_abox(f"Emp(Lee) {n}\nMngr(Hill) 2\n")), 5).union
        assert len(union.anonymous()) >= n
        counts.append(len(calls))
    assert counts[0] == counts[1] == 3


# dump_chase texts committed under tests/golden/, as (name, depth), with each
# witness written as its whole ancestry; the self-feeding chain grows one
# witness per stage.
GOLDEN_DUMPS = [("employees", 3), ("managers", 3), ("prime", 3), ("prime_pair", 3),
                ("self_feeding", 6), ("wide_abox", 3)]
SELF_FEEDING = ("A SUB EX R\nEX R- SUB A\n", "A(a) 2\nR(a,b)\nR(b,a)\n")
# Inverse roles, ten-plus witnesses in a run and multi-digit multiplicities,
# which the golden dumps do not print.
INVERSE_RUNS = ("A SUB EX R-\nEX R SUB B\nB SUB EX S\n", "A(a) 15\nR(b,a) 3\nS(a,b) 107\n")


def _dump_ontology(fixtures_dir, name) -> BagOntology:
    inline = {"self_feeding": SELF_FEEDING, "inverse_runs": INVERSE_RUNS}
    tbox, abox = inline.get(name) or (
        (fixtures_dir / name / f).read_text() for f in ("tbox.dl", "abox.bag"))
    return BagOntology(parse_tbox(tbox), parse_abox(abox))


@pytest.mark.parametrize("name,depth", GOLDEN_DUMPS)
def test_dump_matches_golden_file(fixtures_dir, name, depth):
    expected = (GOLDEN / f"{name}.depth{depth}.txt").read_text()
    assert expand_dump(dump_chase(chase(_dump_ontology(fixtures_dir, name), depth))) == expected


def _assert_dump_defines_each_witness_once(union):
    # Expanding the ids gives the facts with every witness as its whole
    # ancestry; `expand_dump` asserts the definitions' order and parents.
    text = union.to_text()
    assert sum(line.startswith("@") for line in text.splitlines()) == len(union.anonymous())
    assert expand_dump(text) == reference_dump(union)
    return text


@pytest.mark.parametrize("name,depth", GOLDEN_DUMPS + [("inverse_runs", 4)])
def test_dump_defines_each_witness_once(fixtures_dir, name, depth):
    text = _assert_dump_defines_each_witness_once(
        chase(_dump_ontology(fixtures_dir, name), depth).union)
    assert name != "inverse_runs" or "_w(a,R-,12)" in expand_dump(text)


def test_dump_of_random_chases_defines_each_witness_once():
    rng = random.Random(24)
    cases = [(BagOntology(*random_instance(rng)[:2]), 3) for _ in range(300)]
    cases += [(BagOntology(parse_tbox(t), parse_abox(a)), 5) for t, a in HAND_BUILT.values()]
    for k, depth in cases:
        _assert_dump_defines_each_witness_once(chase(k, depth).union)


def test_dump_grows_linearly_with_depth():
    # Five self-feeding chains: each stage adds five witnesses, and each adds
    # three lines of bounded length, so equal steps in depth add about equal
    # bytes (ids gain a digit now and then). Written as whole ancestries, the
    # steps would grow as 1 : 3 : 5.
    k = BagOntology(parse_tbox(SELF_FEEDING[0]), parse_abox("A(a) 5\n"))
    sizes = [len(chase(k, depth).union.to_text()) for depth in (1_000, 2_000, 3_000)]
    assert (sizes[2] - sizes[1]) / (sizes[1] - sizes[0]) <= 1.2
    assert sizes[2] < 1_000_000


def _root_down_path(el):
    """A witness's depth, its name, then (role, inverted, index) per level."""
    steps = []
    while type(el) is Anon:
        steps.append((el.role.name, el.role.inverted, el.index))
        el = el.parent
    return len(steps), el, steps[::-1]


def test_anonymous_sorts_witnesses_by_their_root_down_path():
    rng = random.Random(30)
    for _ in range(50):
        union = chase(BagOntology(*random_instance(rng)[:2]), 3).union
        witnesses = [el for el in union.domain if type(el) is Anon]
        assert union.anonymous() == sorted(witnesses, key=_root_down_path)


def test_a_witness_without_its_parent_is_outside_the_domain():
    parent = Anon("a", Role("R"), 1)
    BagInterpretation(["a", parent, Anon(parent, Role("S"), 1)], {}, {})
    with pytest.raises(ValueError, match="without its parent"):
        BagInterpretation(["a", Anon(parent, Role("S"), 1)], {}, {})
