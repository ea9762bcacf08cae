import random

import pytest

from bago import (
    AnswerBag,
    ArityMismatch,
    BagOntology,
    CQ,
    IllFormedQuery,
    MultiplicityOverflow,
    bag_ops,
    chase,
    eval_balg,
    eval_cq,
    eval_cq_neq,
    eval_partitioned,
    interpretation_from_abox,
    parse_abox,
    parse_balg,
    parse_cq,
    parse_tbox,
    required_depth,
)
from bago.bagalg import (
    BalgArithUnion,
    BalgAtom,
    BalgDiff,
    BalgEqFilter,
    BalgJoin,
    BalgMaxUnion,
    BalgProject,
    bag_arith_union,
    bag_diff,
    bag_intersect,
    bag_max_union,
    parse_answer_tuple,
    to_sexpr,
)
from bago.query import Const, InequalityAtom, RoleAtom, Var

from generators import random_balg, random_interp, random_small_cq
from oracles import brute_eval_balg, brute_eval_cq

x, y, z = Var("x"), Var("y"), Var("z")


def test_eval_running_example(employees):
    k, q = employees
    union = chase(k, 1).union
    assert eval_cq(q, union) == AnswerBag(1, {("Lee",): 3})


def test_eval_non_rooted_on_canonical_and_alternative(managers):
    k, _, q_nr = managers
    assert eval_cq(q_nr, chase(k, 2).union) == AnswerBag(0, {(): 2})
    i_nr = interpretation_from_abox(
        parse_abox("Emp(Lee)\nhasMngr(Lee,Hill)\nMngr(Hill)\n")
    )
    assert eval_cq(q_nr, i_nr) == AnswerBag(0, {(): 1})


def test_eval_prime_fixture(prime):
    k, q = prime
    result = chase(k, required_depth(q))
    assert eval_cq(q, result.union) == AnswerBag(1, {("a",): 7})


def test_answers_range_over_individuals_only(managers):
    k, _, _ = managers
    q = parse_cq("q(x, y) :- hasMngr(x, y)")
    # the only manager edge ends in an anonymous element
    assert eval_cq(q, chase(k, 2).union) == AnswerBag(2)


def test_eval_with_inequalities():
    interp = interpretation_from_abox(parse_abox("R(a,a) 1\nR(a,b) 2\n"))
    q = CQ(
        (),
        (RoleAtom("R", Const("a"), z), InequalityAtom(z, Const("a"))),
        allow_inequalities=True,
    )
    assert eval_cq_neq(q, interp) == AnswerBag(0, {(): 2})
    no_neq = CQ((), (RoleAtom("R", Const("a"), z),))
    assert eval_cq_neq(no_neq, interp) == eval_cq(no_neq, interp)


def test_eval_partitioned_examples(managers, prime):
    k, q_r, _ = managers
    result = chase(k, 2)
    assert eval_partitioned(q_r, {y}, result) == AnswerBag(1, {("Lee",): 1})
    assert eval_partitioned(q_r, set(), result) == AnswerBag(1)

    k_p, q_p = prime
    res_p = chase(k_p, required_depth(q_p))
    parts = [
        eval_partitioned(q_p, zs, res_p)
        for zs in (set(), {y})
    ]
    whole = eval_cq(q_p, res_p.union)
    assert bag_ops("arith-union", *parts) == whole
    assert parts[0] == AnswerBag(1, {("a",): 6})
    assert parts[1] == AnswerBag(1, {("a",): 1})


def test_eval_partitioned_empty_when_no_anonymous():
    k = BagOntology(parse_tbox(""), parse_abox("R(a,b)\n"))
    q = parse_cq("q() :- R(x, y)")
    result = chase(k, 2)
    assert eval_partitioned(q, {Var("x"), Var("y")}, result) == AnswerBag(0)


def test_bag_ops_examples():
    b2 = AnswerBag(1, {("a",): 2})
    b3 = AnswerBag(1, {("a",): 3})
    assert bag_arith_union(b2, b3) == AnswerBag(1, {("a",): 5})
    assert bag_diff(b2, b3) == AnswerBag(1)
    assert bag_diff(b3, b2) == AnswerBag(1, {("a",): 1})
    assert bag_intersect(AnswerBag(1, {("a",): 2, ("b",): 1}), b3) == b2
    assert bag_max_union(b2, b3) == b3
    # disjoint supports: a key on one side survives each union and a
    # difference from the left, and never survives an intersection
    a2, b1 = AnswerBag(1, {("a",): 2}), AnswerBag(1, {("b",): 1})
    both = AnswerBag(1, {("a",): 2, ("b",): 1})
    assert bag_max_union(a2, b1) == both
    assert bag_arith_union(a2, b1) == both
    assert bag_diff(a2, b1) == a2
    assert bag_diff(AnswerBag(1), b1) == AnswerBag(1)
    assert bag_intersect(a2, b1) == AnswerBag(1)
    with pytest.raises(ArityMismatch):
        bag_ops("difference", b2, AnswerBag(2))
    with pytest.raises(ValueError):
        bag_ops("xor", b2, b3)


def test_eval_balg_reference_branches(managers):
    k, _, _ = managers
    stage0 = interpretation_from_abox(k.abox)
    branch_empty = parse_balg(
        "(project (y) (join (atom hasMngr x y)"
        " (max-union (atom Mngr y) (project (z) (atom hasMngr z y)))))"
    )
    assert eval_balg(branch_empty, stage0) == AnswerBag(1)
    branch_y = parse_balg(
        "(diff (max-union (atom Emp x) (project (y) (atom hasMngr x y)))"
        " (project (y) (atom hasMngr x y)))"
    )
    assert eval_balg(branch_y, stage0) == AnswerBag(1, {("Lee",): 1})


def test_eval_balg_self_operations():
    interp = interpretation_from_abox(parse_abox("A(a) 2\nA(b) 5\n"))
    atom = BalgAtom("A", (x,))
    assert eval_balg(BalgDiff(atom, atom), interp) == AnswerBag(1)
    assert eval_balg(BalgMaxUnion(atom, atom), interp) == eval_balg(atom, interp)
    doubled = eval_balg(BalgArithUnion(atom, atom), interp)
    assert doubled == AnswerBag(1, {("a",): 4, ("b",): 10})


def test_balg_side_conditions():
    atom_x = BalgAtom("A", (x,))
    atom_y = BalgAtom("A", (y,))
    with pytest.raises(IllFormedQuery):
        BalgMaxUnion(atom_x, atom_y)
    with pytest.raises(IllFormedQuery):
        BalgDiff(atom_x, BalgAtom("R", (x, y)))
    with pytest.raises(IllFormedQuery):
        BalgEqFilter(atom_x, y, x)
    with pytest.raises(IllFormedQuery):
        BalgProject((y,), atom_x)
    with pytest.raises(IllFormedQuery):
        BalgAtom("R", (x, y, z))
    join = BalgJoin(atom_x, BalgAtom("R", (x, y)))
    assert join.answer_vars == (x, y)


def test_eqfilter_introduces_new_variable():
    interp = interpretation_from_abox(parse_abox("A(a) 2\n"))
    node = BalgEqFilter(BalgAtom("A", (x,)), x, y)
    assert node.answer_vars == (x, y)
    assert eval_balg(node, interp) == AnswerBag(2, {("a", "a"): 2})
    pinned = BalgEqFilter(BalgAtom("A", (x,)), x, Const("a"))
    assert eval_balg(pinned, interp) == AnswerBag(1, {("a",): 2})


def test_sexpr_round_trip():
    rng = random.Random(9)
    for _ in range(100):
        node = random_balg(rng)
        assert parse_balg(to_sexpr(node)) == node


def test_answer_tuple_parsing():
    assert parse_answer_tuple("(Lee,Hill)") == ("Lee", "Hill")
    assert parse_answer_tuple("( Lee )") == ("Lee",)
    assert parse_answer_tuple("()") == ()
    with pytest.raises(Exception):
        parse_answer_tuple("Lee")


def test_answer_bag_text_format():
    bag = AnswerBag(2, {("b", "a"): 2, ("a", "b"): 1})
    assert bag.to_text() == "(a,b) 1\n(b,a) 2\n"
    assert AnswerBag(1).to_text() == "EMPTY\n"
    assert AnswerBag(0, {(): 3}).to_text() == "() 3\n"


def test_multiplicity_overflow_is_reported():
    huge = 2**63
    interp = interpretation_from_abox(
        parse_abox(f"A(a) {huge}\nB(a) {huge}\n")
    )
    q = parse_cq("q(x) :- A(x), B(x)")
    with pytest.raises(MultiplicityOverflow):
        eval_cq(q, interp)
    node = BalgJoin(BalgAtom("A", (x,)), BalgAtom("B", (x,)))
    with pytest.raises(MultiplicityOverflow):
        eval_balg(node, interp)


def test_repeated_atom_squares_contribution():
    interp = interpretation_from_abox(parse_abox("A(a) 3\n"))
    single = parse_cq("q(x) :- A(x)")
    doubled = parse_cq("q(x) :- A(x), A(x)")
    assert eval_cq(single, interp).get(("a",)) == 3
    assert eval_cq(doubled, interp).get(("a",)) == 9


def test_eval_cq_matches_brute_force():
    rng = random.Random(42)
    for _ in range(200):
        interp = random_interp(rng)
        q = random_small_cq(rng)
        assert dict(eval_cq(q, interp).items()) == brute_eval_cq(q, interp)


def test_eval_balg_matches_brute_force():
    rng = random.Random(43)
    for i in range(200):
        interp = random_interp(rng, allow_anon=(i % 2 == 0))
        node = random_balg(rng)
        assert dict(eval_balg(node, interp).items()) == brute_eval_balg(node, interp)


def test_eval_balg_over_abox_matches_its_stage_zero():
    from bago.randgen import random_bag_abox

    rng = random.Random(45)
    for _ in range(200):
        abox = random_bag_abox(rng)
        node = random_balg(rng)
        assert eval_balg(node, abox) == eval_balg(node, interpretation_from_abox(abox))


def test_concept_and_role_of_one_name_stay_separate():
    abox = parse_abox("A(a) 2\nA(a,b) 3\n")
    for source in (abox, interpretation_from_abox(abox)):
        assert eval_balg(BalgAtom("A", (x,)), source) == AnswerBag(1, {("a",): 2})
        assert eval_balg(BalgAtom("A", (x, y)), source) == AnswerBag(2, {("a", "b"): 3})


def test_eval_partitioned_matches_brute_force_over_chase_stages():
    from itertools import combinations

    from bago.randgen import random_instance

    rng = random.Random(44)
    for _ in range(40):
        tbox, abox, q = random_instance(rng)
        result = chase(BagOntology(tbox, abox), required_depth(q))
        if len(result.union.domain) > 10:
            continue  # keep the full enumeration cheap
        existential = q.existential_vars()
        for size in range(len(existential) + 1):
            for combo in combinations(existential, size):
                got = dict(eval_partitioned(q, combo, result).items())
                assert got == brute_eval_cq(q, result.union, z_anon=combo)
