import random

import pytest

from bago import (
    AnswerBag,
    ArityMismatch,
    BagoError,
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
    rewrite,
)
from bago import bagalg
from bago.errors import combine
from bago.bagalg import (
    BalgArithUnion,
    BalgAtom,
    BalgDiff,
    BalgEqFilter,
    BalgJoin,
    BalgMaxUnion,
    BalgProject,
    parse_answer_tuple,
    to_sexpr,
)
from bago.query import Const, InequalityAtom, RoleAtom, Var

from generators import random_balg, random_interp, random_small_cq, rewriting_corpus
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
    assert bag_ops("arith-union", b2, b3) == AnswerBag(1, {("a",): 5})
    assert bag_ops("difference", b2, b3) == AnswerBag(1)
    assert bag_ops("difference", b3, b2) == AnswerBag(1, {("a",): 1})
    assert bag_ops("intersection", AnswerBag(1, {("a",): 2, ("b",): 1}), b3) == b2
    assert bag_ops("max-union", b2, b3) == b3
    # disjoint supports: a key on one side survives each union and a
    # difference from the left, and never survives an intersection
    a2, b1 = AnswerBag(1, {("a",): 2}), AnswerBag(1, {("b",): 1})
    both = AnswerBag(1, {("a",): 2, ("b",): 1})
    assert bag_ops("max-union", a2, b1) == both
    assert bag_ops("arith-union", a2, b1) == both
    assert bag_ops("difference", a2, b1) == a2
    assert bag_ops("difference", AnswerBag(1), b1) == AnswerBag(1)
    assert bag_ops("intersection", a2, b1) == AnswerBag(1)
    with pytest.raises(ArityMismatch):
        bag_ops("difference", b2, AnswerBag(2))
    with pytest.raises(ValueError):
        bag_ops("xor", b2, b3)


def test_combine_returns_a_new_map_without_zero_entries():
    # A union copies its larger operand; a zero entry on either side must
    # not survive it, and neither operand may change.
    big, small = {"a": 2, "b": 0, "c": 1}, {"a": 3, "d": 0}
    for op, expected in (("max-union", {"a": 3, "c": 1}), ("arith-union", {"a": 5, "c": 1})):
        for a, b in ((big, small), (small, big)):
            out = combine(op, a, b)
            assert out == expected and out is not a and out is not b
    assert big == {"a": 2, "b": 0, "c": 1} and small == {"a": 3, "d": 0}
    # The unions fold any number of maps, none included.
    assert combine("arith-union", big, small, small) == {"a": 8, "c": 1}
    assert combine("max-union", small) == {"a": 3} and combine("max-union") == {}


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


def test_rewritings_round_trip_and_mutants_parse_or_fail_cleanly():
    texts = []
    for rw in rewriting_corpus():
        text = to_sexpr(rw.combined)
        assert parse_balg(text) == rw.combined
        texts.append(text)
    # Each mutant has one to three characters deleted, inserted or doubled;
    # it reads as a tree that prints back to itself, or fails as a BagoError.
    rng = random.Random(29)
    parsed = 0
    for _ in range(2_000):
        text = rng.choice(texts)
        for _ in range(rng.randint(1, 3)):
            i = rng.randrange(len(text) + 1)
            edit = rng.choice(("delete", "insert", "double"))
            if edit == "insert":
                text = text[:i] + rng.choice('()" xyz_aA#\n') + text[i:]
            elif i < len(text):
                text = text[:i] + (text[i] * 2 if edit == "double" else "") + text[i + 1:]
        try:
            node = parse_balg(text)
        except BagoError:
            continue
        assert parse_balg(to_sexpr(node)) == node
        parsed += 1
    assert 0 < parsed < 2_000


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
    # Only answers are held to 64 bits: an intermediate value past U64_MAX
    # that cancels, or is multiplied by zero, is no overflow.
    u = BalgArithUnion(BalgAtom("A", (x,)), BalgAtom("A", (x,)))
    assert eval_balg(BalgDiff(u, u), parse_abox(f"A(a) {huge}\n")) == AnswerBag(1)
    u64_max = 2**64 - 1
    abox = parse_abox(f"S(a,y1) {huge}\nA(y1) {huge}\n"  # y1 weighs 2^126 until C(y1) = 0
                      f"S(a,y2) {u64_max}\nA(y2)\nC(y2)\nC(b)\nC(c)\n")
    q = parse_cq("q(x) :- S(x,y), A(y), C(y)")
    assert eval_cq(q, interpretation_from_abox(abox)) == AnswerBag(1, {("a",): u64_max})


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


# -- corner cases of the compiled evaluator ------------------------------------

def _corner_interp():
    """Three names and two witnesses, with self-loops on names and witnesses."""
    from bago.chase import Anon, BagInterpretation
    from bago.ontology import Role

    w1 = Anon("a", Role("R"), 1)
    w2 = Anon(w1, Role("R"), 1)
    return BagInterpretation(
        {"a", "b", "c", w1, w2},
        {"A": {"a": 2, w1: 3}, "B": {"b": 1, "c": 4, w2: 2}},
        {
            "R": {("a", "a"): 2, ("a", "b"): 3, ("b", "b"): 1, ("a", w1): 1,
                  (w1, w1): 5, (w1, w2): 1},
            "S": {("a", "a"): 2, ("a", "b"): 3, ("b", "b"): 5, (w1, w1): 1,
                  ("c", "a"): 2},
        },
    )


@pytest.mark.parametrize("text", [
    # a variable repeated inside one atom only after equality resolution
    "q(x0) :- S(x0, y0), x0 = y0",
    "q() :- S(x0, y0), x0 = y0",
    "q(x0) :- A(y0), S(x0, y0), x0 = y0",
    "q(x0) :- R(x0, y0), S(y0, z0), y0 = z0",
    # self-loops, bound first or reached through another atom
    "q(x) :- R(x, x)",
    "q() :- R(y, y)",
    "q(x) :- R(x, y), R(y, y)",
    "q(x) :- R(y, x), R(y, y), B(x)",
    # constants at both role positions, holding or not
    'q() :- R("a", "b")',
    'q(x) :- A(x), R("a", "b")',
    'q(x) :- A(x), R("b", "a")',
    'q(x) :- S(x, "a"), R("a", "b"), x = "c"',
    # repeated atoms
    "q(x) :- R(x, y), R(x, y)",
    "q(x, y) :- S(x, y), S(x, y), S(y, y)",
    "q() :- B(y), B(y), R(z, y)",
    # components disconnected from the answer variables
    "q(x) :- A(x), R(y, z), B(z)",
    "q(x) :- S(x, u), R(y, z), B(z), A(v)",
    "q(x, w) :- S(x, y), R(w, v), R(u, u)",
    # answer variables reached through an existential variable
    "q(x, w) :- R(x, y), R(y, w)",
    "q(w) :- R(y, w), S(y, x), B(x)",
])
def test_eval_cq_corner_cases_match_brute_force(text):
    interp = _corner_interp()
    q = parse_cq(text)
    assert dict(eval_cq(q, interp).items()) == brute_eval_cq(q, interp)


def test_eval_cq_neq_corner_cases_match_brute_force():
    interp = _corner_interp()
    u, v, w = Var("u"), Var("v"), Var("w")
    cases = [
        ((x,), [RoleAtom("R", x, y), RoleAtom("R", x, z), InequalityAtom(y, z)]),
        ((), [RoleAtom("R", y, z), InequalityAtom(z, Const("a"))]),
        ((x,), [RoleAtom("S", x, y), InequalityAtom(x, y)]),  # answer slot vs the rest
        # an inequality across two otherwise disconnected components
        ((), [RoleAtom("R", y, z), RoleAtom("S", u, v), InequalityAtom(z, v)]),
        ((x,), [RoleAtom("R", x, y), InequalityAtom(y, y)]),  # never holds
        ((), [RoleAtom("R", y, z), InequalityAtom(Const("a"), Const("b"))]),  # always holds
        ((), [RoleAtom("R", y, z), InequalityAtom(Const("a"), Const("a"))]),  # never holds
        ((x, w), [RoleAtom("R", x, y), RoleAtom("R", w, z), InequalityAtom(x, w),
                  InequalityAtom(y, z)]),
    ]
    for head, atoms in cases:
        q = CQ(head, atoms, allow_inequalities=True)
        assert dict(eval_cq_neq(q, interp).items()) == brute_eval_cq(q, interp), q


def test_eval_partitioned_corner_cases_match_brute_force():
    from itertools import combinations

    from bago.chase import ChaseResult

    interp = _corner_interp()
    result = ChaseResult((interp,), 0)
    for text in ("q(x) :- R(x, y), R(y, z), B(z)",
                 "q(x) :- R(x, y), R(y, y)",
                 "q() :- R(y, z), A(y), y = z",
                 "q(x) :- A(x), R(y, z), S(z, u)"):
        q = parse_cq(text)
        existential = q.existential_vars()
        for size in range(1, len(existential) + 1):
            for combo in combinations(existential, size):
                got = dict(eval_partitioned(q, combo, result).items())
                assert got == brute_eval_cq(q, interp, z_anon=combo), (text, combo)


# -- shared evaluation of positionally equal subterms ---------------------------

def _subterms(node):
    stack, out = [node], []
    while stack:
        n = stack.pop()
        out.append(n)
        if isinstance(n, (BalgJoin, BalgMaxUnion, BalgArithUnion, BalgDiff)):
            stack += (n.left, n.right)
        elif not isinstance(n, BalgAtom):
            stack.append(n.child)
    return out


def _renamed(node, names):
    """node with every variable mapped through `names`, an injective map."""
    def term(t):
        return names.get(t, t)

    if isinstance(node, BalgAtom):
        return BalgAtom(node.predicate, tuple(map(term, node.terms)))
    if isinstance(node, BalgEqFilter):
        return BalgEqFilter(_renamed(node.child, names), term(node.var), term(node.term))
    if isinstance(node, BalgProject):
        return BalgProject(tuple(map(term, node.projected)), _renamed(node.child, names))
    return type(node)(_renamed(node.left, names), _renamed(node.right, names))


def _replaced(node, old, new):
    if node is old:
        return new
    if isinstance(node, BalgAtom):
        return node
    if isinstance(node, BalgEqFilter):
        return BalgEqFilter(_replaced(node.child, old, new), node.var, node.term)
    if isinstance(node, BalgProject):
        return BalgProject(node.projected, _replaced(node.child, old, new))
    return type(node)(_replaced(node.left, old, new), _replaced(node.right, old, new))


def _grafted(rng, root):
    """root with one subterm s replaced by an operation on s and a copy of s
    whose bound variables are renamed apart and whose answer variables are
    permuted (a union or difference) or renamed apart (a join with its count)."""
    s = rng.choice(_subterms(root))
    free = list(s.answer_vars)
    bound = sorted({t for n in _subterms(s) for t in getattr(n, "terms", ())
                    if isinstance(t, Var)} - set(free), key=str)
    names = {v: Var(f"_z{i}") for i, v in enumerate(bound)}
    if rng.random() < 0.5:
        names.update(zip(free, rng.sample(free, len(free))))
        op = rng.choice((BalgMaxUnion, BalgArithUnion, BalgDiff))
        graft = op(s, _renamed(s, names))
    else:
        names.update((v, Var(f"_f{i}")) for i, v in enumerate(free))
        copy = _renamed(s, names)
        graft = BalgJoin(s, BalgProject(copy.answer_vars, copy) if free else copy)
    return _replaced(root, s, graft)


def test_grafted_renamed_copies_match_brute_force():
    rng = random.Random(47)
    saved = 0
    for i in range(80):
        interp = random_interp(rng, allow_anon=(i % 2 == 0))
        node = _grafted(rng, random_balg(rng))
        assert dict(eval_balg(node, interp).items()) == brute_eval_balg(node, interp)
        ops = bagalg._plan(node)[0]
        saved += len(_subterms(node)) - len(ops)
    assert saved > 80  # the copies do share operations


# Pairs whose variable names coincide but whose positions differ: sharing one
# for the other would change the answer of the tree built around them.
_R, _A = BalgAtom("R", (x, y)), BalgAtom("A", (x,))


@pytest.mark.parametrize("build, p, q", [
    (BalgJoin, _R, BalgAtom("R", (y, x))),
    (BalgJoin, BalgAtom("R", (x, x)), _R),
    (BalgArithUnion, BalgEqFilter(_A, x, Const("a")), BalgEqFilter(_A, x, Const("b"))),
    (BalgArithUnion, BalgEqFilter(_R, x, y), BalgEqFilter(BalgProject((y,), _R), x, y)),
    (BalgArithUnion, _A, BalgProject((y,), BalgAtom("A", (x, y)))),
    (BalgDiff, BalgArithUnion(_R, _R), BalgArithUnion(_R, BalgAtom("R", (y, x)))),
    # The subtrahend reads the union's leaf in swapped columns: not absorbed.
    (lambda p, q: BalgDiff(BalgMaxUnion(p, BalgAtom("A", (x, y))), q), _R, BalgAtom("R", (y, x))),
], ids=["swapped-join", "repeated-variable", "two-constants", "compare-vs-append",
        "concept-vs-role", "union-order", "swapped-subtrahend"])
def test_positionally_different_subterms_are_not_shared(build, p, q):
    abox = parse_abox("R(a,b) 2\nR(b,a) 3\nR(a,a) 5\nR(b,c) 7\n"
                      "A(a) 2\nA(b) 3\nA(a,c) 4\n")
    interp = interpretation_from_abox(abox)
    node = build(p, q)
    expected = brute_eval_balg(node, interp)
    assert expected != brute_eval_balg(build(p, p), interp)
    assert dict(eval_balg(node, abox).items()) == expected


def _role_projection(role, var, kept):
    """The role's first column, `kept`, summed over its second, `var`."""
    return BalgProject((var,), BalgAtom(role, (kept, var)))


# Shapes the plan folds or runs as a keyed semi-join, each against the oracle.
_FOLDED = {
    "absorbed-subtrahend": BalgDiff(
        BalgMaxUnion(BalgMaxUnion(_A, _role_projection("R", y, x)), _role_projection("S", y, x)),
        _role_projection("R", z, x)),
    "nothing-left": BalgDiff(BalgMaxUnion(_A, BalgAtom("A", (x,))), BalgAtom("A", (x,))),
    "arith-chain-repeats-a-leaf": BalgArithUnion(
        BalgArithUnion(BalgArithUnion(_A, _role_projection("R", y, x)), _A),
        _role_projection("R", z, x)),
    "max-chain-repeats-a-leaf": BalgMaxUnion(
        BalgMaxUnion(_R, BalgAtom("S", (x, y))), BalgMaxUnion(BalgAtom("R", (x, y)), _R)),
    "swapped-semi-join": BalgJoin(BalgAtom("S", (x, y)), BalgAtom("R", (y, x))),
    "self-join": BalgJoin(_R, _R),
    "nullary-right": BalgJoin(_A, BalgProject((x, y), BalgAtom("S", (x, y)))),
}


@pytest.mark.parametrize("name", list(_FOLDED))
def test_folded_plans_match_brute_force(name):
    abox = parse_abox("R(a,b) 2\nR(b,a) 3\nR(a,a) 5\nR(b,c) 7\nS(b,a) 4\nS(c,c) 1\n"
                      "A(a) 2\nA(b) 3\nA(c) 6\n")
    node = _FOLDED[name]
    expected = brute_eval_balg(node, interpretation_from_abox(abox))
    assert dict(eval_balg(node, abox).items()) == expected
    ops, inputs, uses = bagalg._plan(node)
    unions = [inputs[j] for j, op in enumerate(ops) if uses[j] and op[0] == "max-union"]
    if name == "absorbed-subtrahend":
        # One max-union runs, over A and the S leaf: the R leaf, which the
        # subtrahend equals up to its variable's name, is dropped.
        r_out = ops.index(("project", ops.index(("atom", "R", 0, 1)), 0))
        assert len(unions) == 1 and len(unions[0]) == 2 and r_out not in unions[0]
    if name == "max-chain-repeats-a-leaf":  # one union, over R and S once each
        assert [len(leaves) for leaves in unions] == [2]
    if name == "nothing-left":  # the union's one leaf is the subtrahend
        assert unions == [[]] and inputs[-1][1] == ops.index(("atom", "A", 0))


def _counted_evaluation(monkeypatch, rw):
    """(operations run, atom scans) of evaluating rw over a small ABox."""
    calls = []
    apply = bagalg._apply

    def counting(op, results, rels):
        calls.append(op[0])
        return apply(op, results, rels)

    monkeypatch.setattr(bagalg, "_apply", counting)
    eval_balg(rw.combined, parse_abox("A(a) 1\nR(a,b) 2\nS(b,c) 1\nB(c) 1\n"))
    return len(calls), calls.count("atom")


def test_each_distinct_positional_operation_runs_once(monkeypatch):
    chain = "A SUB EX R\nEX R- SUB B\nB SUB EX S\nEX S- SUB B\nC SUB A\n"
    rw = rewrite(parse_cq("q(x) :- R(x, y), S(y, z), B(z)"), parse_tbox(chain))
    # 39 tree nodes with 15 atoms over 5 predicates make 24 distinct
    # operations. Three are inner unions that the chains reading them fold in.
    assert _counted_evaluation(monkeypatch, rw) == (21, 5)
    star = ", ".join(f"R(x, y{i})" for i in range(1, 9))
    rw = rewrite(parse_cq(f"q(x) :- {star}"), parse_tbox("A SUB EX R\nEX R- SUB A\n"))
    assert _counted_evaluation(monkeypatch, rw)[1] == 2


def test_order_is_connected_first():
    # An atom that shares no slot with the atoms placed before it starts a
    # new component, which the compiler may do only when no unplaced atom is
    # joined to the placed ones: else it enumerates a cross product.
    rng = random.Random(53)
    for _ in range(1000):
        n = rng.randint(1, 8)
        free = [set(rng.sample(range(6), rng.randint(0, 2))) for _ in range(n)]
        preferred = set(rng.sample(range(6), rng.randint(0, 6)))
        sizes = [rng.randint(0, 5) for _ in range(n)]
        order = bagalg._order(free, preferred, sizes)
        assert sorted(order) == list(range(n)), (free, order)
        seen: set[int] = set()
        for k, i in enumerate(order):
            if seen.isdisjoint(free[i]):
                rest = order[k + 1:]
                assert all(seen.isdisjoint(free[a]) for a in rest), (free, preferred, sizes, order)
            seen |= free[i]
