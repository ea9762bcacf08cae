import importlib
import importlib.util
import pathlib
import random
from itertools import combinations

import pytest

from bago import (
    AnswerBag,
    BagOntology,
    CQ,
    MultipleAnchors,
    NotRooted,
    UnsupportedTBoxKind,
    build_probe,
    certain_answers,
    chase,
    chase_back,
    collapse,
    eval_cq,
    evaluate_rewriting,
    is_realisable,
    parse_abox,
    parse_cq,
    parse_tbox,
    required_depth,
    rewrite,
)
from bago.chase import BagInterpretation
from bago.bagalg import (
    BalgArithUnion,
    BalgAtom,
    BalgDiff,
    BalgJoin,
    BalgMaxUnion,
    BalgProject,
    to_sexpr,
)
from bago.errors import RewriteLimitExceeded
from bago.ontology import BagABox, RoleAssertion
from bago.query import ConceptAtom, Const, EqualityAtom, InequalityAtom, RoleAtom, Var
from bago.rewrite import NOT_EQUALITY_CONSISTENT, REALISABLE, UNREALISABLE

from bago.randgen import random_bag_abox

x, y, z = Var("x"), Var("y"), Var("z")
Q_R_TEXT = "q(x) :- hasMngr(x, y), Mngr(y)"


@pytest.fixture()
def t_r(managers):
    return managers[0].tbox


@pytest.fixture()
def q_r():
    return parse_cq(Q_R_TEXT)


def test_build_probe_shape(q_r):
    probe, probe_abox, anchor = build_probe(q_r, {y})
    assert anchor == "_probe_a"
    expected = CQ(
        (),
        (
            RoleAtom("hasMngr", x, y),
            ConceptAtom("Mngr", y),
            EqualityAtom(x, Const("_probe_a")),
            InequalityAtom(y, Const("_probe_a")),
        ),
        allow_inequalities=True,
    )
    assert probe == expected
    assert probe_abox == BagABox({RoleAssertion("hasMngr", "_probe_a", "_probe_b"): 1})


def test_build_probe_reversed_orientation():
    q = parse_cq("q(x) :- P(y, x), A(y)")
    probe, probe_abox, anchor = build_probe(q, {y})
    assert probe_abox == BagABox({RoleAssertion("P", "_probe_b", "_probe_a"): 1})
    assert anchor == "_probe_a"


def test_build_probe_uses_linked_individual_as_anchor():
    q = parse_cq('q() :- R("a", y), B(y)')
    probe, probe_abox, anchor = build_probe(q, {y})
    assert anchor == "a"
    assert probe_abox == BagABox({RoleAssertion("R", "a", "_probe_b"): 1})


def test_build_probe_multiple_anchors():
    q = parse_cq('q() :- R("a", y), S("b", y)')
    with pytest.raises(MultipleAnchors):
        build_probe(q, {y})


def test_realisability_of_example_subsets(t_r, q_r):
    empty = is_realisable(t_r, q_r, set())
    assert empty.verdict == REALISABLE and empty.witnesses == ()
    cert = is_realisable(t_r, q_r, {y})
    assert cert.verdict == REALISABLE
    assert cert.witnesses[0].value == 1
    assert cert.witnesses[0].alpha == RoleAtom("hasMngr", x, y)


def test_unrealisable_subset():
    t = parse_tbox("A SUB EX R\n")
    q = parse_cq("q(x) :- R(x, y), B(y)")
    cert = is_realisable(t, q, {y})
    assert cert.verdict == UNREALISABLE
    assert cert.failing == frozenset({y})


def test_not_equality_consistent_verdict(t_r):
    q = parse_cq("q(x) :- hasMngr(x, y), y = x")
    cert = is_realisable(t_r, q, {y})
    assert cert.verdict == NOT_EQUALITY_CONSISTENT


def test_multiple_anchor_subset_is_unrealisable(t_r):
    q = parse_cq('q() :- hasMngr("a", y), hasMngr("b", y)')
    cert = is_realisable(t_r, q, {y})
    assert cert.verdict == UNREALISABLE


def test_is_realisable_requires_core(q_r):
    with pytest.raises(UnsupportedTBoxKind):
        is_realisable(parse_tbox("KIND R\nR SUBR S\n"), q_r, {y})


def test_collapse_examples(q_r):
    assert collapse(q_r, {y}) == parse_cq("q(x) :- hasMngr(x, y)")
    assert collapse(q_r, set()) == q_r
    q = parse_cq("q(x) :- R(y1, z), R(y2, z), S(x, y1), S(x, y2)")
    collapsed = collapse(q, {z})
    expected = CQ(
        (x,),
        (
            RoleAtom("R", Var("y1"), z),
            EqualityAtom(Var("y1"), Var("y2")),
            RoleAtom("S", x, Var("y1")),
            RoleAtom("S", x, Var("y2")),
        ),
    )
    assert collapsed == expected


def test_collapse_keeps_atom_multiplicity_outside_cluster():
    q = parse_cq("q(x) :- A(x), A(x), R(x, y), Mngr(y)")
    collapsed = collapse(q, {y})
    assert collapsed == parse_cq("q(x) :- A(x), A(x), R(x, y)")


def _branch_empty_ast(fresh="_z1"):
    f = Var(fresh)
    return BalgProject(
        (y,),
        BalgJoin(
            BalgAtom("hasMngr", (x, y)),
            BalgMaxUnion(
                BalgAtom("Mngr", (y,)),
                BalgProject((f,), BalgAtom("hasMngr", (f, y))),
            ),
        ),
    )


def _branch_y_ast(fresh1="_z1", fresh2="_z2"):
    f1, f2 = Var(fresh1), Var(fresh2)
    return BalgDiff(
        BalgMaxUnion(
            BalgAtom("Emp", (x,)),
            BalgProject((f1,), BalgAtom("hasMngr", (x, f1))),
        ),
        BalgProject((f2,), BalgAtom("hasMngr", (x, f2))),
    )


def test_chase_back_reference_shapes(t_r, q_r):
    assert chase_back(q_r, set(), t_r) == _branch_empty_ast()
    assert chase_back(collapse(q_r, {y}), {y}, t_r) == _branch_y_ast()


def test_chase_back_without_axioms_keeps_plain_atoms():
    t = parse_tbox("")
    q = parse_cq("q(x) :- R(x, y), S(y, x)")
    node = chase_back(q, set(), t)
    assert node == BalgProject(
        (y,), BalgJoin(BalgAtom("R", (x, y)), BalgAtom("S", (y, x)))
    )


def test_rewrite_branch_structure(t_r, q_r):
    rw = rewrite(q_r, t_r)
    assert [b.z for b in rw.branches] == [frozenset(), frozenset({y})]
    assert rw.branches[0].collapsed == q_r
    assert rw.branches[1].collapsed == parse_cq("q(x) :- hasMngr(x, y)")
    assert rw.combined == BalgArithUnion(
        _branch_empty_ast(), _branch_y_ast("_z2", "_z3")
    )
    a_r = parse_abox("Emp(Lee)\nMngr(Hill)\n")
    assert evaluate_rewriting(rw, a_r) == AnswerBag(1, {("Lee",): 1})


def test_rewrite_single_branch_is_plain_query():
    rw = rewrite(parse_cq("q(x) :- A(x)"), parse_tbox(""))
    assert len(rw.branches) == 1
    assert rw.combined == BalgAtom("A", (x,))


def test_rewrite_refusals(managers):
    _, _, q_nr = managers
    with pytest.raises(NotRooted):
        rewrite(q_nr, parse_tbox(""))
    with pytest.raises(UnsupportedTBoxKind):
        rewrite(parse_cq("q(x) :- A(x)"), parse_tbox("KIND R\nR SUBR S\n"))


def test_rewrite_variable_guard():
    atoms = [RoleAtom("R", Const("a"), Var("y0"))]
    for i in range(21):
        atoms.append(RoleAtom("R", Var(f"y{i}"), Var(f"y{i + 1}")))
    q = CQ((), atoms)
    with pytest.raises(RewriteLimitExceeded):
        rewrite(q, parse_tbox(""))


def test_prime_fixture_needs_more_than_unions_of_queries(prime):
    k, q = prime
    rw = rewrite(q, k.tbox)
    text = to_sexpr(rw.combined)
    assert "(diff" in text or "(max-union" in text


def test_probe_values_are_exactly_one_for_realisable_subsets():
    rng = random.Random(17)
    from bago.randgen import random_core_tbox, random_rooted_cq

    checked = 0
    for _ in range(60):
        tbox, q = random_core_tbox(rng), random_rooted_cq(rng)
        rw = rewrite(q, tbox)
        for cert in rw.certificates:
            if cert.verdict == REALISABLE:
                for wit in cert.witnesses:
                    assert wit.value == 1
                    checked += 1
    assert checked > 10


def test_choice_independence():
    q = parse_cq("q(x) :- P(x, y), P(z, y), A(z)")
    t = parse_tbox("B SUB EX P\nEX P- SUB C\n")
    default = rewrite(q, t)
    flipped = rewrite(q, t, link_chooser=lambda cands: cands[-1])
    rng = random.Random(23)
    for _ in range(20):
        abox = random_bag_abox(rng)
        assert evaluate_rewriting(default, abox) == evaluate_rewriting(flipped, abox)


def test_pinned_answer_variable_round_trip():
    t = parse_tbox("")
    abox = parse_abox("R(b,c) 2\nR(d,b) 3\n")
    q = parse_cq('q(w) :- R("b", v), w = "b"')
    rw = rewrite(q, t)
    got = evaluate_rewriting(rw, abox)
    want = eval_cq(q, chase(BagOntology(t, abox), required_depth(q)).union)
    assert got == want == AnswerBag(1, {("b",): 2})


def test_constant_linked_cluster_compiles():
    t = parse_tbox("B SUB EX R\n")
    q = parse_cq('q() :- R(y1, "b"), R(y1, y0)')
    abox = parse_abox("R(b,c) 2\nR(d,b) 3\nB(d)\n")
    rw = rewrite(q, t)
    got = evaluate_rewriting(rw, abox)
    want = eval_cq(q, chase(BagOntology(t, abox), required_depth(q)).union)
    assert got == want


def test_empty_branch_for_contradictory_equalities():
    t = parse_tbox("")
    with pytest.warns(UserWarning):
        q = parse_cq('q() :- R("b", v), "b" = "c"')
    rw = rewrite(q, t)
    assert evaluate_rewriting(rw, parse_abox("R(b,c) 5\n")) == AnswerBag(0)


def _subsets_in_order(vars_):
    """Every subset of vars_: by size, then lexicographically by position."""
    ordered = sorted(vars_, key=lambda v: v.name)
    for size in range(len(ordered) + 1):
        for combo in combinations(ordered, size):
            yield frozenset(combo)


@pytest.mark.parametrize("chooser", [None, lambda cands: cands[-1]],
                         ids=["default", "last"])
def test_rewrite_branches_match_per_subset_realisability(chooser):
    from bago.randgen import random_core_tbox, random_rooted_cq

    rng = random.Random(31)
    several = 0
    for i in range(60):
        tbox = random_core_tbox(rng)
        q = random_rooted_cq(rng, max_atoms=6, max_vars=5) if i % 2 else random_rooted_cq(rng)
        rw = rewrite(q, tbox, link_chooser=chooser)
        want = []
        for zset in _subsets_in_order(q.existential_vars()):
            cert = is_realisable(tbox, q, zset, link_chooser=chooser)
            if cert.realisable:
                want.append(cert)
        assert [b.z for b in rw.branches] == [c.z for c in want]
        assert list(rw.certificates[:len(want)]) == want
        assert not any(c.realisable for c in rw.certificates[len(want):])
        several += len(want) > 2
    assert several > 5


QUERY_WIDTH_TBOX = "A SUB EX R\nEX R- SUB A\n"


def test_rewrite_probes_each_cluster_once(monkeypatch):
    # The package re-exports the function `rewrite`, which shadows the module.
    rewrite_mod = importlib.import_module("bago.rewrite")
    real, calls = rewrite_mod.is_realisable, []

    def counted(*args, **kwargs):
        calls.append(args[2])
        return real(*args, **kwargs)

    monkeypatch.setattr(rewrite_mod, "is_realisable", counted)
    t = parse_tbox(QUERY_WIDTH_TBOX)
    path = ", ".join(f"R(y{i}, y{i + 1})" for i in range(12))
    rw = rewrite(parse_cq(f"q(y0) :- {path}"), t)
    assert len(calls) == 78 == len(set(calls))
    assert len(rw.branches) == 13
    calls.clear()
    star = ", ".join(f"R(x, y{i})" for i in range(8))
    rw = rewrite(parse_cq(f"q(x) :- {star}"), t)
    assert len(calls) == 8
    assert len(rw.branches) == 256


def test_rewrite_union_is_balanced():
    star = ", ".join(f"R(x, y{i})" for i in range(6))
    rw = rewrite(parse_cq(f"q(x) :- {star}"), parse_tbox(QUERY_WIDTH_TBOX))
    assert len(rw.branches) == 64
    depth, stack = 0, [(rw.combined, 0)]
    while stack:
        node, d = stack.pop()
        if isinstance(node, BalgArithUnion):
            stack += [(node.left, d + 1), (node.right, d + 1)]
        depth = max(depth, d)
    assert depth <= 6


def test_evaluate_rewriting_builds_no_interpretation(managers, monkeypatch):
    k, q, _ = managers
    rw = rewrite(q, k.tbox)
    expected = certain_answers(q, k, via="chase")

    def refuse(self, *args, **kwargs):
        raise AssertionError("evaluate_rewriting built a BagInterpretation")

    monkeypatch.setattr(BagInterpretation, "__init__", refuse)
    assert evaluate_rewriting(rw, k.abox) == expected


def test_benchmark_trace_sites_exist():
    # The traced benchmark run wraps these module attributes by name.
    path = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for module, attr, _span, _count in tracer.INNER_SITES:
        assert hasattr(importlib.import_module(module), attr), (module, attr)
