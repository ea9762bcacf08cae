import importlib
import importlib.util
import pathlib
import random
import time
from itertools import combinations

import pytest

from bago import (
    AnswerBag,
    BagOntology,
    CQ,
    MultipleAnchors,
    NotEqualityConsistent,
    NotRooted,
    ParseError,
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
    eval_balg,
    eval_cq_neq,
    to_sexpr,
)
from bago.cli import main
from bago.errors import RewriteLimitExceeded
from bago.ontology import BagABox, RoleAssertion, check_individual
from bago.query import (
    ConceptAtom,
    Const,
    EqualityAtom,
    InequalityAtom,
    RoleAtom,
    Var,
    atom_key,
    atoms_mentioning,
    linking_atom,
)
from bago.rewrite import (
    NOT_EQUALITY_CONSISTENT,
    PROBE_ANCHOR,
    PROBE_FRESH,
    REALISABLE,
    UNREALISABLE,
    _clusters,
    _misshapen,
)

from bago.randgen import random_bag_abox

from generators import rewriting_corpus

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
    assert anchor == "@anchor"
    expected = CQ(
        (),
        (
            RoleAtom("hasMngr", x, y),
            ConceptAtom("Mngr", y),
            EqualityAtom(x, Const("@anchor")),
            InequalityAtom(y, Const("@anchor")),
        ),
        allow_inequalities=True,
    )
    assert probe == expected
    assert probe_abox == BagABox({RoleAssertion("hasMngr", "@anchor", "@fresh"): 1})


def test_build_probe_reversed_orientation():
    q = parse_cq("q(x) :- P(y, x), A(y)")
    probe, probe_abox, anchor = build_probe(q, {y})
    assert probe_abox == BagABox({RoleAssertion("P", "@fresh", "@anchor"): 1})
    assert anchor == "@anchor"


def test_build_probe_uses_linked_individual_as_anchor():
    q = parse_cq('q() :- R("a", y), B(y)')
    probe, probe_abox, anchor = build_probe(q, {y})
    assert anchor == "a"
    assert probe_abox == BagABox({RoleAssertion("R", "a", "@fresh"): 1})


def test_build_probe_multiple_anchors():
    q = parse_cq('q() :- R("a", y), S("b", y)')
    with pytest.raises(MultipleAnchors):
        build_probe(q, {y})


def test_probe_individuals_lie_outside_the_individual_grammar():
    for name in (PROBE_ANCHOR, PROBE_FRESH):
        with pytest.raises(ParseError):
            check_individual(name)


@pytest.mark.parametrize("text, answer", [
    ("q(x) :- R(x, y), B(y)", (("_probe_a",), 11)),
    ('q() :- R("_probe_a", y), B(y)', ((), 11)),
    ('q(y) :- R("_probe_a", y), B(y)', (("b",), 9)),
    ('q() :- R(x, y), A(x), x = "_probe_a"', ((), 25)),
])
def test_a_probe_like_name_is_an_ordinary_individual(text, answer):
    # A(_probe_a) 5 needs five R-successors: the three named ones and two
    # witnesses, each of which is a B once.
    k = BagOntology(parse_tbox("A SUB EX R\nEX R- SUB B\n"),
                    parse_abox("A(_probe_a) 5\nR(_probe_a,b) 3\nB(b) 1\n"))
    q = parse_cq(text)
    bags = [certain_answers(q, k, via=via).items() for via in ("chase", "rewrite")]
    assert bags == [[answer]] * 2


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


def _branch_empty_ast():
    f = Var("_z")
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


def _branch_y_ast():
    f = Var("_z")
    return BalgDiff(
        BalgMaxUnion(
            BalgAtom("Emp", (x,)),
            BalgProject((f,), BalgAtom("hasMngr", (x, f))),
        ),
        BalgProject((f,), BalgAtom("hasMngr", (x, f))),
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
    assert rw.combined == BalgArithUnion(_branch_empty_ast(), _branch_y_ast())
    a_r = parse_abox("Emp(Lee)\nMngr(Hill)\n")
    assert evaluate_rewriting(rw, a_r) == AnswerBag(1, {("Lee",): 1})


def test_every_fresh_variable_is_projected_right_above_its_atom():
    # One name serves every fresh variable only because no operator above a
    # fresh atom's projection ever sees it: `_z` is answered by its atom alone.
    fresh = Var("_z")
    for rw in rewriting_corpus():
        stack = [(rw.combined, None)]
        while stack:
            node, parent = stack.pop()
            if fresh in node.answer_vars or fresh in getattr(node, "terms", ()):
                assert type(node) is BalgAtom, node
                assert type(parent) is BalgProject and parent.projected == (fresh,), parent
            if isinstance(node, BalgProject) and fresh in node.projected:
                assert type(node.child) is BalgAtom, node
            children = (getattr(node, "child", None), getattr(node, "left", None),
                        getattr(node, "right", None))
            stack += [(c, node) for c in children if c is not None]


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


def test_rewrite_variable_guard(monkeypatch):
    # Thirteen pairwise adjacent existential variables form 2^13 - 1 clusters,
    # past the budget: refused while the clusters are counted, before any probe.
    def refuse(*args, **kwargs):
        raise AssertionError("a cluster was probed")

    monkeypatch.setattr(importlib.import_module("bago.rewrite"), "is_realisable", refuse)
    ys = [Var(f"y{i}") for i in range(13)]
    atoms = [RoleAtom("R", Const("a"), ys[0])]
    atoms += [RoleAtom("R", a, b) for a, b in combinations(ys, 2)]
    q = CQ((), atoms)
    start = time.process_time()
    with pytest.raises(RewriteLimitExceeded, match="rewriting needs more than"):
        rewrite(q, parse_tbox(""))
    assert time.process_time() - start < 1.0


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


def _link_last(monkeypatch):
    """Make `rewrite` link each cluster by its last linking candidate in
    canonical order, not `linking_atom`'s least one under its preference."""

    def last(q, cluster):
        return max((a for a in atoms_mentioning(q, cluster) if isinstance(a, RoleAtom)
                    and (a.subject in cluster) != (a.object in cluster)), key=atom_key)

    rewrite_mod = importlib.import_module("bago.rewrite")
    monkeypatch.setattr(rewrite_mod, "linking_atom", last)


def test_choice_independence(monkeypatch):
    q = parse_cq("q(x) :- P(x, y), P(z, y), A(z)")
    t = parse_tbox("B SUB EX P\nEX P- SUB C\n")
    default = rewrite(q, t)
    _link_last(monkeypatch)
    flipped = rewrite(q, t)
    assert [w.alpha for c in flipped.certificates for w in c.witnesses] != [
        w.alpha for c in default.certificates for w in c.witnesses]
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


@pytest.mark.parametrize("last", [False, True], ids=["default", "last"])
def test_rewrite_branches_match_per_subset_realisability(monkeypatch, last):
    from bago.randgen import random_core_tbox, random_rooted_cq

    if last:
        _link_last(monkeypatch)
    rng = random.Random(31)
    several = 0
    for i in range(60):
        tbox = random_core_tbox(rng)
        q = random_rooted_cq(rng, max_atoms=6, max_vars=5) if i % 2 else random_rooted_cq(rng)
        rw = rewrite(q, tbox)
        want = []
        for zset in _subsets_in_order(q.existential_vars()):
            cert = is_realisable(tbox, q, zset)
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


def _path(length: int) -> CQ:
    return parse_cq("q(y0) :- " + ", ".join(f"R(y{i}, y{i + 1})" for i in range(length)))


def _count_probes(monkeypatch) -> list:
    rewrite_mod = importlib.import_module("bago.rewrite")
    real, calls = rewrite_mod.build_probe, []

    def counted(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(rewrite_mod, "build_probe", counted)
    return calls


def test_shape_check_leaves_one_probe_per_path_suffix_and_star_leaf(monkeypatch):
    # A path segment that stops short of the path's end meets its outward
    # terms through R read forwards on one side and backwards on the other:
    # only the 12 segments that reach y12 are probed, of 78 clusters.
    probes = _count_probes(monkeypatch)
    t = parse_tbox(QUERY_WIDTH_TBOX)
    assert len(rewrite(_path(12), t).branches) == 13
    assert sorted(probes, key=len) == [
        frozenset(Var(f"y{i}") for i in range(j, 13)) for j in range(12, 0, -1)
    ]
    probes.clear()
    assert len(_star(8).branches) == 256
    assert len(probes) == 8


def test_path_44_hits_the_budget_after_one_probe_per_suffix(monkeypatch):
    # 990 clusters plus 45 alternatives pass the budget; only the 44 clusters
    # that end the path are worth a probe before that is found out.
    probes = _count_probes(monkeypatch)
    with pytest.raises(RewriteLimitExceeded, match="rewriting needs more than"):
        rewrite(_path(44), parse_tbox(QUERY_WIDTH_TBOX))
    assert len(probes) <= 44


def test_shape_check_rejects_only_clusters_whose_probe_fails():
    from bago.randgen import random_core_tbox, random_rooted_cq

    rng = random.Random(61)
    rejected = 0
    for _ in range(1000):
        tbox, q = random_core_tbox(rng), random_rooted_cq(rng, max_atoms=6, max_vars=6)
        for cluster, _mask, _closed in _clusters(q):
            if not _misshapen(q, cluster):
                continue
            rejected += 1
            cert = is_realisable(tbox, q, cluster)
            assert cert.verdict == UNREALISABLE and cert.witnesses == ()
            try:
                probe, probe_abox, _ = build_probe(q, cluster, alpha=linking_atom(q, cluster))
            except MultipleAnchors:
                continue
            probe_chase = chase(BagOntology(tbox, probe_abox), required_depth(probe))
            assert eval_cq_neq(probe, probe_chase.union).get(()) == 0, (q, cluster)
    assert rejected >= 100


def _node_count(node) -> int:
    count, stack = 0, [node]
    while stack:
        node = stack.pop()
        count += 1
        stack += [getattr(node, f) for f in ("child", "left", "right") if hasattr(node, f)]
    return count


def _star(k: int):
    star = ", ".join(f"R(x, y{i})" for i in range(k))
    return rewrite(parse_cq(f"q(x) :- {star}"), parse_tbox(QUERY_WIDTH_TBOX))


def test_rewrite_union_is_balanced():
    # One component with many alternatives: path L = 12 has 13.
    path = ", ".join(f"R(y{i}, y{i + 1})" for i in range(12))
    rw = rewrite(parse_cq(f"q(y0) :- {path}"), parse_tbox(QUERY_WIDTH_TBOX))
    assert len(rw.branches) == 13
    depth, stack = 0, [(rw.combined, 0)]
    while stack:
        node, d = stack.pop()
        if isinstance(node, BalgArithUnion):
            stack += [(node.left, d + 1), (node.right, d + 1)]
        depth = max(depth, d)
    assert depth <= 4
    # A star has one component per leaf: k two-way unions and k - 1 joins.
    leaf = _node_count(_star(1).combined)
    for k in (6, 30):
        assert _node_count(_star(k).combined) == k * leaf + k - 1


def _component_count(q) -> int:
    # A cluster with no adjacent class outside itself is a whole component.
    return sum(1 for _, mask, closed in _clusters(q) if mask == closed)


def test_factored_rewriting_equals_union_of_branches_and_chase():
    from bago.randgen import random_instance

    rng = random.Random(53)
    several = 0
    for _ in range(240):
        tbox, abox, q = random_instance(rng)
        rw = rewrite(q, tbox)
        got = evaluate_rewriting(rw, abox)
        summed = []
        for b in rw.branches:
            columns = [b.compiled.answer_vars.index(v) for v in q.answer_vars]
            summed += [(tuple(tup[i] for i in columns), m)
                       for tup, m in eval_balg(b.compiled, abox).items()]
        assert got == AnswerBag(len(q.answer_vars), summed)
        assert got == eval_cq(q, chase(BagOntology(tbox, abox), required_depth(q)).union)
        several += _component_count(q) >= 2
    assert several >= 30


def test_star_30_answers_via_rewrite_in_under_a_second(tmp_path, capsys):
    abox_text = "A(a) 2\nR(a,b) 1\nA(b) 2\nR(b,a) 1\n"
    k = BagOntology(parse_tbox(QUERY_WIDTH_TBOX), parse_abox(abox_text))
    for width in range(1, 6):  # the chase shows the pattern: 2^k for each individual
        star = ", ".join(f"R(x, y{i})" for i in range(width))
        want = AnswerBag(1, {("a",): 2**width, ("b",): 2**width})
        assert certain_answers(parse_cq(f"q(x) :- {star}"), k, via="chase") == want
    (tmp_path / "t.dl").write_text(QUERY_WIDTH_TBOX)
    (tmp_path / "a.bag").write_text(abox_text)
    star = ", ".join(f"R(x, y{i})" for i in range(30))
    (tmp_path / "q.cq").write_text(f"q(x) :- {star}\n")
    start = time.process_time()
    code = main(["answer", "-T", str(tmp_path / "t.dl"), "-A", str(tmp_path / "a.bag"),
                 "-q", str(tmp_path / "q.cq"), "--via", "rewrite"])
    elapsed = time.process_time() - start
    assert code == 0
    assert capsys.readouterr().out == "(a) 1073741824\n(b) 1073741824\n"
    assert elapsed < 1.0


def test_star_30_counts_branches_without_building_one(monkeypatch):
    rewrite_mod = importlib.import_module("bago.rewrite")

    def refuse(*args, **kwargs):
        raise AssertionError("a branch was built")

    monkeypatch.setattr(rewrite_mod, "RewriteBranch", refuse)
    rw = _star(30)
    assert len(rw.branches) == 2**30
    assert len(rw.certificates) == 2**30  # every leaf is realisable
    with pytest.raises(RewriteLimitExceeded, match="can be listed"):
        rw.branches[0]  # ordering 2^30 choices of z would exhaust memory


def test_close_joins_a_linked_conjunct_before_an_unrelated_one():
    lines = [f"R(a{i},b{i})\nS(c{i},d{i})\nT(a{i},c{i})\n" for i in range(30)]
    abox = parse_abox("".join(lines))
    tbox = parse_tbox("")
    unlinked_second = rewrite(parse_cq("q(x, w) :- R(x, y1), S(w, y2), T(x, w)"), tbox)
    linked_second = rewrite(parse_cq("q(x, w) :- R(x, y1), T(x, w), S(w, y2)"), tbox)
    answers = evaluate_rewriting(unlinked_second, abox)
    assert answers == evaluate_rewriting(linked_second, abox)
    assert answers == AnswerBag(2, {(f"a{i}", f"c{i}"): 1 for i in range(30)})
    # Both orders compile to the same tree, and no join in it multiplies two
    # operands that share no variable.
    assert to_sexpr(unlinked_second.combined) == to_sexpr(linked_second.combined)
    stack = [unlinked_second.combined]
    while stack:
        node = stack.pop()
        if isinstance(node, BalgJoin):
            assert set(node.left.answer_vars) & set(node.right.answer_vars), to_sexpr(node)
        stack.extend(getattr(node, name) for name in ("left", "right", "child")
                     if hasattr(node, name))


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


def test_cluster_api_raises_documented_errors():
    # y = x links z = {y} to an answer variable: is_realisable says so in its
    # certificate, and collapse, which has no certificate, refuses.
    linked = parse_cq("q(x) :- R(x, y), y = x")
    assert is_realisable(parse_tbox(""), linked, [y]).verdict == "not-equality-consistent"
    with pytest.raises(NotEqualityConsistent):
        collapse(linked, [y])
    # {y, z} is a whole component with no answer variable or individual.
    floating = parse_cq("q() :- R(y, z)")
    with pytest.raises(NotRooted):
        is_realisable(parse_tbox(""), floating, [y, z])
    with pytest.raises(NotRooted):
        collapse(floating, [y, z])
