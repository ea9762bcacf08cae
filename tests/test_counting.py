"""The counted chase: a few copies of each run, the rest counted.

Every answer is checked against the reference construction of
`tests/oracles.py`: the chase built one element and one stage at a time with
every run at its full count. The hand-written cases evaluate it by
enumerating valuations; the random corpus, by `eval_cq` over a chase with no
cut run, where the evaluator takes its uncounted path.

The chase bounded by a query (`chase(k, d, query=q)`) is checked against
`eval_cq` over the whole last stage, and its bounds against the query: its
witnesses lie no deeper than the query's reach (computed here by relaxing
distances over the atoms), along roles the query names, with concepts it
names, and it keeps one copy of a run per role atom.
"""

import math
import random

import pytest

from bago import (Anon, BagABox, BagoError, BagOntology, chase, eval_cq,
                  interpretation_from_abox, parse_abox, parse_cq, parse_tbox, required_depth)
from bago.query import CQ, ConceptAtom, Const, EqualityAtom, InequalityAtom, RoleAtom, Var
from bago.randgen import random_bag_abox, random_core_tbox, random_instance, random_rooted_cq
from oracles import brute_eval_cq, chase_step

# Every A bears an R-successor that is a B and bears an S-successor in turn.
TBOX = "A SUB EX R\nEX R- SUB B\nEX R- SUB EX S\n"
# a's run along R has six witnesses: b is its seventh R-successor. b, an
# R-successor too, bears one S-witness.
ABOX = "A(a) 7\nR(a,b) 1\nB(b) 1\n"


def _reference(tbox, abox, depth):
    stage = interpretation_from_abox(abox)
    for _ in range(depth):
        stage = chase_step(stage, tbox)
    return stage


def _assert_counts_like_the_reference(text, depth=None, tbox=TBOX, abox=ABOX):
    q = parse_cq(text) if isinstance(text, str) else text
    depth = required_depth(q) if depth is None else depth
    tbox, abox = parse_tbox(tbox), parse_abox(abox)
    k = BagOntology(tbox, abox)
    counted = chase(k, depth).counted
    assert counted.runs  # a's run is cut short
    got = eval_cq(q, counted)
    assert dict(got.items()) == brute_eval_cq(q, _reference(tbox, abox, depth))
    assert eval_cq(q, chase(k, depth, query=q).counted) == got
    return got


def test_cut_run_keeps_depth_copies_and_records_its_count():
    result = chase(BagOntology(parse_tbox(TBOX), parse_abox(ABOX)), 2)
    counted = result.counted
    assert (counted.runs, counted.kept) == ({("a", "R", False): 6}, 2)
    # two copies of a's run, each with its S-child, and b's S-witness
    assert len(counted.anonymous()) == 5
    assert len(result.union.anonymous()) == 13
    assert counted.to_text() == result.union.to_text()


def test_a_bare_row_adds_up_the_whole_run():
    assert _assert_counts_like_the_reference("q(x) :- R(x, y)").get(("a",)) == 7


def test_a_repeated_atom_counts_each_witness_once():
    # k witnesses, each met by both copies of the atom: k, not k^2.
    got = _assert_counts_like_the_reference("q(x) :- R(x, y), R(x, y), B(y)")
    assert got.get(("a",)) == 7


def test_two_groups_in_one_run():
    got = _assert_counts_like_the_reference("q(x) :- R(x, y), R(x, z), S(z, w)")
    assert got.get(("a",)) == 7 * 7


def test_inequality_across_copies_in_a_probe():
    # A probe-shaped query: Boolean, pinned to an individual, with
    # inequalities; y and z must lie in distinct copies of a's run.
    y, z = Var("y"), Var("z")
    q = CQ((), [RoleAtom("R", Const("a"), y), RoleAtom("R", Const("a"), z),
                InequalityAtom(y, z), InequalityAtom(y, Const("a")),
                InequalityAtom(z, Const("a"))], allow_inequalities=True)
    assert _assert_counts_like_the_reference(q).get(()) == 7 * 6


def test_a_cycle_back_through_the_parent():
    # z can only be y's parent, a, which is an A seven times.
    got = _assert_counts_like_the_reference("q(x) :- R(x, y), R(z, y), A(z), S(y, w)")
    assert got.get(("a",)) == 7 * 7


def test_a_floating_boolean_component():
    # Not rooted, so no certain answer; its bag over the chase still counts
    # every S-edge of every copy.
    assert _assert_counts_like_the_reference("q() :- S(y, z)", depth=2).get(()) == 7
    _assert_counts_like_the_reference("q(x) :- B(x), S(y, z), R(u, y)")


def test_more_atoms_than_copies_kept_unfold_the_run():
    # y1, y2 and y3 can lie in three distinct copies of a's run, of which
    # two are kept; x, an existential variable, joins them in one component.
    q = "q() :- A(x), R(x, y1), B(y1), R(x, y2), B(y2), R(x, y3), B(y3)"
    assert _assert_counts_like_the_reference(q, depth=2).get(()) == 7 ** 4


@pytest.mark.parametrize("seed", range(4))
def test_counted_answers_equal_the_reference_chase(seed):
    # Multiplicities up to 8 exceed most queries' depth, so runs are cut.
    rng = random.Random(1_600_000 + seed)
    cut = 0
    for _ in range(100):
        tbox = random_core_tbox(rng)
        abox = random_bag_abox(rng, max_multiplicity=8)
        q = random_rooted_cq(rng)
        depth = required_depth(q)
        counted = chase(BagOntology(tbox, abox), depth).counted
        cut += bool(counted.runs)
        assert eval_cq(q, counted) == eval_cq(q, _reference(tbox, abox, depth)), (tbox, abox, q)
    assert cut >= 50


# -- the chase bounded by a query ----------------------------------------------

def _reach(q):
    """The largest distance of a term from an answer variable or an individual,
    relaxed over role atoms (one step) and equalities (no step)."""
    dist = {t: 0 for a in q.atoms for t in a.terms
            if isinstance(t, Const) or t in q.answer_vars}
    changed = True
    while changed:
        changed = False
        for a in q.atoms:
            if isinstance(a, (RoleAtom, EqualityAtom)):
                step = int(isinstance(a, RoleAtom))
                for u, v in (a.terms, a.terms[::-1]):
                    if u in dist and dist[u] + step < dist.get(v, math.inf):
                        dist[v], changed = dist[u] + step, True
    return max(dist.values())


def _assert_bounded(q, k, depth=None):
    """The chase bounded by q answers q as the whole last stage does, and
    keeps within q's bounds; returns it."""
    depth = required_depth(q) if depth is None else depth
    bounded = chase(k, depth, query=q).counted
    assert eval_cq(q, bounded) == eval_cq(q, chase(k, depth).union), (k, q, depth)
    roles = {a.role for a in q.atoms if isinstance(a, RoleAtom)}
    concepts = {a.concept for a in q.atoms if isinstance(a, ConceptAtom)}
    witnesses = [el for el in bounded.domain if type(el) is Anon]
    assert {w.role.name for w in witnesses} <= roles
    assert max((w.depth for w in witnesses), default=0) <= min(_reach(q), depth)
    assert {name for name, ext in bounded.concepts.items()
            if any(type(el) is Anon for el in ext)} <= concepts
    if bounded.runs:
        assert bounded.kept == max(1, sum(isinstance(a, RoleAtom) for a in q.atoms))
    return bounded


def _depth(interp):
    return max((el.depth for el in interp.domain if type(el) is Anon), default=0)


# A's run along R as above; each R-witness bears an S-chain whose members are
# C; a D bears P-predecessors, which are B.
EDGE_TBOX = TBOX + "EX S- SUB C\nEX S- SUB EX S\nD SUB EX P-\nEX P SUB B\n"
EDGE_ABOX = ABOX + "D(d) 3\nQ(b,c) 2\n"


def _edge(text, depth=None):
    q = parse_cq(text)
    k = BagOntology(parse_tbox(EDGE_TBOX), parse_abox(EDGE_ABOX))
    return q, _assert_bounded(q, k, depth), k


def test_a_concept_only_query_bears_nothing():
    q, bounded, k = _edge("q(x) :- B(x), A(x)")
    assert _reach(q) == 0
    assert bounded.anonymous() == [] and not bounded.runs
    q, bounded, k = _edge("q(x) :- B(x)")
    assert bounded.anonymous() == []
    assert eval_cq(q, bounded).get(("b",)) == 1


def test_an_individual_roots_the_query_and_the_deepest_concept_is_written():
    # z lies two steps from a: witnesses are born to depth 2, and stage 3
    # only writes C on the depth-2 ones.
    q, bounded, k = _edge('q() :- R("a", y), S(y, z), C(z)')
    assert (required_depth(q), _reach(q), _depth(bounded)) == (3, 2, 2)
    deepest = [w for w in bounded.anonymous() if w.depth == 2]
    assert deepest and all(bounded.concept_mult("C", w) == 1 for w in deepest)
    assert eval_cq(q, bounded).get(()) == 7
    assert (bounded.runs, bounded.kept) == ({("a", "R", False): 6}, 2)


def test_an_equality_makes_an_existential_class_a_root():
    # y shares x's class, so w lies two steps from a root, not three.
    q, bounded, k = _edge("q(x) :- R(y, z), S(z, w), C(w), x = y")
    assert (_reach(q), _depth(bounded)) == (2, 2)
    assert eval_cq(q, bounded).get(("a",)) == 7


def test_repeated_and_inverse_role_atoms_keep_one_copy_each():
    # d's three P-predecessors form one run along P-: two role atoms keep two.
    q, bounded, k = _edge("q(x) :- P(y, x), P(y, x), B(y)")
    assert (bounded.runs, bounded.kept, _depth(bounded)) == ({("d", "P", True): 3}, 2, 1)
    assert {w.role.name for w in bounded.anonymous()} == {"P"}
    assert eval_cq(q, bounded).get(("d",)) == 3


def test_a_role_absent_from_the_tbox_bears_nothing_along_it():
    # Q is only in the ABox; only R-witnesses are born, none along S or P.
    q, bounded, k = _edge("q(x) :- R(x, y), Q(y, z)")
    assert {w.role.name for w in bounded.anonymous()} == {"R"}
    assert eval_cq(q, bounded).get(("a",)) == 2


def test_a_run_longer_than_the_role_atoms_is_cut_to_them():
    q, bounded, k = _edge("q(x) :- R(x, y), B(y)")
    assert (bounded.runs, bounded.kept, len(bounded.anonymous())) == (
        {("a", "R", False): 6}, 1, 1)
    assert eval_cq(q, bounded).get(("a",)) == 7
    # The unfolded interpretation keeps the bounds and every copy.
    assert len(bounded.unfolded().anonymous()) == 6


def test_a_query_leaves_the_stages_and_the_dump_unchanged():
    k = BagOntology(parse_tbox(EDGE_TBOX), parse_abox(EDGE_ABOX))
    q = parse_cq("q(x) :- R(x, y), B(y)")
    bounded, full = chase(k, 3, query=q), chase(k, 3)
    assert bounded.depth == 3
    assert [s.to_text() for s in bounded.stages] == [s.to_text() for s in full.stages]
    assert bounded.union == full.union


def test_a_query_not_rooted_bounds_only_the_copies():
    # y and z float: they may lie anywhere, along any role, at any depth.
    q = parse_cq("q() :- S(y, z), C(z)")
    k = BagOntology(parse_tbox(EDGE_TBOX), parse_abox(EDGE_ABOX))
    bounded = chase(k, 2, query=q).counted
    assert eval_cq(q, bounded) == eval_cq(q, chase(k, 2).union)
    assert {w.role.name for w in bounded.anonymous()} == {"R", "S", "P"}
    assert bounded.kept == 1


@pytest.mark.parametrize("seed", range(4))
def test_bounded_chase_answers_as_the_full_chase(seed):
    # Longer queries than the cross-check's reach deeper; every instance is
    # checked at its required depth and at one drawn below or past it.
    rng = random.Random(1_800_000 + seed)
    smaller = 0
    for _ in range(100):
        tbox = random_core_tbox(rng)
        abox = random_bag_abox(rng, max_multiplicity=8)
        q = random_rooted_cq(rng, max_atoms=6, max_vars=5)
        k = BagOntology(tbox, abox)
        bounded = _assert_bounded(q, k)
        smaller += len(bounded.domain) < len(chase(k, required_depth(q)).counted.domain)
        _assert_bounded(q, k, rng.randrange(required_depth(q) + 2))
    assert smaller >= 30


def _outcome(q, interp):
    try:
        return eval_cq(q, interp)
    except BagoError as exc:
        return type(exc).__name__


def test_bounded_chase_on_the_large_multiplicity_corpus():
    # Runs of up to 2^63 witnesses cannot be unfolded, so the reference is the
    # chase that keeps `depth` copies of each run.
    for seed in range(900_000, 902_000):
        rng = random.Random(seed)
        tbox, abox, q = random_instance(rng)
        abox = BagABox([(a, rng.choice((1, 2, 2**31, 2**62, 2**63)))
                        for a, _ in abox.entries()])
        k, depth = BagOntology(tbox, abox), required_depth(q)
        assert _outcome(q, chase(k, depth, query=q).counted) == _outcome(q, chase(k, depth).counted)
