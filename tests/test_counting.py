"""The counted chase: at most `depth` copies of each run, the rest counted.

Every answer is checked against the reference construction of
`tests/oracles.py`: the chase built one element and one stage at a time with
every run at its full count. The hand-written cases evaluate it by
enumerating valuations; the random corpus, by `eval_cq` over a chase with no
cut run, where the evaluator takes its uncounted path.
"""

import random

import pytest

from bago import (BagOntology, chase, eval_cq, interpretation_from_abox, parse_abox, parse_cq,
                  parse_tbox, required_depth)
from bago.query import CQ, Const, InequalityAtom, RoleAtom, Var
from bago.randgen import random_bag_abox, random_core_tbox, random_rooted_cq
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
    counted = chase(BagOntology(tbox, abox), depth).counted
    assert counted.runs  # a's run is cut short
    got = eval_cq(q, counted)
    assert dict(got.items()) == brute_eval_cq(q, _reference(tbox, abox, depth))
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
