"""Acceptance criteria.

Every check is exact integer / exact multiset equality; there are no numeric
tolerances anywhere. Run with ``pytest -s tests/test_acceptance.py`` to see
one pass/fail line per criterion.
"""

import random
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import combinations

import pytest

from bago import (
    AnswerBag,
    BagOntology,
    NotRooted,
    Var,
    bag_ops,
    certain_answers,
    chase,
    coloring_model,
    eval_balg,
    eval_cq,
    eval_partitioned,
    gen_3col,
    interpretation_from_abox,
    is_satisfiable,
    parse_abox,
    parse_coloring,
    parse_graph,
    required_depth,
    rewrite,
)
from bago.chase import Anon
from bago.ontology import Role
from bago.bagalg import (
    BalgArithUnion,
    BalgAtom,
    BalgDiff,
    BalgJoin,
    BalgMaxUnion,
    BalgProject,
)
from bago.rewrite import evaluate_rewriting
from bago.randgen import random_bag_abox, random_instance, random_tbox_with_disjointness

from generators import random_balg, random_interp, random_small_cq
from oracles import (brute_eval_balg, brute_eval_cq, flattened, scaled, set_certain_answers,
                     support)

SEED = 7
TRIALS = 200


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {number:02d} {name}: PASS")


@dataclass
class Instance:
    tbox: object
    abox: object
    query: object
    depth: int
    stages: tuple
    via_chase: AnswerBag
    via_rewrite: AnswerBag


@pytest.fixture(scope="module")
def corpus():
    rng = random.Random(SEED)
    instances = []
    for _ in range(TRIALS):
        tbox, abox, q = random_instance(rng)
        n = required_depth(q)
        result = chase(BagOntology(tbox, abox), n + 3)
        via_chase = eval_cq(q, result.stages[n])
        via_rewrite = evaluate_rewriting(rewrite(q, tbox), abox)
        instances.append(
            Instance(tbox, abox, q, n, result.stages, via_chase, via_rewrite)
        )
    return instances


def test_criterion_1_running_example_golden(employees):
    with criterion(1, "running-example certain answers"):
        k, q = employees
        expected = AnswerBag(1, {("Lee",): 3})
        assert certain_answers(q, k, via="chase") == expected
        assert certain_answers(q, k, via="rewrite") == expected


def test_criterion_2_canonical_model_example(managers):
    with criterion(2, "canonical model and non-rooted refusal"):
        k, _, q_nr = managers
        lee, hill = "Lee", "Hill"
        w = Anon(lee, Role("hasMngr"), 1)
        stage1 = chase(k, 1).union
        assert stage1.domain == {lee, hill, w}
        assert stage1.concepts == {"Emp": {lee: 1}, "Mngr": {hill: 1}}
        assert stage1.roles == {"hasMngr": {(lee, w): 1}}
        # the full canonical model (reached at depth 2) adds Mngr(w) = 1
        full = chase(k, 2).union
        assert full.concepts == {"Emp": {lee: 1}, "Mngr": {hill: 1, w: 1}}
        assert full.roles == {"hasMngr": {(lee, w): 1}}
        assert eval_cq(q_nr, full) == AnswerBag(0, {(): 2})
        i_nr = interpretation_from_abox(
            parse_abox("Emp(Lee)\nhasMngr(Lee,Hill)\nMngr(Hill)\n")
        )
        assert eval_cq(q_nr, i_nr) == AnswerBag(0, {(): 1})
        with pytest.raises(NotRooted):
            certain_answers(q_nr, k)


def test_criterion_3_rewriting_golden(managers):
    with criterion(3, "rewriting branches and evaluation"):
        k, q_r, _ = managers
        x, y, fresh = Var("x"), Var("y"), Var("_z")
        rw = rewrite(q_r, k.tbox)
        assert [b.z for b in rw.branches] == [frozenset(), frozenset({y})]
        expected_empty = BalgProject(
            (y,),
            BalgJoin(
                BalgAtom("hasMngr", (x, y)),
                BalgMaxUnion(
                    BalgAtom("Mngr", (y,)),
                    BalgProject((fresh,), BalgAtom("hasMngr", (fresh, y))),
                ),
            ),
        )
        expected_y = BalgDiff(
            BalgMaxUnion(
                BalgAtom("Emp", (x,)),
                BalgProject((fresh,), BalgAtom("hasMngr", (x, fresh))),
            ),
            BalgProject((fresh,), BalgAtom("hasMngr", (x, fresh))),
        )
        # every fresh projection variable is `_z`, so the trees are equal
        assert rw.branches[0].compiled == expected_empty
        assert rw.branches[1].compiled == expected_y
        assert rw.combined == BalgArithUnion(expected_empty, expected_y)
        expected = AnswerBag(1, {("Lee",): 1})
        assert certain_answers(q_r, k, via="chase") == expected
        assert certain_answers(q_r, k, via="rewrite") == expected


def test_criterion_4_prime_fixtures(prime, prime_pair):
    with criterion(4, "prime-count fixtures on both paths"):
        k1, q1 = prime
        assert certain_answers(q1, k1, via="chase") == AnswerBag(1, {("a",): 7})
        assert certain_answers(q1, k1, via="rewrite") == AnswerBag(1, {("a",): 7})
        k2, q2 = prime_pair
        expected = AnswerBag(2, {("a", "a"): 448})
        assert certain_answers(q2, k2, via="chase") == expected
        assert certain_answers(q2, k2, via="rewrite") == expected


def test_criterion_5_dual_execution_suite(corpus):
    with criterion(5, f"chase vs rewriting on {TRIALS} random instances"):
        failures = [
            i for i, inst in enumerate(corpus)
            if inst.via_chase != inst.via_rewrite
        ]
        assert failures == []
        assert len(corpus) == TRIALS


def test_criterion_6_partition_identity(corpus):
    from bago.chase import ChaseResult

    with criterion(6, "partition identity over anonymous assignments"):
        for inst in corpus:
            stage = inst.stages[inst.depth]
            existential = inst.query.existential_vars()
            total = AnswerBag(len(inst.query.answer_vars))
            trimmed = ChaseResult(inst.stages[: inst.depth + 1], inst.depth)
            for size in range(len(existential) + 1):
                for combo in combinations(existential, size):
                    total = bag_ops(
                        "arith-union",
                        total,
                        eval_partitioned(inst.query, combo, trimmed),
                    )
            assert total == eval_cq(inst.query, stage)


def test_criterion_7_depth_sufficiency(corpus):
    with criterion(7, "depth n equals depth n+3"):
        for inst in corpus:
            deeper = eval_cq(inst.query, inst.stages[inst.depth + 3])
            assert deeper == inst.via_chase


def test_criterion_8_set_semantics_compatibility(corpus):
    with criterion(8, "set-semantics compatibility and invariance"):
        for inst in corpus:
            oracle = set_certain_answers(inst.query, inst.tbox, support(inst.abox))
            thresholded = {t for t, m in inst.via_chase.items() if m >= 1}
            assert thresholded == oracle
            flat = BagOntology(inst.tbox, flattened(inst.abox))
            flat_answers = certain_answers(inst.query, flat)
            assert {t for t, m in flat_answers.items() if m >= 1} == oracle

        rng = random.Random(SEED + 1)
        for _ in range(100):
            tbox = random_tbox_with_disjointness(rng)
            abox = random_bag_abox(rng)
            verdict = is_satisfiable(BagOntology(tbox, abox))
            for factor in (2, 5):
                assert is_satisfiable(BagOntology(tbox, scaled(abox, factor))) == verdict
            assert is_satisfiable(BagOntology(tbox, flattened(abox))) == verdict


def test_criterion_9_oracle_equivalence():
    with criterion(9, "brute-force oracle equivalence (500+500 cases)"):
        rng = random.Random(SEED + 2)
        for _ in range(500):
            interp = random_interp(rng, max_elements=6)
            q = random_small_cq(rng, max_atoms=5, max_vars=4)
            assert dict(eval_cq(q, interp).items()) == brute_eval_cq(q, interp)
        for _ in range(500):
            abox = random_bag_abox(rng)
            node = random_balg(rng)
            assert dict(eval_balg(node, abox).items()) == brute_eval_balg(node, abox)


def test_criterion_10_coloring_models(fixtures_dir):
    with criterion(10, "coloring-model evaluation bounds"):
        for name, valid, invalid in (
            ("triangle", "u1 r\nu2 g\nu3 b\n", "u1 r\nu2 r\nu3 b\n"),
            ("diamond", "u1 r\nu2 g\nu3 r\nu4 b\n", "u1 r\nu2 g\nu3 g\nu4 b\n"),
        ):
            graph = parse_graph((fixtures_dir / f"{name}.graph").read_text())
            inst = gen_3col(graph)
            n = len(graph.vertices)
            good = parse_coloring(valid, graph)
            value = eval_cq(inst.query, coloring_model(graph, good)).get(())
            assert value == 3 * n + 1
            bad = parse_coloring(invalid, graph)
            bad_value = eval_cq(inst.query, coloring_model(graph, bad)).get(())
            assert bad_value >= 2 * (3 * n + 1)
            assert inst.threshold == 3 * n + 2
