import random
from itertools import combinations

from hypothesis import given, settings, strategies as st

from bago import (
    AnswerBag,
    BagoError,
    BagOntology,
    ChaseLimitExceeded,
    NotEqualityConsistent,
    TBox,
    bag_ops,
    certain_answers,
    chase,
    eval_cq,
    eval_partitioned,
    interpretation_from_abox,
    is_satisfiable,
    ma_connected_partition,
    parse_abox,
    parse_cq,
    parse_tbox,
    required_depth,
    rewrite,
)
from bago.chase import BagInterpretation
from bago.ontology import (
    AtomicConcept,
    BagABox,
    ConceptInclusion,
    ExistsRole,
    Role,
    ConceptAssertion,
)
from bago.bagalg import eval_balg
from bago.rewrite import evaluate_rewriting
from bago.randgen import (
    random_bag_abox,
    random_instance,
    random_rooted_cq,
    random_tbox_with_disjointness,
)

from generators import random_small_cq

_POOL = [AtomicConcept(n) for n in "ABC"] + [
    ExistsRole(Role(r, inv)) for r in "RS" for inv in (False, True)
]

concepts = st.sampled_from(_POOL)
tboxes = st.builds(
    lambda pairs: TBox(
        ConceptInclusion(a, b) for a, b in pairs if a != b
    ),
    st.lists(st.tuples(concepts, concepts), max_size=8),
)


@settings(max_examples=150, deadline=None)
@given(tboxes, concepts, concepts, concepts)
def test_entailment_is_reflexive_and_transitive(tbox, a, b, c):
    assert tbox.entails_concept(a, a)
    if tbox.entails_concept(a, b) and tbox.entails_concept(b, c):
        assert tbox.entails_concept(a, c)


@settings(max_examples=100, deadline=None)
@given(tboxes)
def test_core_exists_entailment_needs_inclusion_paths(tbox):
    r, s = ExistsRole(Role("R")), ExistsRole(Role("S"))
    if tbox.entails_concept(r, s):
        # reachable purely through declared concept inclusions
        subs = {ax.sub for ax in tbox.axioms if isinstance(ax, ConceptInclusion)}
        assert r in subs
    bare = TBox({ConceptInclusion(AtomicConcept("A"), AtomicConcept("B"))})
    assert not bare.entails_concept(r, s)


def test_role_inclusions_do_relate_exists_concepts():
    t = parse_tbox("KIND R\nR SUBR S\n")
    assert t.entails_concept(ExistsRole(Role("R")), ExistsRole(Role("S")))


def test_ma_connected_partition_invariants():
    rng = random.Random(31)
    for _ in range(200):
        q = random_small_cq(rng, max_atoms=6, max_vars=4)
        existential = list(q.existential_vars())
        rng.shuffle(existential)
        zset = frozenset(existential[: rng.randint(0, len(existential))])
        try:
            parts = ma_connected_partition(q, zset)
        except NotEqualityConsistent:
            continue
        union = set()
        eq = q.equality_classes()
        for part in parts:
            assert not (part & union)
            union |= part
            for v in part:
                assert eq.class_of(v) <= part
        assert union == set(zset)


def test_universality_consequence_on_example(managers):
    k, _, _ = managers
    q1 = parse_cq('q() :- hasMngr("Lee", "Hill")')
    q2 = parse_cq("q(x) :- hasMngr(x, y)")
    assert certain_answers(q1, k) == AnswerBag(0)
    assert certain_answers(q2, k) == AnswerBag(1, {("Lee",): 1})

    # The two hand-built countermodels: each is a bag model, and the
    # certain answers above equal the pointwise minima over them.
    i1 = interpretation_from_abox(
        parse_abox("Emp(Lee)\nhasMngr(Lee,Hill)\nMngr(Hill)\n")
    )
    w = "w_fresh"
    i2 = interpretation_from_abox(
        parse_abox(f"Emp(Lee)\nhasMngr(Lee,{w})\nMngr(Hill)\nMngr({w})\n")
    )
    for model in (i1, i2):
        assert _is_bag_model(model, k)
    for q, expect in ((q1, AnswerBag(0)), (q2, AnswerBag(1, {("Lee",): 1}))):
        pointwise_min = bag_ops(
            "intersection", eval_cq(q, i1), eval_cq(q, i2)
        )
        assert pointwise_min == expect


def _is_bag_model(interp: BagInterpretation, k: BagOntology) -> bool:
    for assertion, m in k.abox.items():
        if isinstance(assertion, ConceptAssertion):
            if interp.concept_mult(assertion.concept, assertion.individual) < m:
                return False
        else:
            if interp.role_mult(
                assertion.role, assertion.subject, assertion.object
            ) < m:
                return False

    def ext(concept):
        if isinstance(concept, AtomicConcept):
            return {el: interp.concept_mult(concept.name, el) for el in interp.domain}
        return {el: interp.exists_mult(concept.role, el) for el in interp.domain}

    for ax in k.tbox.axioms:
        if isinstance(ax, ConceptInclusion):
            sub, sup = ext(ax.sub), ext(ax.sup)
            if any(sub[el] > sup[el] for el in interp.domain):
                return False
    return True


def test_branch_soundness_against_partitioned_evaluation():
    rng = random.Random(37)
    checked_realisable = checked_empty = 0
    for _ in range(60):
        tbox, abox, q = random_instance(rng)
        k = BagOntology(tbox, abox)
        result = chase(k, required_depth(q))
        stage0 = interpretation_from_abox(abox)
        rw = rewrite(q, tbox)
        realisable = {b.z: b for b in rw.branches}
        existential = q.existential_vars()
        for size in range(len(existential) + 1):
            for combo in combinations(existential, size):
                zset = frozenset(combo)
                partitioned = eval_partitioned(q, zset, result)
                if zset in realisable:
                    compiled = realisable[zset].compiled
                    bag = eval_balg(compiled, stage0)
                    got = {
                        tuple(t[compiled.answer_vars.index(v)] for v in q.answer_vars): m
                        for t, m in bag.items()
                    } if compiled.answer_vars else dict(bag.items())
                    assert got == dict(partitioned.items())
                    checked_realisable += 1
                else:
                    assert partitioned == AnswerBag(len(q.answer_vars))
                    checked_empty += 1
    assert checked_realisable > 50 and checked_empty > 5


def test_rewriting_correctness_spot_checks_with_equalities():
    rng = random.Random(41)
    tried = 0
    for _ in range(250):
        tbox, abox, q = random_instance(rng)
        if not any(True for a in q.atoms if type(a).__name__ == "EqualityAtom"):
            continue
        tried += 1
        k = BagOntology(tbox, abox)
        via_chase = eval_cq(q, chase(k, required_depth(q)).union)
        via_rw = evaluate_rewriting(rewrite(q, tbox), abox)
        assert via_chase == via_rw
    assert tried >= 10


def test_rewriting_is_reusable_across_aboxes():
    # The compiled query depends only on the TBox: one rewriting answers
    # every ABox, and scaling multiplicities never changes the support.
    rng = random.Random(43)
    for _ in range(20):
        tbox, abox, q = random_instance(rng)
        rw = rewrite(q, tbox)
        single = evaluate_rewriting(rw, abox)
        scaled = evaluate_rewriting(rw, abox.scaled(3))
        assert scaled.support() == single.support()
        k_scaled = BagOntology(tbox, abox.scaled(3))
        assert scaled == eval_cq(q, chase(k_scaled, required_depth(q)).union)


def _outcome(q, k, via):
    """The answer bag, or the name of the error that ended the path."""
    try:
        return certain_answers(q, k, via=via)
    except ChaseLimitExceeded:
        raise
    except BagoError as exc:
        return type(exc).__name__


def test_large_multiplicity_corpus_agrees_on_both_paths():
    # Multiplicities up to 2^63 make intermediate sums and products pass
    # U64_MAX; only answers are held to 64 bits, so both paths end alike.
    skipped, outcomes, disagreements = 0, [], []
    for seed in range(900_000, 902_000):
        rng = random.Random(seed)
        tbox, abox, q = random_instance(rng)
        abox = BagABox([(a, rng.choice((1, 2, 2**31, 2**62, 2**63)))
                        for a, _ in abox.entries()])
        k = BagOntology(tbox, abox)
        try:
            via_chase = _outcome(q, k, "chase")
        except ChaseLimitExceeded:
            skipped += 1
            continue
        via_rewrite = _outcome(q, k, "rewrite")
        outcomes.append(via_chase)
        if via_chase != via_rewrite:
            disagreements.append((seed, via_chase, via_rewrite))
    assert disagreements == []
    # The query's chase keeps one copy of a run per role atom, so no multiplicity
    # passes its budget: every instance is compared.
    assert (skipped, len(outcomes)) == (0, 2000)
    assert "MultiplicityOverflow" in outcomes


def test_disjointness_corpus_agrees_on_both_paths():
    # A disjointness can forbid every edge along a role while the ontology
    # stays satisfiable; a probe along that role then fails, and the rewrite
    # path must not refuse the input for it.
    satisfiable, disagreements = 0, []
    for seed in range(700_000, 701_000):
        rng = random.Random(seed)
        tbox = random_tbox_with_disjointness(rng)
        abox = random_bag_abox(rng)
        q = random_rooted_cq(rng)
        k = BagOntology(tbox, abox)
        if not is_satisfiable(k):
            continue
        satisfiable += 1
        via_chase, via_rewrite = _outcome(q, k, "chase"), _outcome(q, k, "rewrite")
        if via_chase != via_rewrite:
            disagreements.append((seed, via_chase, via_rewrite))
    assert disagreements == []
    assert satisfiable == 422
