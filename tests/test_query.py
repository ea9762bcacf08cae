import itertools
import random
from functools import cached_property

import pytest

from bago import (
    CQ,
    BagOntology,
    ConceptAtom,
    Const,
    EqualityAtom,
    InequalityAtom,
    ParseError,
    RepeatedAnswerVariable,
    RoleAtom,
    SafetyViolation,
    Var,
    NotEqualityConsistent,
    certain_answers,
    is_rooted,
    linking_atom,
    ma_connected_partition,
    parse_abox,
    parse_cq,
    parse_tbox,
)
from bago.query import (
    atom_key,
    atoms_mentioning,
    connected_components,
    outward_terms,
    term_key,
)
from bago.randgen import random_rooted_cq

from generators import random_small_cq

x, y, z = Var("x"), Var("y"), Var("z")
y1, y2 = Var("y1"), Var("y2")


def test_parse_single_role_atom():
    q = parse_cq("q(x) :- hasMngr(x, y)")
    assert q.answer_vars == (x,)
    assert q.atoms == (RoleAtom("hasMngr", x, y),)
    assert q.existential_vars() == (y,)


def test_parse_keeps_repeated_atoms():
    q = parse_cq("q(x) :- A(x), A(x)")
    assert q.atoms == (ConceptAtom("A", x), ConceptAtom("A", x))


def test_parse_quoted_individuals_and_equalities():
    q = parse_cq('q(x) :- Edge(x, y), w = y, u = "Lee", A(u)')
    assert Const("Lee") in {t for a in q.atoms for t in a.terms}
    # constants are oriented to the right of an equality
    eq = [a for a in q.atoms if isinstance(a, EqualityAtom) and Const("Lee") in a.terms]
    assert eq[0].left == Var("u")


def test_a_constant_first_equality_answers_as_the_constant_last_one():
    first, last = parse_cq('q(x) :- A(x), "a" = x'), parse_cq('q(x) :- A(x), x = "a"')
    assert first.atoms == last.atoms
    k = BagOntology(parse_tbox("B SUB A"), parse_abox("A(a) 2\nB(a) 3\nA(b)\n"))
    for via in ("chase", "rewrite"):
        answers = certain_answers(first, k, via=via)
        assert answers == certain_answers(last, k, via=via)
        assert answers.to_text() == "(a) 3\n"


def test_safety_violation_names_variable():
    with pytest.raises(SafetyViolation) as err:
        parse_cq("q() :- x = y")
    assert "concept or role atom" in str(err.value)
    with pytest.raises(SafetyViolation) as err:
        parse_cq("q() :- A(x), y = z")
    assert "y" in str(err.value) or "z" in str(err.value)


def test_unmentioned_answer_variable_is_unsafe():
    with pytest.raises(SafetyViolation):
        parse_cq("q(x) :- A(y)")


def test_repeated_answer_variable():
    with pytest.raises(RepeatedAnswerVariable):
        parse_cq("q(x, x) :- R(x, x)")


def test_syntax_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse_cq("q(x) :- A(x,\n  %")
    assert err.value.line == 2


def test_inequality_rejected_in_user_queries():
    with pytest.raises(ParseError):
        parse_cq("q(x) :- A(x), x != y")
    atoms = (ConceptAtom("A", x), ConceptAtom("B", y), InequalityAtom(x, y))
    with pytest.raises(ParseError):
        CQ((x,), atoms)
    CQ((x,), atoms, allow_inequalities=True)


def test_distinct_individual_equality_warns():
    with pytest.warns(UserWarning):
        parse_cq('q() :- A("a"), "a" = "b"')


def test_round_trip_preserves_structure():
    q = parse_cq('q(x) :- hasMngr(x, y), A(x), A(x), y = x, B("Lee")')
    assert parse_cq(q.to_text()) == q


def test_equality_classes_follow_the_equalities():
    q = parse_cq('q(x) :- R(x, y), y = z, z = w, A(w)')
    eq = q.equality_classes()
    assert eq.class_of(y) == {y, z, Var("w")}
    assert eq.class_of(x) == {x}


def _classes_by_merging(atoms):
    """The equality classes by merging the classes of each equality's two
    sides until none changes, ordered by their first term's first occurrence."""
    terms = list(dict.fromkeys(t for a in atoms for t in a.terms))
    classes = [{t} for t in terms]
    pairs = [(a.left, a.right) for a in atoms if isinstance(a, EqualityAtom)]
    merged = True
    while merged:
        merged = False
        for left, right in pairs:
            (lc,), (rc,) = ([c for c in classes if t in c] for t in (left, right))
            if lc is not rc:
                lc |= rc
                classes.remove(rc)
                merged = True
    return sorted(map(frozenset, classes), key=lambda c: min(map(terms.index, c)))


def test_equality_classes_equal_merging_in_first_occurrence_order():
    rng = random.Random(25)
    pool = [Var(f"v{i}") for i in range(6)] + [Const("a"), Const("b")]
    checked = 0
    while checked < 300:
        atoms = [ConceptAtom("A", rng.choice(pool)) if rng.random() < 0.4
                 else RoleAtom("R", rng.choice(pool), rng.choice(pool))
                 for _ in range(rng.randint(1, 5))]
        for _ in range(rng.randint(1, 4)):
            atoms.insert(rng.randint(0, len(atoms)),
                         EqualityAtom(rng.choice(pool), rng.choice(pool)))
        try:
            q = CQ([], atoms)
        except SafetyViolation:
            continue
        eq = q.equality_classes()
        expected = _classes_by_merging(atoms)
        assert eq.classes() == expected, atoms
        assert all(eq.class_of(t) == c for c in expected for t in c)
        checked += 1


def test_rooted_examples(managers):
    _, rooted, non_rooted = managers
    assert is_rooted(rooted)
    assert not is_rooted(non_rooted)
    assert is_rooted(parse_cq('q() :- hasMngr("Lee", "Hill")'))
    assert is_rooted(parse_cq("q(x) :- hasMngr(x, y)"))


def test_rooted_via_equality_to_individual():
    assert is_rooted(parse_cq('q() :- R(u, v), u = "Lee"'))
    assert not is_rooted(parse_cq("q() :- R(u, v)"))


def test_equality_consistent():
    q = parse_cq("q(x) :- R(x, y), A(z)")
    assert ma_connected_partition(q, {y}) == [frozenset({y})]
    q2 = parse_cq("q(x) :- R(x, y), y = x")
    with pytest.raises(NotEqualityConsistent):
        ma_connected_partition(q2, {y})
    q3 = parse_cq("q() :- R(y1, y2), y1 = y2")
    assert ma_connected_partition(q3, {y1, y2}) == [frozenset({y1, y2})]
    with pytest.raises(NotEqualityConsistent):
        ma_connected_partition(q3, {y1})


def test_ma_connected_partition_examples():
    q_r = parse_cq("q(x) :- hasMngr(x, y), Mngr(y)")
    assert ma_connected_partition(q_r, {y}) == [frozenset({y})]
    assert ma_connected_partition(q_r, set()) == []
    fork = parse_cq("q(x) :- R(x, y1), R(x, y2)")
    assert ma_connected_partition(fork, {y1, y2}) == [frozenset({y1}), frozenset({y2})]
    chain = parse_cq("q(x) :- R(x, y1), S(y1, y2)")
    assert ma_connected_partition(chain, {y1, y2}) == [frozenset({y1, y2})]


def test_ma_connected_closed_under_equalities():
    q = parse_cq("q(x) :- R(x, y1), S(x, y2), y1 = y2")
    assert ma_connected_partition(q, {y1, y2}) == [frozenset({y1, y2})]


def test_linking_atom_examples():
    q_r = parse_cq("q(x) :- hasMngr(x, y), Mngr(y)")
    assert linking_atom(q_r, {y}) == RoleAtom("hasMngr", x, y)
    q2 = parse_cq('q() :- R("a", y), A(y)')
    assert linking_atom(q2, {y}) == RoleAtom("R", Const("a"), y)
    tie = parse_cq("q(x) :- P(x, y), P(z, y), A(z)")
    assert linking_atom(tie, {y}) == RoleAtom("P", x, y)


def test_linking_atom_prefers_variable_endpoint():
    q = parse_cq('q() :- R(y1, "b"), R(y1, y0)')
    assert linking_atom(q, {y1}) == RoleAtom("R", y1, Var("y0"))


def test_outward_terms_and_subquery():
    q = parse_cq("q(x) :- R(x, y1), S(y1, y2), A(x)")
    zs = {y1, y2}
    assert outward_terms(q, zs) == [x]
    assert atoms_mentioning(q, zs) == [
        RoleAtom("R", x, y1),
        RoleAtom("S", y1, y2),
    ]


def test_cluster_helpers_read_the_same_with_z_or_the_cluster_alone():
    # Each part of ma_connected_partition(q, z) decides its linking atoms and
    # outward terms by itself: the oracle classifies every atom end against z.
    rng = random.Random(29)
    parts = 0
    for _ in range(500):
        q = random_rooted_cq(rng, max_atoms=6, max_vars=6)
        existential = q.existential_vars()
        for size in range(1, len(existential) + 1):
            for z in map(frozenset, itertools.combinations(existential, size)):
                try:
                    partition = ma_connected_partition(q, z)
                except NotEqualityConsistent:
                    continue
                for part in partition:
                    parts += 1
                    atoms = [a for a in q.atoms if any(t in part for t in a.terms)]
                    links = [a for a in atoms if isinstance(a, RoleAtom)
                             and (a.subject in z) != (a.object in z)]
                    outward = {t for a in atoms for t in a.terms if t not in z}
                    # Under the same preference: a variable outward end first.
                    least = min(links, key=lambda a: (
                        isinstance(a.object if a.subject in z else a.subject, Const),
                        atom_key(a)))
                    assert linking_atom(q, part) == least
                    assert outward_terms(q, part) == sorted(outward, key=term_key)
    assert parts >= 2000


def _brute_components(q):
    eq = q.equality_classes()
    nodes = {eq.class_of(t) for a in q.atoms for t in a.terms}
    parent = {n: n for n in nodes}

    def find(n):
        while parent[n] != n:
            n = parent[n]
        return n

    for a in q.atoms:
        if isinstance(a, RoleAtom):
            a_cls, b_cls = eq.class_of(a.subject), eq.class_of(a.object)
            parent[find(a_cls)] = find(b_cls)
    groups = {}
    for n in nodes:
        groups.setdefault(find(n), set()).add(n)
    return {frozenset(g) for g in groups.values()}


def test_gaifman_components_match_union_find():
    rng = random.Random(5)
    for _ in range(150):
        q = random_small_cq(rng, max_atoms=8, max_vars=4)
        graph = q.gaifman
        assert set(connected_components(graph, graph.__getitem__)) == _brute_components(q)


def test_rooted_is_one_walk_from_the_roots():
    # The walk from the roots reaches every class exactly when every
    # component holds a root, and the chase's scope is read off the same walk.
    rng = random.Random(7)
    for _ in range(300):
        q = random_small_cq(rng, max_atoms=8, max_vars=4)
        roots = set(q.answer_vars) | {t for a in q.atoms for t in a.terms if type(t) is Const}
        by_components = all(any(c & roots for c in comp) for comp in _brute_components(q))
        assert is_rooted(q) == by_components == (q.reach is not None), q


def test_certain_answers_walk_the_query_once(monkeypatch):
    walks = []
    walk = CQ.reach.func

    def counting(q):
        walks.append(q)
        return walk(q)

    reach = cached_property(counting)
    reach.__set_name__(CQ, "reach")
    monkeypatch.setattr(CQ, "reach", reach)
    k = BagOntology(parse_tbox("A SUB EX R\nEX R- SUB B\n"), parse_abox("A(a) 3\n"))
    q = parse_cq("q(x) :- R(x, y), B(y)")
    assert certain_answers(q, k, via="both").get(("a",)) == 3
    assert walks == [q]


def test_rooted_invariant_under_renaming_and_duplication():
    rng = random.Random(6)
    for _ in range(100):
        q = random_small_cq(rng)
        rooted = is_rooted(q)
        mapping = {v: Var(v.name + "_r") for v in q.variables()}

        def ren(t):
            return mapping.get(t, t)

        renamed_atoms = []
        for a in q.atoms:
            if isinstance(a, ConceptAtom):
                renamed_atoms.append(ConceptAtom(a.concept, ren(a.term)))
            elif isinstance(a, RoleAtom):
                renamed_atoms.append(RoleAtom(a.role, ren(a.subject), ren(a.object)))
            elif isinstance(a, EqualityAtom):
                renamed_atoms.append(EqualityAtom(ren(a.left), ren(a.right)))
        renamed = CQ(tuple(mapping[v] for v in q.answer_vars), renamed_atoms)
        assert is_rooted(renamed) == rooted
        duplicated = CQ(q.answer_vars, q.atoms + (q.atoms[0],))
        assert is_rooted(duplicated) == rooted


@pytest.mark.parametrize("name", ["_z", "1x", "x-y"])
def test_a_query_built_in_code_takes_only_variable_names_its_text_can_carry(name):
    # `_z` is the rewriting's fresh variable; the other two cannot be parsed back.
    with pytest.raises(ParseError, match="invalid variable name"):
        CQ((x,), [RoleAtom("R", x, Var(name)), ConceptAtom("A", Var(name))])


def test_a_query_built_in_code_answers_equally_on_both_paths():
    k = BagOntology(parse_tbox("EX R- SUB A"), parse_abox("R(a,b) 2\nA(b) 1\n"))
    w = Var("w")
    q = CQ((x,), [RoleAtom("R", x, w), ConceptAtom("A", w)])
    through_chase = certain_answers(q, k, via="chase")
    assert through_chase == certain_answers(q, k, via="rewrite")
    assert through_chase.get(("a",)) == 4
