"""Seeded generators for oracle-equivalence and property suites."""

import pathlib
import random

from bago import CQ, NotRooted, parse_abox, parse_cq, parse_tbox, rewrite
from bago.chase import Anon, BagInterpretation
from bago.ontology import Role
from bago.query import ConceptAtom, Const, EqualityAtom, RoleAtom, Var
from bago.randgen import random_instance
from bago.bagalg import (
    BalgArithUnion,
    BalgAtom,
    BalgDiff,
    BalgEqFilter,
    BalgJoin,
    BalgMaxUnion,
    BalgProject,
)

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
NAMES = ["a", "b", "c", "d"]
CONCEPTS = ["A", "B"]
ROLES = ["R", "S"]


def random_interp(rng: random.Random, max_elements=6, allow_anon=True) -> BagInterpretation:
    n = rng.randint(1, max_elements)
    elements = []
    for i in range(n):
        if allow_anon and rng.random() < 0.25 and elements:
            elements.append(
                Anon(rng.choice(elements),
                     Role(rng.choice(ROLES), rng.random() < 0.5),
                     rng.randint(1, 2))
            )
        else:
            elements.append(NAMES[i % 4] + ("" if i < 4 else str(i)))
    elements = list(dict.fromkeys(elements))
    concepts = {}
    roles = {}
    for c in CONCEPTS:
        ext = {el: rng.randint(1, 4) for el in elements if rng.random() < 0.5}
        if ext:
            concepts[c] = ext
    for r in ROLES:
        ext = {}
        for _ in range(rng.randint(0, 2 * len(elements))):
            ext[(rng.choice(elements), rng.choice(elements))] = rng.randint(1, 4)
        if ext:
            roles[r] = ext
    return BagInterpretation(elements, concepts, roles)


def random_small_cq(rng: random.Random, max_atoms=5, max_vars=4) -> CQ:
    for _ in range(100):
        arity = rng.choice((0, 1, 2))
        answer = tuple(Var(f"x{i}") for i in range(arity))
        pool = list(answer) + [Var(f"y{i}") for i in range(max_vars - arity)]

        def term():
            if rng.random() < 0.2:
                return Const(rng.choice(NAMES))
            return rng.choice(pool)

        atoms = []
        for _ in range(rng.randint(1, max_atoms - 1)):
            if rng.random() < 0.4:
                atoms.append(ConceptAtom(rng.choice(CONCEPTS), term()))
            else:
                atoms.append(RoleAtom(rng.choice(ROLES), term(), term()))
        if rng.random() < 0.3:
            used = sorted({t for a in atoms for t in a.terms if isinstance(t, Var)},
                          key=str)
            if used:
                other = term() if rng.random() < 0.5 else rng.choice(used)
                atoms.append(EqualityAtom(rng.choice(used), other))
        try:
            return CQ(answer, atoms)
        except Exception:
            continue
    raise RuntimeError("query generation failed")


def covering_node(rng: random.Random, vars_):
    """Any bag-algebra query answering exactly the given variables."""
    vars_ = list(vars_)
    if not vars_:
        return BalgProject(
            (Var("p0"),),
            BalgAtom(rng.choice(ROLES), (Var("p0"), Const(rng.choice(NAMES)))),
        )
    if len(vars_) == 1:
        return BalgAtom(rng.choice(CONCEPTS), (vars_[0],))
    node = BalgAtom(rng.choice(ROLES), (vars_[0], vars_[1]))
    for i in range(2, len(vars_)):
        node = BalgJoin(node, BalgAtom(rng.choice(ROLES), (vars_[i - 1], vars_[i])))
    return node


def random_balg(rng: random.Random, depth=3):
    if depth == 0 or rng.random() < 0.35:
        k = rng.choice((1, 2))
        terms = tuple(
            Var(f"v{rng.randint(0, 2)}") if rng.random() < 0.75
            else Const(rng.choice(NAMES))
            for _ in range(k)
        )
        return BalgAtom(rng.choice(CONCEPTS if k == 1 else ROLES), terms)
    op = rng.randint(0, 5)
    child = random_balg(rng, depth - 1)
    if op == 0:
        return BalgJoin(child, random_balg(rng, depth - 1))
    if op == 1 and child.answer_vars:
        x = rng.choice(child.answer_vars)
        pool = list(child.answer_vars) + [Var("w0"), Const(rng.choice(NAMES))]
        return BalgEqFilter(child, x, rng.choice(pool))
    if op == 2 and child.answer_vars:
        away = tuple(v for v in child.answer_vars if rng.random() < 0.5)
        if away:
            return BalgProject(away, child)
        return child
    cls = rng.choice((BalgMaxUnion, BalgArithUnion, BalgDiff))
    return cls(child, covering_node(rng, child.answer_vars))


# The abox_scale benchmark's TBox: A -R-> B -S-> B -S-> ...
WIDE_TBOX = "A SUB EX R\nEX R- SUB B\nB SUB EX S\nEX S- SUB B\nC SUB A\n"


def wide_abox(rng: random.Random, n=200):
    """An abox_scale-shaped (TBox, ABox): about 2n assertions over n individuals.

    Random concept and role assertions with multiplicities 1..5, as the
    benchmark draws them, plus three fixed cases for a chase's first stage:
    four names with the same deficit along R; a name with an ABox R-edge
    that still gets R-witnesses; and a name whose B seed (2) and EX R- seed
    (3) both entail EX S, where the larger one must win.
    """
    lines = [f"{rng.choice('ABC')}(i{rng.randrange(n)}) {rng.randint(1, 5)}"
             for _ in range(n)]
    lines += [f"{rng.choice('RS')}(i{rng.randrange(n)},i{rng.randrange(n)}) {rng.randint(1, 5)}"
              for _ in range(n)]
    lines += [f"A(same{j}) 4" for j in range(4)]
    lines += ["A(edged) 5", "R(edged,i0) 2"]
    lines += ["B(maxed) 2", "R(i1,maxed) 3", "S(maxed,i2) 1"]
    rng.shuffle(lines)
    return parse_tbox(WIDE_TBOX), parse_abox("\n".join(lines) + "\n")


def rewriting_corpus(n=300, seed=29):
    """The rewriting of every fixture query that has one, then of n seeded
    `randgen` instances."""
    for path in sorted(FIXTURES.glob("*/*.cq")):
        try:
            yield rewrite(parse_cq(path.read_text()),
                          parse_tbox((path.parent / "tbox.dl").read_text()))
        except NotRooted:
            pass
    rng = random.Random(seed)
    for _ in range(n):
        tbox, _, q = random_instance(rng)
        yield rewrite(q, tbox)
