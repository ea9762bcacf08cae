"""Seeded random instances for the cross-check harness and property suites.

The generated corpus stays inside the rewritable fragment: core TBoxes built
from inclusions only (hence always satisfiable), small bag ABoxes, and rooted
queries with at most four atoms over at most four variables. A separate
generator adds disjointness axioms for satisfiability-specific tests.

Every instance is written as the TBox, ABox and query text a user would
write, and `parse_tbox`, `parse_abox` and `parse_cq` build it.
"""

from __future__ import annotations

import random

from .errors import BagoError
from .ontology import BagABox, TBox, parse_abox, parse_tbox
from .query import CQ, is_rooted, parse_cq

CONCEPTS = ("A", "B", "C")
ROLES = ("R", "S")
INDIVIDUALS = ("a", "b", "c")

_CONCEPT_POOL = (*CONCEPTS, *(f"EX {r}{inv}" for r in ROLES for inv in ("", "-")))


def random_core_tbox(rng: random.Random, max_axioms: int = 10) -> TBox:
    return parse_tbox("\n".join("{} SUB {}".format(*rng.sample(_CONCEPT_POOL, 2))
                                for _ in range(rng.randint(0, max_axioms))))


def random_tbox_with_disjointness(rng: random.Random, max_axioms: int = 10) -> TBox:
    axioms = []
    for _ in range(rng.randint(1, max_axioms)):
        form = "DISJ {} {}" if rng.random() < 0.3 else "{} SUB {}"
        axioms.append(form.format(*rng.sample(_CONCEPT_POOL, 2)))
    return parse_tbox("\n".join(axioms))


def random_bag_abox(rng: random.Random, max_assertions: int = 12,
                    max_multiplicity: int = 5) -> BagABox:
    lines = []
    for _ in range(rng.randint(1, max_assertions)):
        if rng.random() < 0.5:
            assertion = f"{rng.choice(CONCEPTS)}({rng.choice(INDIVIDUALS)})"
        else:
            assertion = (f"{rng.choice(ROLES)}"
                         f"({rng.choice(INDIVIDUALS)},{rng.choice(INDIVIDUALS)})")
        lines.append(f"{assertion} {rng.randint(1, max_multiplicity)}")
    return parse_abox("\n".join(lines))


def random_rooted_cq(rng: random.Random, max_atoms: int = 4, max_vars: int = 4) -> CQ:
    """Rooted, safe query; retries until the Gaifman condition holds."""
    for _ in range(200):
        arity = rng.choice((0, 1, 1))
        answer_vars = [f"x{i}" for i in range(arity)]
        var_pool = answer_vars + [f"y{i}" for i in range(max_vars - arity)]
        n_atoms = rng.randint(1, max_atoms)
        used = set()

        def pick_term():
            if rng.random() < 0.25:
                return f'"{rng.choice(INDIVIDUALS)}"'
            v = rng.choice(var_pool)
            used.add(v)
            return v

        atoms = []
        for _ in range(n_atoms):
            if atoms and rng.random() < 0.15:
                atoms.append(rng.choice(atoms))  # repeated atoms matter for bags
            elif rng.random() < 0.35:
                atoms.append(f"{rng.choice(CONCEPTS)}({pick_term()})")
            else:
                atoms.append(f"{rng.choice(ROLES)}({pick_term()},{pick_term()})")
        if rng.random() < 0.2 and len(used) >= 2 and len(atoms) < max_atoms:
            atoms.append("{} = {}".format(*rng.sample(sorted(used), 2)))
        if not used.issuperset(answer_vars):
            continue
        try:
            q = parse_cq(f"q({', '.join(answer_vars)}) :- {', '.join(atoms)}")
        except BagoError:
            continue
        if is_rooted(q):
            return q
    raise RuntimeError("failed to generate a rooted query")


def random_instance(rng: random.Random):
    """One cross-check instance: core TBox, bag ABox, rooted query."""
    return random_core_tbox(rng), random_bag_abox(rng), random_rooted_cq(rng)
