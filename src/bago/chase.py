"""Staged construction of the canonical bag model.

Stage 0 reads the bag ABox as an interpretation over the named individuals.
Each later stage (i) resets every old element's concept multiplicities to its
concept-closure values over the previous stage and (ii) repairs every
existential deficit delta = ccl(u)(EX R) - (EX R)(u) by attaching delta fresh
anonymous role successors, each with one role edge of multiplicity 1. Fresh
elements carry no concept memberships at birth; the next stage picks them up.

Stages grow monotonically under bag containment, so the bag union of stages
0..d equals stage d. The chase therefore grows one interpretation in place,
stage by stage, and keeps only the last; `ChaseResult.stages` rebuilds an
earlier stage on request by chasing to that depth. Evaluating a rooted query
with n concept/role atoms over stage n already yields its answers over the
full (infinite) union, which is why callers always pass an explicit depth.

Stage 1 processes the named individuals: their seeds (atomic multiplicities
and EX R / EX R- out-degree sums) are gathered in one pass over the
extensions, not probed predicate by predicate. Every later stage processes
only the witnesses born in the stage before, and a witness born for role R
starts with nothing but its R-edge of multiplicity 1, so it is expanded from
a plan fixed per role: the closure of EX R- at multiplicity 1, with one child
per role S != R- in it. `concept_closure`, `_stage` and `chase_step` keep the
literal per-element construction as the reference the tests compare against.
A chase that would need more than MAX_CHASE_ELEMENTS anonymous elements
raises ChaseLimitExceeded before allocating them.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Iterable, Mapping, Union

from .errors import (
    ChaseLimitExceeded,
    UnsatisfiableOntology,
    UnsupportedTBoxKind,
    combine,
)
from .ontology import (
    CORE,
    AtomicConcept,
    BagABox,
    BagOntology,
    Concept,
    ConceptAssertion,
    ExistsRole,
    Role,
    TBox,
    is_satisfiable,
)
from .query import CQ, ConceptAtom, RoleAtom

# Budget of anonymous elements for one chase; a chase that would pass it
# raises ChaseLimitExceeded before allocating.
MAX_CHASE_ELEMENTS = 1_000_000


@dataclass(frozen=True, eq=False)
class Named:
    name: str

    def __post_init__(self):
        # Elements are dict keys everywhere; precompute the hash.
        object.__setattr__(self, "_hash", hash(("n", self.name)))

    def __eq__(self, other):
        return type(other) is Named and other.name == self.name

    def __hash__(self):
        return self._hash

    def __str__(self):
        return self.name


@dataclass(frozen=True, eq=False)
class Anon:
    parent: "Element"
    role: Role
    index: int

    def __post_init__(self):
        object.__setattr__(
            self, "_hash", hash(("a", self.parent, self.role, self.index))
        )

    def __eq__(self, other):
        return (
            type(other) is Anon
            and other.index == self.index
            and other.role == self.role
            and other.parent == self.parent
        )

    def __hash__(self):
        return self._hash

    def __str__(self):
        return f"_w({self.parent},{self.role},{self.index})"


Element = Union[Named, Anon]


def element_key(el: Element):
    key = getattr(el, "_key", None)
    if key is None:
        if isinstance(el, Named):
            key = (0, el.name)
        else:
            key = (1, element_key(el.parent), el.role.name, el.role.inverted, el.index)
        object.__setattr__(el, "_key", key)
    return key


class BagInterpretation:
    """Finite bag interpretation with per-role successor/predecessor indexes."""

    def __init__(
        self,
        domain: Iterable[Element],
        concepts: Mapping[str, Mapping[Element, int]],
        roles: Mapping[str, Mapping[tuple[Element, Element], int]],
    ):
        self.domain = set(domain)
        self.concepts: dict[str, dict[Element, int]] = {}
        for name, ext in concepts.items():
            for el, m in ext.items():
                if m > 0:
                    if el not in self.domain:
                        raise ValueError(f"element {el} outside the domain")
                    self.concepts.setdefault(name, {})[el] = m
        self.roles: dict[str, dict[tuple[Element, Element], int]] = {}
        self._fwd: dict[str, dict[Element, dict[Element, int]]] = {}
        self._bwd: dict[str, dict[Element, dict[Element, int]]] = {}
        for name, ext in roles.items():
            for (u, v), m in ext.items():
                if m > 0:
                    if u not in self.domain or v not in self.domain:
                        raise ValueError(f"pair ({u},{v}) outside the domain")
                    self._add_edge(name, (u, v), m)

    def _add_edge(self, name: str, pair: tuple[Element, Element], m: int) -> None:
        u, v = pair
        self.roles.setdefault(name, {})[pair] = m
        self._fwd.setdefault(name, {}).setdefault(u, {})[v] = m
        self._bwd.setdefault(name, {}).setdefault(v, {})[u] = m

    def concept_mult(self, name: str, el: Element) -> int:
        return self.concepts.get(name, {}).get(el, 0)

    def role_mult(self, name: str, u: Element, v: Element) -> int:
        return self.roles.get(name, {}).get((u, v), 0)

    def successors(self, role: Role, u: Element) -> dict[Element, int]:
        index = self._bwd if role.inverted else self._fwd
        return index.get(role.name, {}).get(u, {})

    def exists_mult(self, role: Role, u: Element) -> int:
        return sum(self.successors(role, u).values())

    def anonymous(self) -> list[Anon]:
        return sorted((el for el in self.domain if isinstance(el, Anon)),
                      key=element_key)

    def __eq__(self, other):
        return (
            isinstance(other, BagInterpretation)
            and self.domain == other.domain
            and self.concepts == other.concepts
            and self.roles == other.roles
        )

    def __hash__(self):
        return hash(frozenset(self.domain))

    def __repr__(self):
        return (f"BagInterpretation(|domain|={len(self.domain)}, "
                f"concepts={sorted(self.concepts)}, roles={sorted(self.roles)})")

    def contains(self, other: "BagInterpretation") -> bool:
        """Bag containment: other's extensions are pointwise dominated."""
        pairs = ((self.concepts, other.concepts), (self.roles, other.roles))
        return other.domain <= self.domain and not any(
            combine("difference", ext, mine.get(name, {}))
            for mine, theirs in pairs
            for name, ext in theirs.items()
        )

    def to_text(self) -> str:
        lines = []
        for name in sorted(self.concepts):
            for el, m in sorted(self.concepts[name].items(),
                                key=lambda kv: element_key(kv[0])):
                lines.append(f"{name}({el}) {m}")
        for name in sorted(self.roles):
            for (u, v), m in sorted(self.roles[name].items(),
                                    key=lambda kv: (element_key(kv[0][0]),
                                                    element_key(kv[0][1]))):
                lines.append(f"{name}({u},{v}) {m}")
        return "\n".join(lines) + ("\n" if lines else "")


def bag_union(a: BagInterpretation, b: BagInterpretation) -> BagInterpretation:
    """Pointwise-max union of two interpretations over a shared domain."""

    def union(x, y):
        return {n: combine("max-union", x.get(n, {}), y.get(n, {}))
                for n in x.keys() | y.keys()}

    return BagInterpretation(a.domain | b.domain, union(a.concepts, b.concepts),
                             union(a.roles, b.roles))


def interpretation_from_abox(abox: BagABox) -> BagInterpretation:
    """Stage 0: assertions become extensions over the named individuals."""
    named = {name: Named(name) for name in abox.individuals()}
    i = BagInterpretation(named.values(), {}, {})
    for a, m in abox.entries():
        if isinstance(a, ConceptAssertion):
            i.concepts.setdefault(a.concept, {})[named[a.individual]] = m
        else:
            i._add_edge(a.role, (named[a.subject], named[a.object]), m)
    return i


def concept_closure(i: BagInterpretation, u: Element, tbox: TBox) -> dict[Concept, int]:
    """Max multiplicity forced at u for every concept, via entailed subsumees."""
    seeds: dict[Concept, int] = {}
    for name, ext in i.concepts.items():
        m = ext.get(u, 0)
        if m:
            seeds[AtomicConcept(name)] = m
    for name in i.roles:
        for role in (Role(name), Role(name, True)):
            m = i.exists_mult(role, u)
            if m:
                seeds[ExistsRole(role)] = m
    return _close(seeds, tbox)


def _close(seeds: Mapping[Concept, int], tbox: TBox) -> dict[Concept, int]:
    """Each concept entailed by a seed, at the largest multiplicity forcing it."""
    closure: dict[Concept, int] = {}
    for c0, m in seeds.items():
        for c in tbox.concepts_entailed_by(c0):
            if closure.get(c, 0) < m:
                closure[c] = m
    return closure


def _stage(i: BagInterpretation, tbox: TBox, process: Iterable[Element]) -> list[Element]:
    """Extend i in place by one stage over `process`; return the elements born.

    In place is sound: processing u reads only u's own entries and writes only
    those plus the edges to u's fresh witnesses.
    """
    born: list[Element] = []
    for u in sorted(process, key=element_key):
        for c, m in concept_closure(i, u, tbox).items():
            if isinstance(c, AtomicConcept):
                i.concepts.setdefault(c.name, {})[u] = m
                continue
            role = c.role
            deficit = m - i.exists_mult(role, u)
            for j in range(1, deficit + 1):
                w = Anon(u, role, j)
                if w in i.domain:  # stabilization argument makes this unreachable
                    raise AssertionError(f"witness {w} created twice")
                born.append(w)
                i.domain.add(w)
                i._add_edge(role.name, (w, u) if role.inverted else (u, w), 1)
    return born


def chase_step(prev: BagInterpretation, tbox: TBox) -> BagInterpretation:
    """One stage of the canonical construction over the previous stage."""
    if tbox.kind != CORE:
        raise UnsupportedTBoxKind("the canonical bag model is defined for core TBoxes")
    nxt = BagInterpretation(prev.domain, prev.concepts, prev.roles)
    _stage(nxt, tbox, prev.domain)
    return nxt


# Plan for one element: its concept entries as (name, multiplicity) and its
# births as (role, count), both in canonical order. Births sorted by role make
# every frontier come out in element_key order, the order _stage processes in.
_Plan = tuple[tuple[tuple[str, int], ...], tuple[tuple[Role, int], ...]]


def _plan(closure: Mapping[Concept, int], seeds: Mapping[Concept, int]) -> _Plan:
    """Atomic entries of the closure, and each EX R's deficit over its seed."""
    writes, births = [], []
    for c, m in closure.items():
        if isinstance(c, AtomicConcept):
            writes.append((c.name, m))
        elif m > seeds.get(c, 0):
            births.append((c.role, m - seeds.get(c, 0)))
    # Names and roles are distinct, so these sort by name and by Role order.
    return tuple(sorted(writes)), tuple(sorted(births))


def _named_seeds(i: BagInterpretation) -> dict[Element, dict[Concept, int]]:
    """Every element's seeds, as `concept_closure` finds them, in one pass.

    A seed is an atomic concept's multiplicity or an EX R / EX R- out-degree
    sum. Probing every predicate per element, as `concept_closure` does,
    makes stage 1 of the `abox_scale` benchmark about 40 % slower.
    """
    seeds: dict[Element, dict[Concept, int]] = {u: {} for u in i.domain}
    for name, ext in i.concepts.items():
        c = AtomicConcept(name)
        for u, m in ext.items():
            seeds[u][c] = m
    for name, ext in i.roles.items():
        out, back = ExistsRole(Role(name)), ExistsRole(Role(name, True))
        for (u, v), m in ext.items():
            su, sv = seeds[u], seeds[v]
            su[out] = su.get(out, 0) + m
            sv[back] = sv.get(back, 0) + m
    return seeds


def _grow(k: BagOntology, depth: int) -> BagInterpretation:
    """Chase k to `depth` in place: what iterating `_stage` builds, from plans."""
    i = interpretation_from_abox(k.abox)
    tbox = k.tbox
    named = len(i.domain)
    concepts, roles, fwd_index, bwd_index = i.concepts, i.roles, i._fwd, i._bwd

    def expand(u: Element, plan: _Plan, born: list[Anon]) -> None:
        writes, births = plan
        for name, m in writes:
            concepts.setdefault(name, {})[u] = m
        for role, count in births:
            if len(i.domain) - named + count > MAX_CHASE_ELEMENTS:
                raise ChaseLimitExceeded(
                    f"the chase needs more than {MAX_CHASE_ELEMENTS:,} anonymous "
                    "elements; answer with --via rewrite, whose cost does not grow "
                    "with multiplicities"
                )
            name = role.name
            ext = roles.setdefault(name, {})
            fwd = fwd_index.setdefault(name, {})
            bwd = bwd_index.setdefault(name, {})
            witnesses = [Anon(u, role, j) for j in range(1, count + 1)]
            if role.inverted:  # edges w -> u
                row = bwd.setdefault(u, {})
                for w in witnesses:
                    ext[(w, u)] = 1
                    fwd[w] = {u: 1}
                    row[w] = 1
            else:  # edges u -> w
                row = fwd.setdefault(u, {})
                for w in witnesses:
                    ext[(u, w)] = 1
                    row[w] = 1
                    bwd[w] = {u: 1}
            size = len(i.domain)
            i.domain.update(witnesses)
            if len(i.domain) != size + count:  # stabilization makes this unreachable
                raise AssertionError(f"a witness of {u} for {role} was created twice")
            born.extend(witnesses)

    if depth == 0:
        return i
    frontier: list[Anon] = []
    for u, seeds in sorted(_named_seeds(i).items(), key=lambda kv: element_key(kv[0])):
        expand(u, _plan(_close(seeds, tbox), seeds), frontier)

    role_plans: dict[Role, _Plan] = {}
    for _ in range(depth - 1):
        if not frontier:  # the chase terminated; later stages add nothing
            break
        born: list[Anon] = []
        role = None
        for w in frontier:
            # Siblings share their Role object, so `is` skips most lookups.
            if w.role is not role:
                role = w.role
                plan = role_plans.get(role)
                if plan is None:
                    seeds = {ExistsRole(role.inverse): 1}
                    plan = role_plans[role] = _plan(_close(seeds, tbox), seeds)
            expand(w, plan, born)
        frontier = born
    return i


class _Stages(Sequence):
    """Stages 0..depth of one chase; only the last is stored, the rest are rebuilt."""

    def __init__(self, k: BagOntology, last: BagInterpretation, depth: int):
        self._k, self._last, self._depth = k, last, depth

    def __len__(self):
        return self._depth + 1

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self[j] for j in range(*index.indices(len(self))))
        j = index + len(self) if index < 0 else index
        if not 0 <= j <= self._depth:
            raise IndexError("chase stage out of range")
        # The chase is deterministic, so rerunning it to depth j rebuilds stage j.
        return self._last if j == self._depth else _grow(self._k, j)


@dataclass(frozen=True)
class ChaseResult:
    stages: Sequence[BagInterpretation]
    depth: int

    @property
    def union(self) -> BagInterpretation:
        # Stages grow monotonically, so their bag union is the last stage.
        return self.stages[-1]


def chase(k: BagOntology, depth: int) -> ChaseResult:
    """Stages 0..depth of the canonical bag model of a satisfiable ontology."""
    if k.tbox.kind != CORE:
        raise UnsupportedTBoxKind("the canonical bag model is defined for core TBoxes")
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    if not is_satisfiable(k):
        raise UnsatisfiableOntology("the ontology has no bag model")
    return ChaseResult(_Stages(k, _grow(k, depth), depth), depth)


def required_depth(q: CQ) -> int:
    """Concept/role atom count (with repetitions): a lossless chase depth for rooted q."""
    return sum(1 for a in q.atoms if isinstance(a, (ConceptAtom, RoleAtom)))


def dump_chase(result: ChaseResult) -> str:
    return f"# depth={result.depth}\n" + result.union.to_text()
