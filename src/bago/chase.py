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
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Iterable, Mapping, Union

from .errors import UnsatisfiableOntology, UnsupportedTBoxKind, combine
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
    domain = {Named(name) for name in abox.individuals()}
    concepts: dict[str, dict[Element, int]] = {}
    roles: dict[str, dict[tuple[Element, Element], int]] = {}
    for assertion, m in abox.items():
        if isinstance(assertion, ConceptAssertion):
            concepts.setdefault(assertion.concept, {})[Named(assertion.individual)] = m
        else:
            pair = (Named(assertion.subject), Named(assertion.object))
            roles.setdefault(assertion.role, {})[pair] = m
    return BagInterpretation(domain, concepts, roles)


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


def _grow(k: BagOntology, depth: int) -> BagInterpretation:
    i = interpretation_from_abox(k.abox)
    # After its first processing step an element is saturated (its closure
    # and role deficits never change again), so later steps only need to
    # process the elements born in the previous one.
    frontier: Iterable[Element] = list(i.domain)
    for _ in range(depth):
        frontier = _stage(i, k.tbox, frontier)
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
