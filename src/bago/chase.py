"""Staged construction of the canonical bag model.

Elements are of two kinds. A named individual is its name, a plain `str`. An
anonymous witness is an `Anon(parent, role, index)`: the index-th fresh
role-successor born for its parent. Elements print as their name or as
`_w(parent,role,index)`, and sort names first, then witnesses by depth, then
by (parent, role, index). A dump (`BagInterpretation.lines`) defines each
witness once, as `@N = _w(P,R,i)` with P a name or an earlier id, and names
it `@N` in its facts, so a dump is linear in the chase's size and no line's
length grows with its depth.

Stage 0 reads the bag ABox as an interpretation over the named individuals.
Each later stage (i) resets every old element's concept multiplicities to its
concept-closure values over the previous stage and (ii) repairs every
existential deficit delta = ccl(u)(EX R) - (EX R)(u) by attaching delta fresh
witnesses, each with one role edge of multiplicity 1 and no concepts yet.

Stages grow monotonically under bag containment, so the bag union of stages
0..d equals stage d: the chase grows one interpretation in place and keeps
only the last; `ChaseResult.stages` rebuilds an earlier stage by chasing to
that depth. A rooted query with n concept/role atoms has all its answers over
stage n, which is why callers always pass an explicit depth.

A rooted query meets far less than stage n, and `chase(k, n, query=q)`
builds `counted` from only that part. The chase is a forest hanging from the
names, and a class of q's variables that holds an answer variable or an
individual maps to a name. So a class at Gaifman distance δ from such a
class maps to a witness of depth at most δ. Let D be the largest such
distance, `q.reach`: `_grow` bears witnesses down to depth D only. A
witness of depth j has its final concepts from stage j + 1 on, so one more
stage writes the depth-D witnesses' concepts and bears nothing. A homomorphism
reaches a witness from a name only through the witness's ancestors' edges,
so every role on that path is one q names. Witnesses are therefore born
only along role names q mentions, and every element, name or witness, is
written only the concept names q mentions; a name's stage-0 ABox facts stay.

The chase runs one loop of stages, each over seed columns, never per
element. Stage 1's seeds are the names' atomic extensions and their EX R /
EX R- out-degree sums; a later stage's seeds are EX R- at multiplicity 1 for
every witness born along R in the stage before, the one fact such a witness
has. Each stage pushes every seed column into the column of every concept it
entails, taking the pointwise max (`combine("max-union")`) where two meet;
writes each atomic column in one bulk update; and groups each EX R column's
deficits by (role, count) into runs, which are born a run at a time. An
element is closed once, the stage after its birth: its seeds do not change
afterwards. The literal per-element construction, one stage at a time, is
the tests' reference in `tests/oracles.py`. A chase that would need more
than MAX_CHASE_ELEMENTS anonymous elements raises ChaseLimitExceeded before
allocating any of the run that would pass it.

Multiplicity enters the chase in one place only. Every birth below depth 1
has count 1 (a witness's one seed has multiplicity 1), so a deficit
k > 1 is a name's run along one role: k witnesses whose subtrees are
isomorphic. The copies of a run hang from one name, and a witness's
neighbours lie in its own copy or are that name. A homomorphism therefore
enters two distinct copies of a run only through two distinct role atoms,
and a query with r role atoms uses at most max(1, r) copies of any run
(`kept_copies`). The chase for a query q keeps min(k, kept_copies(q))
copies of each run and records q and the full k of each run it cuts short
(`BagInterpretation.runs`); `eval_cq` counts q's homomorphisms into the full
chase over it, exactly, and evaluates any other query over the full last
stage. That stage, every run at its full count, is the chase with no query,
`ChaseResult.union` and what `bago chase` prints. The budget bounds each.

An interpretation stores each edge once per direction, in the rows of its
two ends, and nothing else: `roles` is built from the forward rows when
read. A birth writes one entry, the witness in its parent's row along the
role. The witness's own row follows from `w.parent` and `w.role`;
`BagInterpretation` derives it when it is first read, per role name and
direction, equal to what the reference construction stores.
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, Optional, Union

from .errors import ChaseLimitExceeded, UnsatisfiableOntology, UnsupportedTBoxKind, combine
from .ontology import (
    CORE,
    AtomicConcept,
    BagABox,
    BagOntology,
    Concept,
    ExistsRole,
    Role,
    is_satisfiable,
)
from .query import CQ, ConceptAtom, RoleAtom

# Budget of anonymous elements for one chase, the full last stage or a query's
# chase with the copies it keeps of each run; one that would pass it raises
# ChaseLimitExceeded before allocating. It bounds a dump too: each line of
# one has bounded length (see `BagInterpretation.lines`).
MAX_CHASE_ELEMENTS = 1_000_000


class Anon:
    """The index-th fresh role-successor born for `parent`, a name or a witness.

    Hash and depth (1 under a name) are fixed at birth; nothing recurses on
    the parent chain, so a witness may sit any number of levels deep.
    """

    __slots__ = ("parent", "role", "index", "depth", "_hash")

    def __init__(self, parent: "Element", role: Role, index: int):
        self.parent, self.role, self.index = parent, role, index
        # Every part hashes in C: the parent's stored hash (a name's own hash),
        # the role's name and direction, and the index.
        if type(parent) is Anon:
            self.depth, up = parent.depth + 1, parent._hash
        else:
            self.depth, up = 1, hash(parent)
        self._hash = hash((up, role.name, role.inverted, index))

    def __eq__(self, other):
        a, b = self, other
        while type(a) is Anon and a is not b:
            if type(b) is not Anon or (a._hash, a.index, a.role) != (b._hash, b.index, b.role):
                return False
            a, b = a.parent, b.parent
        return a is b or a == b

    def __hash__(self):
        return self._hash

    def __str__(self):
        # One walk up the parent chain; the levels are written top down.
        steps, el = [], self
        while type(el) is Anon:
            steps.append(f",{el.role},{el.index})")
            el = el.parent
        return "_w(" * len(steps) + el + "".join(reversed(steps))

    __repr__ = __str__


# A named element is its individual name.
Element = Union[str, Anon]


def _ranks(domain: Iterable[Element]) -> dict[Element, int]:
    """Positions in the canonical order of a domain's elements, in that order.

    Names come first, sorted; witnesses follow level by level, shallower
    first, and a level sorts by (parent's rank, role, index). That is the
    order of comparing ancestor paths from the root down, computed without
    building the paths. A domain holds every witness's parent, so each
    parent is ranked before its children's level is sorted.
    """
    levels: dict[int, list[Element]] = {0: []}
    for el in domain:
        levels.setdefault(el.depth if type(el) is Anon else 0, []).append(el)
    rank = {name: r for r, name in enumerate(sorted(levels.pop(0)))}
    for depth in sorted(levels):
        level = levels[depth]
        level.sort(key=lambda w: (rank[w.parent], w.role.name, w.role.inverted, w.index))
        for w in level:
            rank[w] = len(rank)
    return rank


class BagInterpretation:
    """Finite bag interpretation, each edge stored in its two ends' rows.

    A witness born by `_bear` has its edge to its parent stored once, in the
    parent's row. The witness's own row, its inverse-role counterpart,
    follows from `w.parent` and `w.role`; it is written on first read, per
    role name and direction (`_derive_rows`), and then equals what
    `_add_role` would have written. `roles` is built from the forward rows
    when it is read.

    A chase built for a `query` may cut runs short: `runs` maps each cut
    run, as (parent name, role name, inverted), to its full count, of which
    it keeps Anon(parent, role, 1..kept_copies(query)). `full()` builds, once,
    the full last stage that such a chase stands for.
    """

    def __init__(
        self,
        domain: Iterable[Element],
        concepts: Mapping[str, Mapping[Element, int]],
        roles: Mapping[str, Mapping[tuple[Element, Element], int]],
    ):
        self.domain = set(domain)
        for el in self.domain:
            if type(el) is Anon and el.parent not in self.domain:
                raise ValueError(f"witness {el} without its parent in the domain")
        self.concepts: dict[str, dict[Element, int]] = {}
        for name, ext in concepts.items():
            for el, m in ext.items():
                if m > 0:
                    if el not in self.domain:
                        raise ValueError(f"element {el} outside the domain")
                    self.concepts.setdefault(name, {})[el] = m
        # Rows by direction: successors along R at [False], along R- at [True].
        self._rows: tuple[dict[str, dict[Element, dict[Element, int]]], ...] = ({}, {})
        # Each role name with an edge, mapped to its number of edges.
        self._edges: dict[str, int] = {}
        # Births whose witness-side rows, by (role name, direction of the
        # row), are not written yet.
        self._unrowed: dict[tuple[str, bool], list[list[Anon]]] = {}
        self.runs: dict[tuple[str, str, bool], int] = {}
        self.query: Optional[CQ] = None
        self.full: Optional[Callable[[], BagInterpretation]] = None
        for name, ext in roles.items():
            pairs = {pair: m for pair, m in ext.items() if m > 0}
            for u, v in pairs:
                if u not in self.domain or v not in self.domain:
                    raise ValueError(f"pair ({u},{v}) outside the domain")
            if pairs:
                self._add_role(name, pairs)

    def _add_role(self, name: str, pairs: Mapping[tuple[Element, Element], int]) -> None:
        """Write a role's extension, each pair in the rows of both its ends."""
        forward = self._rows[False].setdefault(name, {})
        backward = self._rows[True].setdefault(name, {})
        for (u, v), m in pairs.items():
            forward.setdefault(u, {})[v] = m
            backward.setdefault(v, {})[u] = m
        self._edges[name] = len(pairs)

    def _bear(self, parents: Sequence[Element], role: Role, count: int) -> list[Anon]:
        """Give each parent `count` fresh witnesses along `role`; return them all.

        Only the parents' rows are written: each witness is one entry of
        multiplicity 1 in its parent's row along `role`. A run of names is
        written parent by parent, merged into the ABox edges a name may have
        along `role`. A run of witnesses has no row along `role` yet, and
        `count` is 1 for it: a witness's one seed, EX R- at multiplicity 1,
        gives each of its deficits 1. Its rows are written in one bulk update.
        """
        name, inverted = role.name, role.inverted
        index = self._rows[inverted].setdefault(name, {})
        if type(parents[0]) is str:
            born = []
            for u in parents:
                kids = [Anon(u, role, j) for j in range(1, count + 1)]
                index.setdefault(u, {}).update(dict.fromkeys(kids, 1))
                born += kids
        else:
            born = [Anon(u, role, 1) for u in parents]
            index.update(zip(parents, [{w: 1} for w in born]))
        size = len(self.domain)
        self.domain.update(born)
        if len(self.domain) != size + len(born):  # stabilization makes this unreachable
            raise AssertionError(f"a witness along {role} was created twice")
        self._edges[name] = self._edges.get(name, 0) + len(born)
        self._unrowed.setdefault((name, not inverted), []).append(born)
        return born

    def _derive_rows(self, name: str, inverted: bool) -> None:
        """Write the rows along (name, inverted) of the witnesses born the other way.

        Such a row holds the witness's parent alone: a witness born along R
        has EX R- at multiplicity 1 as its seed, so it bears nothing along R-.
        """
        index = self._rows[inverted].setdefault(name, {})
        for born in self._unrowed.pop((name, inverted)):
            for w in born:
                index[w] = {w.parent: 1}

    @property
    def roles(self) -> dict[str, dict[tuple[Element, Element], int]]:
        """Each role's extension: its pairs mapped to their multiplicities."""
        return {name: {(u, v): m for u, row in self.rows(name).items() for v, m in row.items()}
                for name in self._edges}

    def edge_count(self, name: str) -> int:
        """The number of pairs in the role's extension, without deriving any."""
        return self._edges.get(name, 0)

    def concept_mult(self, name: str, el: Element) -> int:
        return self.concepts.get(name, {}).get(el, 0)

    def role_mult(self, name: str, u: Element, v: Element) -> int:
        return self.rows(name).get(u, {}).get(v, 0)

    def rows(self, name: str, inverted: bool = False) -> dict[Element, dict[Element, int]]:
        """Each element with successors along the role, mapped to them."""
        if (name, inverted) in self._unrowed:
            self._derive_rows(name, inverted)
        return self._rows[inverted].get(name, {})

    def successors(self, role: Role, u: Element) -> dict[Element, int]:
        return self.rows(role.name, role.inverted).get(u, {})

    def exists_mult(self, role: Role, u: Element) -> int:
        return sum(self.successors(role, u).values())

    def anonymous(self) -> list[Anon]:
        """The witnesses in canonical order (see `_ranks`)."""
        return [el for el in _ranks(self.domain) if type(el) is Anon]

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
                f"concepts={sorted(self.concepts)}, roles={sorted(self._edges)})")

    def lines(self) -> Iterator[str]:
        """Each witness named once, then every fact, one line each, as they
        are written.

        A witness is `@N`, its 1-based position among the witnesses in the
        canonical order, defined by a line `@N = _w(P,R,i)` whose parent P is
        a name or an earlier id. The definitions come first; then each
        concept's facts and each role's, in the order of their elements.
        """
        if self.query is not None:
            yield from self.full().lines()
            return
        rank = _ranks(self.domain)
        names = sum(type(el) is str for el in rank)  # ranked before every witness

        def text(el: Element) -> str:
            return el if type(el) is str else f"@{rank[el] - names + 1}"

        for el in rank:
            if type(el) is Anon:
                yield f"{text(el)} = _w({text(el.parent)},{el.role},{el.index})\n"
        for name in sorted(self.concepts):
            for el, m in sorted(self.concepts[name].items(), key=lambda kv: rank[kv[0]]):
                yield f"{name}({text(el)}) {m}\n"
        for name in sorted(self._edges):
            rows = self.rows(name)
            for u in sorted(rows, key=rank.__getitem__):
                for v, m in sorted(rows[u].items(), key=lambda kv: rank[kv[0]]):
                    yield f"{name}({text(u)},{text(v)}) {m}\n"

    def to_text(self) -> str:
        return "".join(self.lines())


def _once(build: Callable[[], BagInterpretation]) -> Callable[[], BagInterpretation]:
    """`build`, run on the first call only. A query's chase makes one and may
    never call it; `functools.cache` takes several times as long to set up."""
    made: list[BagInterpretation] = []

    def get() -> BagInterpretation:
        if not made:
            made.append(build())
        return made[0]

    return get


def interpretation_from_abox(abox: BagABox) -> BagInterpretation:
    """Stage 0: the ABox's name relations become extensions over the named individuals."""
    i = BagInterpretation(abox.individuals(), {}, {})
    for (name, arity), rel in abox.relations.items():
        if arity == 1:
            i.concepts[name] = {a: m for (a,), m in rel.items()}
        else:
            i._add_role(name, rel)
    return i


def _grow(k: BagOntology, depth: int, query: Optional[CQ] = None,
          full: Optional[Callable[[], BagInterpretation]] = None) -> BagInterpretation:
    """Chase k to `depth` in place, one stage of seed columns at a time; for a
    query, recorded with `full`, cut its runs to `kept_copies`, and for a
    rooted one bear witnesses down to depth `query.reach` only, along the role
    names it mentions, and write only the concept names it mentions."""
    i = interpretation_from_abox(k.abox)
    tbox, concepts = k.tbox, i.concepts
    copies = None if query is None else kept_copies(query)
    i.query, i.full = query, full
    scoped = query is not None and query.reach is not None
    reach = min(depth, query.reach) if scoped else depth
    if scoped:
        roles = {a.role for a in query.atoms if isinstance(a, RoleAtom)}
        named = {a.concept for a in query.atoms if isinstance(a, ConceptAtom)}
    anonymous = 0
    # Stage 1's seed columns: atomic extensions (read before any write below)
    # and EX R / EX R- out-degree sums.
    seeds: dict[Concept, dict[Element, int]] = {AtomicConcept(n): e for n, e in concepts.items()}
    for name in i._edges:
        for inverted in (False, True):
            seeds[ExistsRole(Role(name, inverted))] = {
                u: sum(row.values()) for u, row in i.rows(name, inverted).items()}
    for stage in range(1, min(depth, reach + 1) + 1):
        if not seeds:  # the chase terminated; later stages add nothing
            break
        closure: dict[Concept, dict[Element, int]] = {}
        for c0, column in seeds.items():
            for c in tbox.concepts_entailed_by(c0):
                col = closure.setdefault(c, column)
                if col is not column:
                    closure[c] = combine("max-union", col, column)
        births = []
        for c, column in closure.items():
            if isinstance(c, AtomicConcept):
                if not scoped or c.name in named:
                    concepts.setdefault(c.name, {}).update(column)
                continue
            if stage > reach or scoped and c.role.name not in roles:
                continue
            seed, deficits = seeds.get(c, {}), {}
            if column is seed:  # c's own seed alone reaches c: no deficit
                continue
            for u, m in column.items():
                m -= seed.get(u, 0) if seed else 0
                if m > 0:
                    deficits.setdefault(m, []).append(u)
            births += [(c.role, count, run) for count, run in deficits.items()]
        # The witnesses born along R are the next stage's seeds: EX R- at 1.
        seeds = {}
        for role, count, run in sorted(births, key=lambda b: b[:2]):
            if copies is not None and count > copies:
                i.runs.update(dict.fromkeys([(u, role.name, role.inverted) for u in run], count))
                count = copies
            anonymous += len(run) * count
            if anonymous > MAX_CHASE_ELEMENTS:
                raise ChaseLimitExceeded(
                    f"the chase needs more than {MAX_CHASE_ELEMENTS:,} anonymous "
                    "elements: its depth and branching pass the budget"
                )
            born = i._bear(run, role, count)
            seeds.setdefault(ExistsRole(role.inverse), {}).update(dict.fromkeys(born, 1))
    return i


class _View(Sequence):
    """A read-only sequence whose items are built when read."""

    def __init__(self, length: int, build: Callable[[int], object]):
        self._length, self._build = length, build

    def __len__(self):
        return self._length

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self[j] for j in range(*index.indices(self._length)))
        j = index + self._length if index < 0 else index
        if not 0 <= j < self._length:
            raise IndexError("view index out of range")
        return self._build(j)


@dataclass(frozen=True)
class ChaseResult:
    """Stages 0..depth, each built when read but the last, and the chase that
    `certain_answers` evaluates (`_counted`; None when it is the last stage
    itself): the last stage, or a query's chase of it."""

    stages: Sequence[BagInterpretation]
    depth: int
    _counted: Optional[BagInterpretation] = None

    @property
    def union(self) -> BagInterpretation:
        # Stages grow monotonically, so their bag union is the last stage.
        return self.stages[-1]

    @property
    def counted(self) -> BagInterpretation:
        """The interpretation `certain_answers` evaluates: for a query, only
        what it can reach of the union, with its runs cut short."""
        return self.union if self._counted is None else self._counted


def chase(k: BagOntology, depth: int, query: Optional[CQ] = None) -> ChaseResult:
    """Stages 0..depth of the canonical bag model of a satisfiable ontology.

    With no query, the last stage is built at once. With a query, `counted`
    is built for that query alone: what a rooted query can reach of the chase
    (witnesses down to depth `query.reach`, along the role names it mentions,
    with only the concept names it mentions), with `kept_copies(query)`
    copies of each run. Its answers over it are its answers over the last
    stage, which `union` builds when read.
    """
    if k.tbox.kind != CORE:
        raise UnsupportedTBoxKind("the canonical bag model is defined for core TBoxes")
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    if not is_satisfiable(k):
        raise UnsatisfiableOntology("the ontology has no bag model")
    full = _once(lambda: _grow(k, depth))
    counted = full() if query is None else _grow(k, depth, query, full)
    # The chase is deterministic, so rerunning it to depth j rebuilds stage j.
    return ChaseResult(_View(depth + 1, lambda j: full() if j == depth else _grow(k, j)),
                       depth, counted)


def required_depth(q: CQ) -> int:
    """Concept/role atom count (with repetitions): a lossless chase depth for rooted q."""
    return sum(1 for a in q.atoms if isinstance(a, (ConceptAtom, RoleAtom)))


def kept_copies(q: CQ) -> int:
    """Copies of each run that q's homomorphisms can enter (see the module
    docstring): its role atom count, with repetitions, at least 1."""
    return max(1, sum(1 for a in q.atoms if isinstance(a, RoleAtom)))


def dump_lines(result: ChaseResult) -> Iterator[str]:
    """`bago chase`'s output, a line at a time: the depth, then the last stage."""
    yield f"# depth={result.depth}\n"
    yield from result.union.lines()


def dump_chase(result: ChaseResult) -> str:
    return "".join(dump_lines(result))
