"""Staged construction of the canonical bag model.

Elements are of two kinds. A named individual is its name, a plain `str`. An
anonymous witness is an `Anon(parent, role, index)`: the index-th fresh
role-successor born for its parent. Elements print as their name or as
`_w(parent,role,index)`, and sort names first, then witnesses by depth, then
by (parent, role, index).

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
distance (`_scope`). Witnesses are born down to depth D only. A witness of
depth j has its final concepts from stage j + 1 on, so one more stage
writes the depth-D witnesses' concepts and bears nothing. A homomorphism
reaches a witness from a name only through the witness's ancestors' edges,
so every role on that path is one q names. Witnesses are therefore born
only along role names q mentions, and they carry only concept names q
mentions. Names keep their whole closure.

Stage 1 works on the named individuals one concept column at a time. The
seed columns are the atomic extensions and the EX R / EX R- out-degree sums;
each is pushed, by pointwise max, into the column of every concept it
entails; each atomic column is written in one bulk update; and the names
with the same deficit along a role are born as one run. This column closure
is the one place the chase takes a pointwise max. A witness born for role R
starts with nothing but its R-edge, so every later stage expands it from a
plan fixed per role and read off the TBox (`_witness_plan`): the atomic
concepts and the other EX S that EX R- entails, each at multiplicity 1. The
plans are built once per TBox and kept in `TBox.witness_plans`. The
frontier is kept as runs, one per role, and a plan is applied to a whole run
at once: one bulk update per concept write and one birth per role for all
its witnesses, which are filed into the next stage's runs by role. The
literal per-element construction, one stage at a time, is the tests'
reference in `tests/oracles.py`. A chase that would need more than
MAX_CHASE_ELEMENTS anonymous elements raises ChaseLimitExceeded before
allocating any of the run that would pass it.

Multiplicity enters the chase in one place only. Every birth below depth 1
has count 1 (a witness's plan gives each EX S multiplicity 1), so a deficit
k > 1 is a name's run along one role: k witnesses whose subtrees are
isomorphic. The copies of a run hang from one name, and a witness's
neighbours lie in its own copy or are that name. A homomorphism therefore
enters two distinct copies of a run only through two distinct role atoms,
and a query with r role atoms uses at most max(1, r) copies of any run
(`kept_copies`). The chase to depth d keeps min(k, d) copies of each run;
the chase for a query keeps min(k, kept_copies(q)). Either records the full
k of each run it cuts short (`BagInterpretation.runs`), and `eval_cq`
counts homomorphisms into the full chase over it, exactly. A query with
more role atoms than the copies kept is evaluated over the unfolded chase.
The budget thus bounds the chase's depth and branching, and separately the
unfolded chase that `ChaseResult.stages`, `union` and `bago chase` show.

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
from typing import Callable, Iterable, Mapping, NamedTuple, Optional, Union

from .errors import ChaseLimitExceeded, UnsatisfiableOntology, UnsupportedTBoxKind
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
from .query import CQ, ConceptAtom, Const, RoleAtom

# Budget of anonymous elements for one chase, counting the kept copies of a
# cut run, and for one unfolded chase; one that would pass it raises
# ChaseLimitExceeded before allocating.
MAX_CHASE_ELEMENTS = 1_000_000
# Budget of characters for one dump (`BagInterpretation.to_text`), about 100
# per element of a chase at the element budget. A witness prints as its whole
# ancestry, so a deep chase's dump grows with the square of its depth; one
# that would pass the budget raises ChaseLimitExceeded before building a line.
MAX_DUMP_CHARS = 100_000_000


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
        return _texts(_ranks([self]))[self]

    __repr__ = __str__


# A named element is its individual name.
Element = Union[str, Anon]


def _ranks(elements: Iterable[Element]) -> dict[Element, int]:
    """Positions in the canonical element order, for the elements and their ancestors.

    Names come first, sorted; witnesses follow level by level, shallower
    first, and a level sorts by (parent's rank, role, index). That is the
    order of comparing ancestor paths from the root down, computed without
    building the paths.
    """
    levels: list[list[Element]] = [[]]
    seen: set[Element] = set()
    for el in elements:
        while el not in seen:
            seen.add(el)
            if type(el) is not Anon:
                levels[0].append(el)
                break
            levels.extend([] for _ in range(el.depth + 1 - len(levels)))
            levels[el.depth].append(el)
            el = el.parent
    rank = {name: r for r, name in enumerate(sorted(levels[0]))}
    for level in levels[1:]:
        level.sort(key=lambda w: (rank[w.parent], w.role.name, w.role.inverted, w.index))
        for w in level:
            rank[w] = len(rank)
    return rank


def _text_lengths(elements: Iterable[Element]) -> dict[Element, int]:
    """The length of each element's text (see `_texts`), and of its ancestors'.

    Each length is its parent's plus its own part, so a walk goes up to a
    known length and back down; nothing is sorted.
    """
    size: dict[Element, int] = {}
    for el in elements:
        path = []
        while type(el) is Anon and el not in size:
            path.append(el)
            el = el.parent
        n = size.get(el)
        if n is None:
            n = size[el] = len(el)
        for w in reversed(path):
            # "_w(" parent "," role "," index ")"; an inverse role adds "-".
            n += len(w.role.name) + w.role.inverted + len(str(w.index)) + 6
            size[w] = n
    return size


def _texts(rank: Mapping[Element, int]) -> dict[Element, str]:
    """Each ranked element's text, built once: a witness ranks after its parent."""
    text: dict[Element, str] = {}
    for el in rank:
        text[el] = el if type(el) is str else f"_w({text[el.parent]},{el.role},{el.index})"
    return text


def ordered(elements: Iterable[Element]) -> list[Element]:
    """The elements in canonical order (see `_ranks`)."""
    elements = list(elements)
    return sorted(elements, key=_ranks(elements).__getitem__)


class BagInterpretation:
    """Finite bag interpretation, each edge stored in its two ends' rows.

    `names` holds the domain's named individuals. A witness born by `_bear`
    has its edge to its parent stored once, in the parent's row. The
    witness's own row, its inverse-role counterpart, follows from `w.parent`
    and `w.role`; it is written on first read, per role name and direction
    (`_derive_rows`), and then equals what `_add_edge` would have written.
    `roles` is built from the forward rows when it is read.

    A chase may cut runs short: `runs` maps each cut run, as (parent name,
    role name, inverted), to its full count, and `kept` is the number of
    copies it keeps of each, Anon(parent, role, 1..kept). `unfolded()` is the
    interpretation with every run at its full count.
    """

    def __init__(
        self,
        domain: Iterable[Element],
        concepts: Mapping[str, Mapping[Element, int]],
        roles: Mapping[str, Mapping[tuple[Element, Element], int]],
    ):
        self.domain = set(domain)
        self.names: set[str] = {el for el in self.domain if type(el) is str}
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
        self.kept = 0
        self._unfold: Optional[Callable[[], BagInterpretation]] = None
        for name, ext in roles.items():
            for (u, v), m in ext.items():
                if m > 0:
                    if u not in self.domain or v not in self.domain:
                        raise ValueError(f"pair ({u},{v}) outside the domain")
                    self._add_edge(name, (u, v), m)

    def _add_edge(self, name: str, pair: tuple[Element, Element], m: int) -> None:
        u, v = pair
        row = self._rows[False].setdefault(name, {}).setdefault(u, {})
        if v not in row:
            self._edges[name] = self._edges.get(name, 0) + 1
        row[v] = m
        self._rows[True].setdefault(name, {}).setdefault(v, {})[u] = m

    def _bear(self, parents: Sequence[Element], role: Role, count: int) -> list[Anon]:
        """Give each parent `count` fresh witnesses along `role`; return them all.

        Only the parents' rows are written: each witness is one entry of
        multiplicity 1 in its parent's row along `role`. A run of names is
        written parent by parent, merged into the ABox edges a name may have
        along `role`. A run of witnesses has no row along `role` yet, and
        `count` is 1 for it: a witness's plan is the closure of EX R- at
        multiplicity 1, so each of its births has deficit 1. Its rows are
        written in one bulk update.
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

    def unfolded(self) -> "BagInterpretation":
        """This interpretation with every cut run at its full count."""
        return self._unfold() if self.runs else self

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
        return ordered(el for el in self.domain if type(el) is Anon)

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

    def to_text(self) -> str:
        if self.runs:
            return self.unfolded().to_text()
        # A line is its predicate, elements and multiplicity, plus two
        # parentheses, a space and a newline, and a comma between two elements.
        size = _text_lengths(self.domain)
        chars = sum(len(name) + size[el] + len(str(m)) + 4
                    for name, ext in self.concepts.items() for el, m in ext.items())
        chars += sum(len(name) + size[u] + size[v] + len(str(m)) + 5
                     for name in self._edges for u, row in self.rows(name).items()
                     for v, m in row.items())
        if chars > MAX_DUMP_CHARS:
            raise ChaseLimitExceeded(
                f"the chase dump needs {chars:,} characters, more than its budget of "
                f"{MAX_DUMP_CHARS:,}: a witness prints as its whole ancestry"
            )
        rank = _ranks(self.domain)
        roles = self.roles
        text = _texts(rank)
        lines = []
        for name in sorted(self.concepts):
            for el, m in sorted(self.concepts[name].items(),
                                key=lambda kv: rank[kv[0]]):
                lines.append(f"{name}({text[el]}) {m}")
        for name in sorted(roles):
            for (u, v), m in sorted(roles[name].items(),
                                    key=lambda kv: (rank[kv[0][0]], rank[kv[0][1]])):
                lines.append(f"{name}({text[u]},{text[v]}) {m}")
        return "\n".join(lines) + ("\n" if lines else "")


def _once(build: Callable[[], BagInterpretation]) -> Callable[[], BagInterpretation]:
    """`build`, run on the first call only. A chase makes one or two of these
    and may never call them; `functools.cache` takes several times as long to
    set up."""
    made: list[BagInterpretation] = []

    def get() -> BagInterpretation:
        if not made:
            made.append(build())
        return made[0]

    return get


def interpretation_from_abox(abox: BagABox) -> BagInterpretation:
    """Stage 0: assertions become extensions over the named individuals."""
    i = BagInterpretation(abox.individuals(), {}, {})
    for a, m in abox.entries():
        if isinstance(a, ConceptAssertion):
            i.concepts.setdefault(a.concept, {})[a.individual] = m
        else:
            i._add_edge(a.role, (a.subject, a.object), m)
    return i


def _witness_plan(tbox: TBox, role: Role) -> tuple:
    """A witness's plan: (name, 1) for each atomic concept and (S, 1) for each
    other EX S that its seed EX R- entails, both sorted."""
    seed = ExistsRole(role.inverse)
    entailed = tbox.concepts_entailed_by(seed)
    writes = sorted((c.name, 1) for c in entailed if isinstance(c, AtomicConcept))
    births = sorted((c.role, 1) for c in entailed if isinstance(c, ExistsRole) and c != seed)
    return tuple(writes), tuple(births)


class _Scope(NamedTuple):
    """What of the chase a rooted query can reach: witnesses down to depth
    `reach`, along the role names in `roles`, with the concept names in
    `concepts`."""

    reach: int
    roles: frozenset[str]
    concepts: frozenset[str]


def _scope(q: CQ) -> Optional[_Scope]:
    """q's scope, or None when a Gaifman class lies apart from every root.

    `reach` is the largest distance from a class that holds an answer
    variable or an individual: such a class maps to a name, and the chase is
    a forest, so a class at distance d maps to a witness of depth at most d.
    """
    graph, eq = q.gaifman(), q.equality_classes()
    layer = {eq.class_of(t) for t in q.answer_vars}
    layer.update(eq.class_of(t) for a in q.atoms for t in a.terms if type(t) is Const)
    seen, reach = set(layer), -1
    while layer:
        reach += 1
        ahead = set()
        for c in layer:
            ahead |= graph.neighbours(c)
        layer = ahead - seen
        seen |= layer
    if len(seen) < len(graph.nodes):
        return None
    return _Scope(reach,
                  frozenset(a.role for a in q.atoms if isinstance(a, RoleAtom)),
                  frozenset(a.concept for a in q.atoms if isinstance(a, ConceptAtom)))


def _grow(k: BagOntology, depth: int, copies: Optional[int] = None,
          scope: Optional[_Scope] = None) -> BagInterpretation:
    """Chase k to `depth` in place, by columns and runs: what iterating the
    reference stage in `tests/oracles.py` builds one element at a time.

    Stage 1 closes the named individuals one concept column at a time, and
    the names with the same deficit along a role form one run. Every later
    stage expands its frontier a run at a time: the witnesses born along one
    role share one plan, so each concept write is one bulk update. Each run
    gets one budget check and one `_bear`. With `copies`, each name keeps at
    most that many copies of its run along a role, and the full counts of the
    runs cut short go to `runs`. With a `scope`, witnesses are born along its
    roles only and down to its reach only, a witness's plan writes its
    concepts only, and the stage after the reach writes without bearing.
    """
    i = interpretation_from_abox(k.abox)
    tbox, concepts = k.tbox, i.concepts
    reach = depth if scope is None else min(depth, scope.reach)
    anonymous = 0

    def expand(run: Sequence[Element], plan: tuple, runs: dict[Role, list[Anon]]) -> None:
        """Apply the plan to every element of the run; file the births in `runs`."""
        nonlocal anonymous
        writes, births = plan
        for name, m in writes:
            concepts.setdefault(name, {}).update(dict.fromkeys(run, m))
        for role, count in births:
            anonymous += len(run) * count
            if anonymous > MAX_CHASE_ELEMENTS:
                raise ChaseLimitExceeded(
                    f"the chase needs more than {MAX_CHASE_ELEMENTS:,} anonymous "
                    "elements: its depth and branching, or the runs it unfolds, "
                    "pass the budget"
                )
            runs.setdefault(role, []).extend(i._bear(run, role, count))

    plans: dict[Role, tuple] = {}

    def plan_of(role: Role) -> tuple:
        """The witness plan of `role`, restricted to the scope."""
        plan = plans.get(role)
        if plan is None:
            plan = tbox.witness_plans.get(role)
            if plan is None:
                plan = tbox.witness_plans[role] = _witness_plan(tbox, role)
            if scope is not None:
                writes, births = plan
                plan = (tuple(w for w in writes if w[0] in scope.concepts),
                        tuple(b for b in births if b[0].name in scope.roles))
            plans[role] = plan
        return plan

    if depth == 0:
        return i
    # Seed columns: atomic extensions (read before any write below) and
    # EX R / EX R- out-degree sums.
    seeds: dict[Concept, dict[Element, int]] = {AtomicConcept(n): e for n, e in concepts.items()}
    for name in i._edges:
        for inverted in (False, True):
            seeds[ExistsRole(Role(name, inverted))] = {
                u: sum(row.values()) for u, row in i.rows(name, inverted).items()}
    closure: dict[Concept, dict[Element, int]] = {}
    for c0, column in seeds.items():
        for c in tbox.concepts_entailed_by(c0):
            col = closure.setdefault(c, {})
            col.update({u: m for u, m in column.items() if u not in col or col[u] < m})
    births = []
    for c, column in closure.items():
        if isinstance(c, AtomicConcept):
            concepts.setdefault(c.name, {}).update(column)
            continue
        if reach == 0 or scope is not None and c.role.name not in scope.roles:
            continue
        seed, deficits = seeds.get(c, {}), {}
        for u, m in column.items():
            if u not in seed or seed[u] < m:
                deficits.setdefault(m - seed.get(u, 0), []).append(u)
        births += [(c.role, count, run) for count, run in deficits.items()]
    # The frontier of the next stage, as one run of witnesses per role. Each
    # run of names has a plan of one birth and no writes.
    frontier: dict[Role, list[Anon]] = {}
    for role, count, run in sorted(births, key=lambda b: b[:2]):
        if copies is not None and count > copies:
            i.runs.update(dict.fromkeys([(u, role.name, role.inverted) for u in run], count))
            count = copies
        expand(run, ((), ((role, count),)), frontier)
    if i.runs:
        i.kept, i._unfold = copies, _once(lambda: _grow(k, depth, None, scope))

    # Stage j expands the witnesses of depth j - 1; past the reach it only writes.
    for stage in range(2, min(depth, reach + 1) + 1):
        if not frontier:  # the chase terminated; later stages add nothing
            break
        runs: dict[Role, list[Anon]] = {}
        for role, run in frontier.items():
            writes, births = plan_of(role)
            expand(run, (writes, births if stage <= reach else ()), runs)
        frontier = runs
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
    """Stages 0..depth with every run unfolded, and the last stage as the
    chase built it (`_counted`; None when it is the last stage itself): with
    at most `depth` copies of each run, or, for a query, bounded by it."""

    stages: Sequence[BagInterpretation]
    depth: int
    _counted: Optional[BagInterpretation] = None

    @property
    def union(self) -> BagInterpretation:
        # Stages grow monotonically, so their bag union is the last stage.
        return self.stages[-1]

    @property
    def counted(self) -> BagInterpretation:
        """The interpretation `certain_answers` evaluates: the union with its
        runs cut short, and for a query, only what the query can reach."""
        return self.union if self._counted is None else self._counted


def chase(k: BagOntology, depth: int, query: Optional[CQ] = None) -> ChaseResult:
    """Stages 0..depth of the canonical bag model of a satisfiable ontology.

    With a query, `counted` is built for that query alone: what a rooted
    query can reach of the chase (`_scope`), with `kept_copies(query)` copies
    of each run. Its answers over it are its answers over the last stage.
    """
    if k.tbox.kind != CORE:
        raise UnsupportedTBoxKind("the canonical bag model is defined for core TBoxes")
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    if not is_satisfiable(k):
        raise UnsatisfiableOntology("the ontology has no bag model")
    if query is None:
        last = _grow(k, depth, depth)
        full = last.unfolded
    else:
        last = _grow(k, depth, kept_copies(query), _scope(query))
        full = _once(lambda: _grow(k, depth))
    # The chase is deterministic, so rerunning it to depth j rebuilds stage j.
    return ChaseResult(_View(depth + 1, lambda j: full() if j == depth else _grow(k, j)),
                       depth, last)


def required_depth(q: CQ) -> int:
    """Concept/role atom count (with repetitions): a lossless chase depth for rooted q."""
    return sum(1 for a in q.atoms if isinstance(a, (ConceptAtom, RoleAtom)))


def kept_copies(q: CQ) -> int:
    """Copies of each run that q's homomorphisms can enter: its role atom count
    (with repetitions), at least 1.

    The copies of a run hang from one name, and a witness's neighbours lie
    in its own copy or are that name, so a homomorphism that enters two
    distinct copies does so through two distinct role atoms.
    """
    return max(1, sum(1 for a in q.atoms if isinstance(a, RoleAtom)))


def dump_chase(result: ChaseResult) -> str:
    return f"# depth={result.depth}\n" + result.union.to_text()
