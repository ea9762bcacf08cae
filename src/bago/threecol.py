"""Graph-coloring fixture generator.

Encodes non-3-colorability of a connected graph as a threshold question over
a two-axiom core ontology: a pool of color memberships sized 3|V|+1 forces
every proper 3-coloring to keep the query count at exactly 3|V|+1, while any
improper assignment pushes it to at least twice that, so the threshold
3|V|+2 is certain iff the graph is not 3-colorable. The query built here is
deliberately not rooted; answering it through the engine is refused, and the
fixtures exist for direct model evaluation and corpus purposes.

The kind-R variant replaces the color pool by a role with a role inclusion;
the engine refuses to answer over it altogether.

Graph file: a ``v`` line listing vertices and ``e`` lines for edges.
Coloring file: one ``<vertex> <color>`` line per vertex, colors in r/g/b.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import InvalidGraph, ParseError
from .ontology import (
    BagABox,
    ConceptAssertion,
    ConceptInclusion,
    AtomicConcept,
    ExistsRole,
    Role,
    RoleAssertion,
    RoleInclusion,
    TBox,
    _strip_comment,
)
from .chase import BagInterpretation, interpretation_from_abox
from .query import CQ, ConceptAtom, RoleAtom, Var, connected_components

AUX_VERTEX = "_aux"
COLOR_NAMES = {"r": "_r", "g": "_g", "b": "_b"}

_VERTEX_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")


@dataclass(frozen=True)
class Graph:
    """Undirected, connected, loop-free graph."""

    vertices: tuple[str, ...]
    edges: frozenset[frozenset[str]]

    def __post_init__(self):
        if not self.vertices:
            raise InvalidGraph("graph must have at least one vertex")
        if len(set(self.vertices)) != len(self.vertices):
            raise InvalidGraph("duplicate vertex names")
        for v in self.vertices:
            if not _VERTEX_RE.match(v):
                raise InvalidGraph(f"invalid vertex name {v!r}")
        vset = set(self.vertices)
        for edge in self.edges:
            if len(edge) != 2:
                raise InvalidGraph(f"self-loop or malformed edge {sorted(edge)}")
            if not edge <= vset:
                raise InvalidGraph(f"edge {sorted(edge)} mentions unknown vertices")
        adjacency = {v: set() for v in vset}
        for edge in self.edges:
            a, b = edge
            adjacency[a].add(b)
            adjacency[b].add(a)
        if len(connected_components(self.vertices, adjacency.__getitem__)) > 1:
            raise InvalidGraph("graph must be connected")

    def edge_pairs(self) -> list[tuple[str, str]]:
        return sorted(tuple(sorted(edge)) for edge in self.edges)


def parse_graph(text: str) -> Graph:
    vertices: list[str] = []
    edges: set[frozenset[str]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = _strip_comment(raw).split()
        if not tokens:
            continue
        if tokens[0] == "v":
            vertices.extend(tokens[1:])
        elif tokens[0] == "e":
            if len(tokens) != 3:
                raise ParseError("expected 'e <vertex> <vertex>'", line=lineno)
            edges.add(frozenset(tokens[1:]))
        else:
            raise ParseError(f"unknown graph directive {tokens[0]!r}", line=lineno)
    return Graph(tuple(vertices), frozenset(edges))


def parse_coloring(text: str, graph: Graph) -> dict[str, str]:
    coloring: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = _strip_comment(raw).split()
        if not tokens:
            continue
        if len(tokens) != 2 or tokens[1] not in COLOR_NAMES:
            raise ParseError("expected '<vertex> <r|g|b>'", line=lineno)
        coloring[tokens[0]] = tokens[1]
    missing = set(graph.vertices) - set(coloring)
    if missing:
        raise ParseError(f"vertices without a color: {sorted(missing)}")
    extra = set(coloring) - set(graph.vertices)
    if extra:
        raise ParseError(f"colors for unknown vertices: {sorted(extra)}")
    return coloring


@dataclass(frozen=True)
class ThreeColInstance:
    tbox: TBox
    abox: BagABox
    query: CQ
    threshold: int
    target: tuple[str, ...]
    variant: str


def gen_3col(graph: Graph, variant: str = "core") -> ThreeColInstance:
    """The ontology, query, and threshold encoding non-3-colorability."""
    variant = variant.lower()
    if variant not in ("core", "r"):
        raise ValueError(f"unknown variant {variant!r}")
    n = len(graph.vertices)
    threshold = 3 * n + 2
    aux = AUX_VERTEX
    cr, cg, cb = COLOR_NAMES["r"], COLOR_NAMES["g"], COLOR_NAMES["b"]
    entries: list = []
    for u in graph.vertices:
        entries.append((ConceptAssertion("Vertex", u), 1))
    for u, v in graph.edge_pairs():
        entries.append((RoleAssertion("Edge", u, v), 1))
        entries.append((RoleAssertion("Edge", v, u), 1))
    entries.append((ConceptAssertion("Vertex", aux), 1))
    entries.append((RoleAssertion("Edge", aux, aux), 1))
    entries.append((RoleAssertion("hasColour", aux, cr), 1))

    x, y, z, w = Var("x"), Var("y"), Var("z"), Var("w")
    if variant == "core":
        tbox = TBox(
            {
                ConceptInclusion(AtomicConcept("Vertex"), ExistsRole(Role("hasColour"))),
                ConceptInclusion(ExistsRole(Role("hasColour", True)), AtomicConcept("ACol")),
            }
        )
        entries.append((ConceptAssertion("ACol", cr), n + 1))
        entries.append((ConceptAssertion("ACol", cg), n))
        entries.append((ConceptAssertion("ACol", cb), n))
        query = CQ(
            (),
            (
                RoleAtom("Edge", x, y),
                RoleAtom("hasColour", x, z),
                RoleAtom("hasColour", y, z),
                ConceptAtom("ACol", w),
            ),
        )
        target: tuple[str, ...] = ()
    else:
        tbox = TBox(
            {
                ConceptInclusion(AtomicConcept("Vertex"), ExistsRole(Role("hasColour"))),
                RoleInclusion(Role("hasColour"), Role("Assign")),
            },
            kind="r",
        )
        for u in graph.vertices:
            for c in (cr, cg, cb):
                entries.append((RoleAssertion("Assign", u, c), 1))
        entries.append((RoleAssertion("Assign", aux, cr), 1))
        entries.append((RoleAssertion("Reachable", aux, aux), 1))
        for u in graph.vertices:
            entries.append((RoleAssertion("Reachable", aux, u), 1))
            entries.append((RoleAssertion("Reachable", u, aux), 1))
        for u in graph.vertices:
            for v in graph.vertices:
                if u != v:
                    entries.append((RoleAssertion("Reachable", u, v), 1))
        k, l = Var("k"), Var("l")
        query = CQ(
            (w,),
            (
                RoleAtom("Edge", x, y),
                RoleAtom("hasColour", x, z),
                RoleAtom("hasColour", y, z),
                RoleAtom("Assign", x, w),
                RoleAtom("Assign", y, w),
                RoleAtom("Reachable", x, k),
                RoleAtom("Assign", k, l),
            ),
        )
        target = (cr,)
    return ThreeColInstance(tbox, BagABox(entries), query, threshold, target, variant)


def coloring_model(graph: Graph, coloring: dict[str, str],
                   variant: str = "core") -> BagInterpretation:
    """The model a color assignment induces: the encoding's ABox plus one
    hasColour(u, colour of u) assertion per vertex."""
    colours = [(RoleAssertion("hasColour", u, COLOR_NAMES[coloring[u]]), 1)
               for u in graph.vertices]
    abox = gen_3col(graph, variant).abox
    return interpretation_from_abox(BagABox([*abox.entries(), *colours]))
