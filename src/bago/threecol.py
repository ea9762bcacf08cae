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

Both variants are written as the TBox, ABox and query text a user would
write, and `parse_tbox`, `parse_abox` and `parse_cq` build the instance.

Graph file: a ``v`` line listing vertices and ``e`` lines for edges.
Coloring file: one ``<vertex> <color>`` line per vertex, colors in r/g/b.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import InvalidGraph, ParseError
from .ontology import BagABox, RoleAssertion, TBox, _strip_comment, parse_abox, parse_tbox
from .chase import BagInterpretation, interpretation_from_abox
from .query import CQ, connected_components, parse_cq

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
    aux = AUX_VERTEX
    cr, cg, cb = COLOR_NAMES["r"], COLOR_NAMES["g"], COLOR_NAMES["b"]
    abox = [f"Vertex({u})" for u in graph.vertices]
    for u, v in graph.edge_pairs():
        abox += [f"Edge({u},{v})", f"Edge({v},{u})"]
    abox += [f"Vertex({aux})", f"Edge({aux},{aux})", f"hasColour({aux},{cr})"]
    colouring = "Edge(x, y), hasColour(x, z), hasColour(y, z)"
    if variant == "core":
        tbox = ["Vertex SUB EX hasColour", "EX hasColour- SUB ACol"]
        abox += [f"ACol({cr}) {n + 1}", f"ACol({cg}) {n}", f"ACol({cb}) {n}"]
        query = f"q() :- {colouring}, ACol(w)"
        target: tuple[str, ...] = ()
    else:
        tbox = ["KIND R", "Vertex SUB EX hasColour", "hasColour SUBR Assign"]
        abox += [f"Assign({u},{c})" for u in graph.vertices for c in (cr, cg, cb)]
        abox.append(f"Assign({aux},{cr})")
        ends = (aux, *graph.vertices)
        abox += [f"Reachable({u},{v})" for u in ends for v in ends if u != v or u == aux]
        query = (f"q(w) :- {colouring}, Assign(x, w), Assign(y, w), "
                 "Reachable(x, k), Assign(k, l)")
        target = (cr,)
    return ThreeColInstance(parse_tbox("\n".join(tbox)), parse_abox("\n".join(abox)),
                            parse_cq(query), 3 * n + 2, target, variant)


def coloring_model(graph: Graph, coloring: dict[str, str],
                   variant: str = "core") -> BagInterpretation:
    """The model a color assignment induces: the encoding's ABox plus one
    hasColour(u, colour of u) assertion per vertex."""
    colours = [(RoleAssertion("hasColour", u, COLOR_NAMES[coloring[u]]), 1)
               for u in graph.vertices]
    abox = gen_3col(graph, variant).abox
    return interpretation_from_abox(BagABox([*abox.entries(), *colours]))
