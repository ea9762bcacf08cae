import hashlib
import random

import pytest

from bago import (
    BagOntology,
    InvalidGraph,
    NotRooted,
    UnsupportedTBoxKind,
    certain_answers,
    coloring_model,
    eval_cq,
    gen_3col,
    is_rooted,
    is_satisfiable,
    parse_abox,
    parse_cq,
    parse_coloring,
    parse_graph,
    parse_tbox,
)
from bago.cli import main
from bago.ontology import ConceptAssertion
from bago.threecol import COLOR_NAMES, Graph
from oracles import hand_built_coloring_model

TRIANGLE = "v u1 u2 u3\ne u1 u2\ne u2 u3\ne u1 u3\n"


def test_graph_parsing_and_validation():
    g = parse_graph(TRIANGLE)
    assert g.vertices == ("u1", "u2", "u3")
    assert len(g.edges) == 3
    with pytest.raises(InvalidGraph):
        parse_graph("v a\ne a a\n")
    with pytest.raises(InvalidGraph):
        parse_graph("v a b\ne a c\n")
    with pytest.raises(InvalidGraph):
        parse_graph("v a b c\ne a b\n")  # c disconnected
    with pytest.raises(InvalidGraph):
        Graph((), frozenset())
    parse_graph("v lonely\n")  # a single vertex is connected


def test_gen_3col_schedule():
    inst = gen_3col(parse_graph(TRIANGLE))
    assert inst.threshold == 11
    abox = inst.abox
    assert abox.multiplicity(ConceptAssertion("ACol", "_r")) == 4
    assert abox.multiplicity(ConceptAssertion("ACol", "_g")) == 3
    assert abox.multiplicity(ConceptAssertion("ACol", "_b")) == 3
    assert abox.multiplicity(ConceptAssertion("Vertex", "_aux")) == 1
    assert not is_rooted(inst.query)
    assert is_satisfiable(BagOntology(inst.tbox, inst.abox))


def test_gen_3col_single_vertex_schedule():
    inst = gen_3col(parse_graph("v only\n"))
    total = sum(
        inst.abox.multiplicity(ConceptAssertion("ACol", c))
        for c in ("_r", "_g", "_b")
    )
    assert total == 3 * 1 + 1


def test_gen_3col_round_trips_through_parsers():
    inst = gen_3col(parse_graph(TRIANGLE))
    assert parse_tbox(inst.tbox.to_text()) == inst.tbox
    assert parse_abox(inst.abox.to_text()) == inst.abox
    assert parse_cq(inst.query.to_text()) == inst.query


def test_engine_refuses_generated_query():
    inst = gen_3col(parse_graph(TRIANGLE))
    with pytest.raises(NotRooted):
        certain_answers(inst.query, BagOntology(inst.tbox, inst.abox))


def test_model_evaluation_for_valid_coloring():
    g = parse_graph(TRIANGLE)
    inst = gen_3col(g)
    gamma = parse_coloring("u1 r\nu2 g\nu3 b\n", g)
    model = coloring_model(g, gamma)
    assert eval_cq(inst.query, model).get(()) == 3 * 3 + 1


def test_model_evaluation_for_invalid_coloring():
    g = parse_graph(TRIANGLE)
    inst = gen_3col(g)
    bad = parse_coloring("u1 r\nu2 r\nu3 b\n", g)
    value = eval_cq(inst.query, coloring_model(g, bad)).get(())
    assert value >= 2 * (3 * 3 + 1)


def test_coloring_file_validation():
    g = parse_graph(TRIANGLE)
    with pytest.raises(Exception):
        parse_coloring("u1 r\nu2 g\n", g)
    with pytest.raises(Exception):
        parse_coloring("u1 purple\nu2 g\nu3 b\n", g)


def test_variant_r_is_emitted_but_refused():
    g = parse_graph(TRIANGLE)
    inst = gen_3col(g, variant="r")
    assert inst.tbox.kind == "r"
    assert is_rooted(inst.query)
    assert inst.target == ("_r",)
    with pytest.raises(UnsupportedTBoxKind):
        certain_answers(inst.query, BagOntology(inst.tbox, inst.abox))
    gamma = parse_coloring("u1 r\nu2 g\nu3 b\n", g)
    model = coloring_model(g, gamma, variant="r")
    assert eval_cq(inst.query, model).get(inst.target) == 3 * 3 + 1


def test_coloring_model_matches_the_hand_built_model():
    rng = random.Random(17)
    for _ in range(200):
        vertices = tuple(f"v{i}" for i in range(rng.randint(1, 7)))
        # A random spanning tree keeps the graph connected; more edges follow.
        edges = {frozenset((v, rng.choice(vertices[:i]))) for i, v in enumerate(vertices) if i}
        edges |= {frozenset((u, v)) for u in vertices for v in vertices
                  if u < v and rng.random() < 0.3}
        graph = Graph(vertices, frozenset(edges))
        coloring = {v: rng.choice(sorted(COLOR_NAMES)) for v in vertices}
        for variant in ("core", "r"):
            assert coloring_model(graph, coloring, variant) == \
                hand_built_coloring_model(graph, coloring, variant)


# The md5 of `bago gen-3col --coloring --eval-model`'s whole output: the
# instance's text, its threshold and the coloring model's count.
GEN_3COL_EVAL_MD5 = {
    ("triangle", "core"): "ecfa0af22a3ebe67f56ddea9968dae6f",
    ("triangle", "r"): "802b2a8672db3548abea8c10157f968d",
    ("diamond", "core"): "f9a3ae756e3a7eaa240b2464c5718300",
    ("diamond", "r"): "67ad451e1d11eaeb9fb4f83e411fe186",
}


@pytest.mark.parametrize("name,variant", sorted(GEN_3COL_EVAL_MD5))
def test_gen_3col_eval_model_output_is_pinned(capsys, fixtures_dir, name, variant):
    code = main(["gen-3col", "-G", str(fixtures_dir / f"{name}.graph"),
                 "--coloring", str(fixtures_dir / f"{name}.coloring"),
                 "--variant", variant, "--eval-model"])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.md5(out.encode()).hexdigest() == GEN_3COL_EVAL_MD5[name, variant]
