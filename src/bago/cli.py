"""Command-line surface.

Exit codes: 0 success / answer true; 1 answer false; 2 usage or input error
(a file that cannot be read, or is not UTF-8 text, is one); 3 semantic
refusal (non-rooted query, non-core TBox, unsatisfiable ontology); 4
internal cross-check failure; 5 resource limit (recursion depth, memory,
the chase's anonymous-element budget on its depth, branching and unfolding,
the dump's character budget, the rewriting's budget of clusters and
alternatives, or a branch table too long to list).
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from .errors import (
    BagoError,
    CrosscheckMismatch,
    NotRooted,
    RESOURCE_LIMITS,
    ParseError,
    UnsatisfiableOntology,
    UnsupportedTBoxKind,
)
from .ontology import BagOntology, is_satisfiable, parse_abox, parse_tbox
from .query import parse_cq
from .chase import chase, dump_chase
from .bagalg import eval_balg, eval_cq, parse_answer_tuple, parse_balg, to_sexpr
from .answers import (
    VIA_BOTH,
    VIA_CHASE,
    VIA_REWRITE,
    CertRequest,
    bag_cert,
    certain_answers,
    crosscheck_one,
    crosscheck_random,
)
from .rewrite import rewrite
from .threecol import coloring_model, gen_3col, parse_coloring, parse_graph

DEFAULT_SEED = 7

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_USAGE = 2
EXIT_REFUSED = 3
EXIT_MISMATCH = 4
EXIT_RESOURCE = 5


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"cannot read {path}: not UTF-8 text (byte {exc.start})") from None


def _load_ontology(args) -> BagOntology:
    return BagOntology(parse_tbox(_read(args.tbox)), parse_abox(_read(args.abox)))


def _cmd_check(args) -> int:
    k = _load_ontology(args)
    if is_satisfiable(k):
        print("SATISFIABLE")
        return EXIT_OK
    print("UNSATISFIABLE")
    return EXIT_FALSE


def _cmd_chase(args) -> int:
    if args.depth < 0:
        raise ParseError("--depth must be nonnegative")
    k = _load_ontology(args)
    print(dump_chase(chase(k, args.depth)), end="")
    return EXIT_OK


def _cmd_answer(args) -> int:
    k = _load_ontology(args)
    q = parse_cq(_read(args.query))
    bag = certain_answers(q, k, via=args.via)
    print(bag.to_text(), end="")
    return EXIT_OK


def _parse_threshold(text: str) -> float:
    lowered = text.strip().lower()
    if lowered in ("inf", "infinity"):
        return math.inf
    if not (lowered.isascii() and lowered.isdigit()):
        raise ParseError(f"threshold must be a nonnegative integer or 'inf', got {text!r}")
    return int(lowered)


def _cmd_cert(args) -> int:
    k = _load_ontology(args)
    q = parse_cq(_read(args.query))
    answer, threshold = parse_answer_tuple(args.tuple), _parse_threshold(args.threshold)
    try:
        request = CertRequest(q, k, answer, threshold)
    except ValueError as exc:  # --tuple arity differs from the query's
        raise ParseError(str(exc)) from None
    if bag_cert(request, via=args.via):
        print("TRUE")
        return EXIT_OK
    print("FALSE")
    return EXIT_FALSE


def _cmd_rewrite(args) -> int:
    tbox = parse_tbox(_read(args.tbox))
    q = parse_cq(_read(args.query))
    rw = rewrite(q, tbox)
    text = to_sexpr(rw.combined) + "\n"
    table = []  # built before any output, since listing branches can hit a limit
    if args.explain:
        table.append(f"# branches: {len(rw.branches)}")
        for cert in rw.certificates:
            z = "{" + ",".join(sorted(v.name for v in cert.z)) + "}"
            line = f"# z={z} verdict={cert.verdict}"
            if cert.failing is not None:
                line += " failing={" + ",".join(sorted(v.name for v in cert.failing)) + "}"
            table.append(line)
            for wit in cert.witnesses:
                subset = "{" + ",".join(sorted(v.name for v in wit.subset)) + "}"
                table.append(
                    f"#   subset={subset} alpha={wit.alpha} anchor={wit.anchor} "
                    f"probe={wit.value}"
                )
    if args.output:
        Path(args.output).write_text(text)
    else:
        print(text, end="")
    for line in table:
        print(line)
    return EXIT_OK


def _cmd_eval_balg(args) -> int:
    abox = parse_abox(_read(args.abox))
    node = parse_balg(_read(args.query))
    bag = eval_balg(node, abox)
    if node.answer_vars:
        print("# columns: " + ", ".join(v.name for v in node.answer_vars))
    print(bag.to_text(), end="")
    return EXIT_OK


def _cmd_crosscheck(args) -> int:
    if args.random is not None:
        if args.random < 1:
            raise ParseError("--random needs a positive instance count")
        report = crosscheck_random(args.random, args.seed)
        for outcome in report.outcomes:
            if not outcome.passed:
                print(f"{outcome.label}: FAIL {outcome.detail}")
        print(f"crosscheck: {report.summary()}")
        return EXIT_OK if report.all_passed else EXIT_MISMATCH
    if not (args.tbox and args.abox and args.query):
        raise ParseError("crosscheck needs -T, -A and -q (or --random N)")
    tbox = parse_tbox(_read(args.tbox))
    abox = parse_abox(_read(args.abox))
    q = parse_cq(_read(args.query))
    outcome = crosscheck_one(tbox, abox, q)
    if outcome.passed:
        print("PASS")
        print(outcome.chase_bag.to_text(), end="")
        return EXIT_OK
    print(f"FAIL {outcome.detail}")
    return EXIT_MISMATCH


def _cmd_gen_3col(args) -> int:
    if args.eval_model and not args.coloring:
        raise ParseError("--eval-model needs --coloring")
    graph = parse_graph(_read(args.graph))
    # The coloring is read before any output, so a bad one leaves none.
    coloring = parse_coloring(_read(args.coloring), graph) if args.coloring else None
    instance = gen_3col(graph, variant=args.variant)
    tbox_text = instance.tbox.to_text()
    abox_text = instance.abox.to_text()
    query_text = instance.query.to_text()
    target = "(" + ",".join(instance.target) + ")"
    if args.out_dir:
        out = Path(args.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "tbox.dl").write_text(tbox_text)
        (out / "abox.bag").write_text(abox_text)
        (out / "query.cq").write_text(query_text)
        (out / "threshold.txt").write_text(f"{instance.threshold}\n")
        print(f"wrote tbox.dl abox.bag query.cq threshold.txt to {out}")
    else:
        print("-- tbox --")
        print(tbox_text, end="")
        print("-- abox --")
        print(abox_text, end="")
        print("-- query --")
        print(query_text, end="")
        print("-- threshold --")
        print(f"{instance.threshold} at tuple {target}")
    if args.eval_model:
        model = coloring_model(graph, coloring, variant=args.variant)
        bag = eval_cq(instance.query, model)
        value = bag.get(instance.target)
        bound = 3 * len(graph.vertices) + 1
        print(f"model-eval: {value} (proper 3-coloring yields exactly {bound})")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bago",
        description="Bag-semantics OBDA: chase materialization, bag answers, rewritings",
    )
    parser.add_argument("--threads", type=int, default=1, metavar="N",
                        help="accepted for compatibility; output is identical")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_tbox(p):
        p.add_argument("-T", "--tbox", required=True, help="TBox file")

    def add_abox(p):
        p.add_argument("-A", "--abox", required=True, help="bag ABox file")

    def add_query(p):
        p.add_argument("-q", "--query", required=True, help="query file")

    def add_via(p):
        p.add_argument("--via", choices=[VIA_CHASE, VIA_REWRITE, VIA_BOTH],
                       default=VIA_CHASE)

    p = sub.add_parser("check", help="decide satisfiability")
    add_tbox(p)
    add_abox(p)
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("chase", help="materialize the canonical bag model")
    add_tbox(p)
    add_abox(p)
    p.add_argument("--depth", type=int, required=True)
    p.set_defaults(fn=_cmd_chase)

    p = sub.add_parser("answer", help="bag certain answers of a rooted query")
    add_tbox(p)
    add_abox(p)
    add_query(p)
    add_via(p)
    p.set_defaults(fn=_cmd_answer)

    p = sub.add_parser("cert", help="threshold test on a certain multiplicity")
    add_tbox(p)
    add_abox(p)
    add_query(p)
    add_via(p)
    p.add_argument("--tuple", required=True, help='answer tuple, e.g. "(Lee)"')
    p.add_argument("-k", "--threshold", required=True,
                   help="nonnegative integer or 'inf'")
    p.set_defaults(fn=_cmd_cert)

    p = sub.add_parser("rewrite", help="compile a rooted query against a TBox")
    add_tbox(p)
    add_query(p)
    p.add_argument("-o", "--output", help="write the rewriting here instead of stdout")
    p.add_argument("--explain", action="store_true",
                   help="print the realisability certificate table")
    p.set_defaults(fn=_cmd_rewrite)

    p = sub.add_parser("eval-balg", help="evaluate a bag-algebra query over an ABox")
    add_abox(p)
    add_query(p)
    p.set_defaults(fn=_cmd_eval_balg)

    p = sub.add_parser("crosscheck", help="compare the chase and rewriting paths")
    p.add_argument("-T", "--tbox")
    p.add_argument("-A", "--abox")
    p.add_argument("-q", "--query")
    p.add_argument("--random", type=int, metavar="N",
                   help="check N seeded random instances instead of files")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.set_defaults(fn=_cmd_crosscheck)

    p = sub.add_parser("gen-3col", help="emit the graph-coloring reduction fixtures")
    p.add_argument("-G", "--graph", required=True, help="graph file")
    p.add_argument("--variant", type=str.lower, choices=["core", "r"],
                   default="core")
    p.add_argument("--coloring", help="coloring file (vertex color per line)")
    p.add_argument("--eval-model", action="store_true",
                   help="evaluate the query over the coloring-induced model")
    p.add_argument("--out-dir", help="write tbox/abox/query/threshold files here")
    p.set_defaults(fn=_cmd_gen_3col)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (NotRooted, UnsupportedTBoxKind, UnsatisfiableOntology) as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_REFUSED
    except CrosscheckMismatch as exc:
        print(f"cross-check mismatch: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except RESOURCE_LIMITS as exc:
        print(f"error: resource limit: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_RESOURCE
    except BagoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
