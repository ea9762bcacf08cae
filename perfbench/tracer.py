"""Span recording from outside the engine.

The engine has no tracing of its own, so the traced run replaces public
functions with span-recording wrappers in the module namespaces where callers
look them up (for example `bago.answers.chase`, which `certain_answers`
calls, or `bago.rewrite.chase`, which the realisability probes call). The
same function can therefore appear under two span names, one per call site.

Spans live in memory as parallel lists and are written out once at the end.
A span's self time is its duration minus the part of it that its child spans
cover. Counting work done on a result (nodes of a bag-algebra tree, elements
of a chase) happens after the wrapped call returns; that time is recorded as
a `trace.count` child of the caller, so it is charged to no layer.
"""

from __future__ import annotations

import dataclasses
import gzip
import importlib
import json
import time
from collections import defaultdict

from bago.chase import Anon

COUNT_SPAN = "trace.count"


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        self.op_labels: list[str] = []
        self.counts: dict[tuple[int, str], float] = defaultdict(float)
        self._open: list[int] = []
        self._op = -1

    def set_op(self, label: str) -> int:
        """Start attributing spans and counts to a new op."""
        self.op_labels.append(label)
        self._op = len(self.op_labels) - 1
        return self._op

    def begin(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.starts.append(self.clock())
        self.ends.append(float("nan"))
        self.parents.append(self._open[-1] if self._open else -1)
        self.ops.append(self._op)
        self._open.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.ends[idx] = self.clock()
        popped = self._open.pop()
        if popped != idx:
            raise RuntimeError(f"span {self.names[idx]} closed out of order")

    def add(self, key: str, n: float) -> None:
        self.counts[(self._op, key)] += n

    def wrap(self, fn, name: str, count=None):
        """`fn` recording a span `name`; `count(tracer, args, result)` runs after."""

        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if count is not None:
                c = self.begin(COUNT_SPAN)
                try:
                    count(self, args, result)
                finally:
                    self.end(c)
            return result

        traced.__wrapped__ = fn
        return traced

    def _children(self) -> dict[int, list[int]]:
        children: dict[int, list[int]] = defaultdict(list)
        for idx, parent in enumerate(self.parents):
            children[parent].append(idx)
        return children

    def descendants(self, roots) -> list[int]:
        """The given spans and every span below them."""
        children, out, stack = self._children(), [], list(roots)
        while stack:
            idx = stack.pop()
            out.append(idx)
            stack.extend(children.get(idx, ()))
        return out

    def self_times(self) -> list[float]:
        """Duration of each span minus the union of its children's intervals."""
        children = self._children()
        out = []
        for idx in range(len(self.names)):
            start, end = self.starts[idx], self.ends[idx]
            covered, reach = 0.0, start
            for c in sorted(children.get(idx, ()), key=self.starts.__getitem__):
                lo, hi = max(self.starts[c], reach), min(self.ends[c], end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out.append((end - start) - covered)
        return out

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for idx in range(len(self.names)):
                op = self.ops[idx]
                fh.write(json.dumps({
                    "id": idx,
                    "name": self.names[idx],
                    "start": self.starts[idx],
                    "end": self.ends[idx],
                    "parent": self.parents[idx],
                    "op": self.op_labels[op] if op >= 0 else None,
                }) + "\n")


def balg_node_counts(root) -> tuple[int, int]:
    """(tree nodes, structurally distinct nodes) of a bag-algebra query.

    Iterative, because rewritings nest one level per branch and exceed the
    interpreter's recursion limit long before they exhaust memory.
    """
    index: dict[int, int] = {}  # id(node) -> index of its structural key
    size: dict[int, int] = {}  # id(node) -> nodes in its subtree
    keys: dict[tuple, int] = {}
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if id(node) in index:
            continue
        fields = [getattr(node, f.name) for f in dataclasses.fields(node) if f.compare]
        kids = [v for v in fields if hasattr(v, "answer_vars")]
        if not expanded:
            stack.append((node, True))
            stack.extend((k, False) for k in kids)
            continue
        key = (type(node).__name__,) + tuple(
            ("node", index[id(v)]) if hasattr(v, "answer_vars") else v for v in fields
        )
        index[id(node)] = keys.setdefault(key, len(keys))
        size[id(node)] = 1 + sum(size[id(k)] for k in kids)
    return size[id(root)], len(keys)


# -- what the traced run wraps -------------------------------------------------

def _count_chase(tracer, args, result):
    union = result.union
    tracer.add("chase.elements", len(union.domain))
    tracer.add("chase.anon_elements", sum(1 for el in union.domain if type(el) is Anon))
    tracer.add("chase.stage_elements", sum(len(s.domain) for s in result.stages))


def _count_rewrite(tracer, args, result):
    tracer.add("rewrite.branches", len(result.branches))


def _count_eval_balg(tracer, args, result):
    nodes, distinct = balg_node_counts(args[0])
    tracer.add("bagalg.balg_nodes", nodes)
    tracer.add("bagalg.balg_nodes_distinct", distinct)
    tracer.add("bagalg.rows_out", len(result))


# (module, attribute, span name, counter) for every lookup site the engine
# itself calls through.
INNER_SITES = (
    ("bago.answers", "is_satisfiable", "ontology.is_satisfiable", None),
    ("bago.answers", "chase", "chase.chase", _count_chase),
    ("bago.answers", "eval_cq", "bagalg.eval_cq", None),
    ("bago.answers", "rewrite", "rewrite.rewrite", _count_rewrite),
    ("bago.answers", "evaluate_rewriting", "rewrite.evaluate_rewriting", None),
    ("bago.chase", "is_satisfiable", "ontology.is_satisfiable", None),
    ("bago.rewrite", "is_realisable", "rewrite.is_realisable", None),
    ("bago.rewrite", "collapse", "rewrite.collapse", None),
    ("bago.rewrite", "chase_back", "rewrite.chase_back", None),
    ("bago.rewrite", "chase", "rewrite.probe_chase", None),
    ("bago.rewrite", "eval_cq_neq", "rewrite.probe_eval", None),
    ("bago.rewrite", "eval_balg", "bagalg.eval_balg", _count_eval_balg),
    ("bago.rewrite", "interpretation_from_abox", "chase.interpretation_from_abox", None),
)

# Span names of the calls the benchmark itself makes (see harness.Api).
OUTER_SPANS = {
    "parse_tbox": ("ontology.parse_tbox", None),
    "parse_abox": ("ontology.parse_abox", None),
    "parse_cq": ("query.parse_cq", None),
    "certain_answers": ("answers.certain_answers", None),
    "rewrite": ("rewrite.rewrite", _count_rewrite),
    "evaluate_rewriting": ("rewrite.evaluate_rewriting", None),
}


def install(tracer: Tracer):
    """Wrap every inner lookup site; returns a function that restores them."""
    saved = []
    for module_name, attr, span, count in INNER_SITES:
        module = importlib.import_module(module_name)
        original = getattr(module, attr)
        saved.append((module, attr, original))
        setattr(module, attr, tracer.wrap(original, span, count))

    def restore():
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)

    return restore


# -- per-layer metrics ---------------------------------------------------------

# metric -> span name whose self time it sums
LAYER_TIMERS = {
    "ontology.parse_abox_s": "ontology.parse_abox",
    "ontology.parse_tbox_s": "ontology.parse_tbox",
    "ontology.is_satisfiable_s": "ontology.is_satisfiable",
    "query.parse_cq_s": "query.parse_cq",
    "chase.chase_s": "chase.chase",
    "chase.interpretation_from_abox_s": "chase.interpretation_from_abox",
    "bagalg.eval_cq_s": "bagalg.eval_cq",
    "bagalg.eval_balg_s": "bagalg.eval_balg",
    "rewrite.rewrite_s": "rewrite.rewrite",
    "rewrite.is_realisable_s": "rewrite.is_realisable",
    "rewrite.probe_chase_s": "rewrite.probe_chase",
    "rewrite.probe_eval_s": "rewrite.probe_eval",
    "rewrite.collapse_s": "rewrite.collapse",
    "rewrite.chase_back_s": "rewrite.chase_back",
    "rewrite.evaluate_rewriting_s": "rewrite.evaluate_rewriting",
    "answers.certain_answers_self_s": "answers.certain_answers",
}

# metric -> span name whose calls it counts
LAYER_CALLS = {
    "ontology.is_satisfiable_calls": "ontology.is_satisfiable",
    "chase.calls": "chase.chase",
    "bagalg.eval_cq_calls": "bagalg.eval_cq",
    "rewrite.subsets": "rewrite.is_realisable",
    "rewrite.probes": "rewrite.probe_chase",
}

# metrics summed from Tracer.add
LAYER_COUNTERS = (
    "chase.elements",
    "chase.anon_elements",
    "chase.stage_elements",
    "bagalg.rows_out",
    "bagalg.balg_nodes",
    "bagalg.balg_nodes_distinct",
    "rewrite.branches",
)


def layer_unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    return "1" if metric.endswith("_ratio") else "count"


def layer_metrics(tracer: Tracer, selves: list[float]) -> dict[int, dict[str, float]]:
    """Per-layer totals of every op id, in one pass over spans and counts."""
    time_of = {s: m for m, s in LAYER_TIMERS.items()}
    calls_of = {s: m for m, s in LAYER_CALLS.items()}
    out: dict[int, dict[str, float]] = {}

    def row(op):
        if op not in out:
            out[op] = dict.fromkeys(
                list(LAYER_TIMERS) + list(LAYER_CALLS) + list(LAYER_COUNTERS), 0
            )
        return out[op]

    for idx, name in enumerate(tracer.names):
        r = row(tracer.ops[idx])
        if name in time_of:
            r[time_of[name]] += selves[idx]
        if name in calls_of:
            r[calls_of[name]] += 1
    for (op, key), n in tracer.counts.items():
        row(op)[key] += n
    return {op: _with_ratio(r) for op, r in out.items()}


def sum_rows(rows: list[dict[str, float]]) -> dict[str, float]:
    """Totals over several ops; the ratio is recomputed from the totals."""
    return _with_ratio({k: sum(r[k] for r in rows) for k in rows[0]})


def _with_ratio(r: dict[str, float]) -> dict[str, float]:
    subsets = r["rewrite.subsets"]
    r["rewrite.realisable_ratio"] = r["rewrite.branches"] / subsets if subsets else 0.0
    return r
