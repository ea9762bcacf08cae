"""Self-tests of the benchmark's own machinery.

    python3 perfbench/selftest.py

Covers input determinism, the correctness gate on a second seed, failure
accounting (charge at the limit), self-time arithmetic and node counting.
"""

from __future__ import annotations

import os
import sys
import time
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import harness  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from bago import AnswerBag, BalgArithUnion, BalgAtom, BalgProject, Var  # noqa: E402


class Generation(unittest.TestCase):
    def test_same_seed_same_bytes(self):
        for name, make in workloads.WORKLOADS.items():
            a, b = make(7), make(7)
            self.assertEqual(a.digest(), b.digest(), name)
            self.assertEqual(a.ops, b.ops, name)

    def test_seeds_differ(self):
        for name, make in workloads.WORKLOADS.items():
            self.assertNotEqual(make(1).digest(), make(2).digest(), name)

    def test_second_seed_passes_the_gate(self):
        for seed in (1, 2):
            wl = workloads.abox_scale(seed, n=60)
            reference: dict = {}
            for op in wl.ops:
                res = harness.run_op(harness.Api(), op, wl.limit_s)
                self.assertFalse(res.failed, res.failures)
                self.assertEqual(len(res.bags), 3)
                harness.check_op(res, reference)


class FailureAccounting(unittest.TestCase):
    op = workloads.Op("op", "A SUB EX R\n", "A(a) 2\n", "q(x) :- R(x, y)\n")

    def test_charge_rule(self):
        self.assertEqual(harness.charged(0.25, False, 2.0), 0.25)
        self.assertEqual(harness.charged(0.25, True, 2.0), 2.0)

    def test_exception_is_charged_at_the_limit(self):
        def deep(*args, **kwargs):
            raise RecursionError("maximum recursion depth exceeded")

        res = harness.run_op(harness.Api(evaluate_rewriting=deep), self.op, limit=3.0)
        self.assertEqual([(f.phase, f.error) for f in res.failures],
                         [("eval_rewriting", "RecursionError")])
        self.assertEqual(res.times["eval_rewriting"], [3.0])
        self.assertLess(res.times["compile"][0], 3.0)
        self.assertEqual(set(res.bags), {"answer_chase", "answer_rewrite"})

    def test_overrun_is_stopped_and_charged(self):
        def slow(*args, **kwargs):
            time.sleep(5)

        start = time.perf_counter()
        res = harness.run_op(harness.Api(rewrite=slow), self.op, limit=0.5)
        self.assertLess(time.perf_counter() - start, 4.0)
        errors = {f.phase: f.error for f in res.failures}
        self.assertEqual(errors, {"compile": "CallTimeout", "eval_rewriting": "NotRun"})
        self.assertEqual(res.times["compile"], [0.5])
        self.assertEqual(res.times["eval_rewriting"], [0.5])

    def test_mismatch_is_not_a_failure(self):
        res = harness.OpResult("op", bags={
            "answer_chase": AnswerBag(1, {("a",): 3}),
            "answer_rewrite": AnswerBag(1, {("a",): 2}),
        })
        with self.assertRaises(harness.Mismatch):
            harness.check_op(res, {})


class SelfTimes(unittest.TestCase):
    def tracer_with(self, times):
        clock = iter(times)
        return tracer.Tracer(clock=lambda: next(clock))

    def test_nested_tree(self):
        # root [0,10] > a [1,4] > a1 [2,3];  root > b [5,9]
        t = self.tracer_with([0, 1, 2, 3, 4, 5, 9, 10])
        root = t.begin("root")
        a = t.begin("a")
        a1 = t.begin("a1")
        t.end(a1)
        t.end(a)
        b = t.begin("b")
        t.end(b)
        t.end(root)
        self.assertEqual(t.self_times(), [3, 2, 1, 4])
        self.assertEqual(t.parents, [-1, root, a, root])
        self.assertEqual(sum(t.self_times()), 10)

    def test_overlapping_children_are_counted_once(self):
        t = tracer.Tracer()
        t.names, t.parents, t.ops = ["p", "c1", "c2"], [-1, 0, 0], [0, 0, 0]
        t.starts, t.ends = [0.0, 1.0, 2.0], [10.0, 4.0, 12.0]
        self.assertEqual(t.self_times(), [10 - (4 - 1) - (10 - 4), 3.0, 10.0])

    def test_count_time_is_charged_to_no_layer(self):
        t = self.tracer_with([0, 1, 2, 3, 5, 6])
        root = t.begin("root")
        wrapped = t.wrap(lambda: 42, "f", count=lambda tr, args, res: tr.add("n", res))
        self.assertEqual(wrapped(), 42)
        t.end(root)
        self.assertEqual(t.names, ["root", "f", tracer.COUNT_SPAN])
        self.assertEqual(t.self_times(), [6 - 1 - 2, 1, 2])
        self.assertEqual(dict(t.counts), {(-1, "n"): 42})


class NodeCounts(unittest.TestCase):
    def test_shared_subterms(self):
        x, y = Var("x"), Var("y")
        leaf = BalgProject((y,), BalgAtom("R", (x, y)))
        twin = BalgProject((y,), BalgAtom("R", (x, y)))  # equal, not identical
        q = BalgArithUnion(BalgArithUnion(leaf, twin), BalgAtom("A", (x,)))
        self.assertEqual(tracer.balg_node_counts(q), (7, 5))

    def test_deep_tree_needs_no_recursion(self):
        x = Var("x")
        q = BalgAtom("A", (x,))
        for i in range(3 * sys.getrecursionlimit()):
            q = BalgArithUnion(q, BalgAtom(f"B{i}", (x,)))
        n = 3 * sys.getrecursionlimit()
        self.assertEqual(tracer.balg_node_counts(q), (2 * n + 1, 2 * n + 1))


if __name__ == "__main__":
    unittest.main()
