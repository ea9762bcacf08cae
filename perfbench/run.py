"""bago benchmark runner.

    python3 perfbench/run.py --workload abox_scale --seed 1 --seconds 20 --trace 0

Run from the root of a bago source tree: the engine is imported from ./src
and the shipped fixtures are read from ./fixtures. The runner

1. checks the fixtures' headline answers on both answer paths,
2. generates the workload's text from the seed (twice, to check that the
   bytes repeat),
3. repeats the workload's batch of ops, single-threaded and closed-loop,
   until --seconds have passed, checking every op's answers on every path,
4. with --trace 1, repeats it again with span-recording wrappers installed
   and reports per-layer metrics instead of end-to-end ones,
5. prints one detail object and, as the last line, the result object.

Any disagreement between answer paths or with a fixture exits with code 3
and prints no result. See METRICS.md for what each metric means.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

EXIT_MISMATCH = 3
EXIT_NO_ENGINE = 4
MIN_REPS = 3

# (fixture directory, query file, the README's headline answer)
FIXTURES = (
    ("employees", "query.cq", "(Lee) 3\n"),
    ("managers", "query_managed.cq", "(Lee) 1\n"),
    ("prime", "query.cq", "(a) 7\n"),
    ("prime_pair", "query.cq", "(a,a) 448\n"),
)


def import_engine():
    """Import bago from ./src only; never from wherever else it may be installed."""
    sys.path.insert(0, SRC)
    try:
        import bago
    except ImportError as exc:
        raise SystemExit(_fail(EXIT_NO_ENGINE, f"cannot import bago from {SRC}: {exc}"))
    if not os.path.abspath(bago.__file__).startswith(SRC + os.sep):
        raise SystemExit(_fail(EXIT_NO_ENGINE, f"bago imported from {bago.__file__}, not {SRC}"))


def _fail(code: int, message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return code


def git_sha() -> str:
    """HEAD of ./.git, read without starting git; 'unknown' outside a clone."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = os.path.join(git, ref)
        if os.path.exists(loose):
            with open(loose) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
    }


def fixture_gate(harness) -> list[dict]:
    """Both paths must give the README's headline answers on the fixtures."""
    from bago import BagOntology

    api = harness.Api()
    checked = []
    for name, query_file, expected in FIXTURES:
        base = os.path.join(ROOT, "fixtures", name)
        with open(os.path.join(base, "tbox.dl")) as fh:
            tbox = fh.read()
        with open(os.path.join(base, "abox.bag")) as fh:
            abox = fh.read()
        with open(os.path.join(base, query_file)) as fh:
            query = fh.read()
        for via in ("chase", "rewrite"):
            k = BagOntology(api.parse_tbox(tbox), api.parse_abox(abox))
            got = api.certain_answers(api.parse_cq(query), k, via=via).to_text()
            if got != expected:
                raise harness.Mismatch(
                    f"fixture {name} via {via}: expected {expected!r}, got {got!r}"
                )
        checked.append({"fixture": name, "query": query_file, "answer": expected.strip()})
    return checked


def describe_inputs(workload) -> list[dict]:
    from bago import parse_abox, parse_cq

    rows = []
    aboxes = {}
    for op in workload.ops + workload.known_failures:
        if op.abox not in aboxes:
            abox = parse_abox(op.abox)
            aboxes[op.abox] = {
                "assertions": len(abox),
                "individuals": len(abox.individuals()),
                "sum_multiplicity": sum(m for _, m in abox.items()),
            }
        q = parse_cq(op.query)
        rows.append({
            "op": op.name,
            **aboxes[op.abox],
            "atoms": len(q.positive_atoms()),
            "existential_vars": len(q.existential_vars()),
            "answer_vars": len(q.answer_vars),
        })
    return rows


def metric_summaries(harness, reps) -> dict:
    out = {}
    for phase in harness.PHASES:
        out[f"{phase}_s"] = {
            **harness.summary(harness.phase_samples(reps, phase)),
            "wall_median": statistics.median(harness.phase_samples(reps, phase, "wall")),
        }
    return out


def op_rows(harness, reps, reference) -> list[dict]:
    rows = []
    for i, op in enumerate(reps[0].ops):
        row = {"op": op.name}
        for phase in harness.PHASES:
            row[f"{phase}_s"] = statistics.median(
                t for rep in reps for t in rep.ops[i].times[phase]
            )
        if op.name in reference:
            bag = reference[op.name][1]
            row["answer_tuples"] = len(bag)
            row["answer_total"] = sum(m for _, m in bag.items())
        rows.append(row)
    return rows


def count_failures(reps) -> tuple[int, int, list]:
    attempted = sum(len(rep.ops) for rep in reps)
    failed_ops = [r for rep in reps for r in rep.ops if r.failed]
    return attempted, len(failed_ops), [f.to_json() for r in failed_ops for f in r.failures]


def run_known_failures(harness, workload, reference) -> list[dict]:
    out = []
    for op in workload.known_failures:
        res = harness.run_op(harness.Api(), op, workload.limit_s)
        harness.check_op(res, reference)
        out.append({
            "op": op.name,
            "failed": res.failed,
            "failures": [f.to_json() for f in res.failures],
        })
        status = ", ".join(f"{f.phase}: {f.error} in {f.where}" for f in res.failures)
        print(f"perfbench: known failure {op.name}: {status or 'now passes'}", file=sys.stderr)
    return out


def traced_run(harness, tracer_mod, workload, seconds, reference, untraced_reps):
    tracer = tracer_mod.Tracer()
    api = harness.Api(**{
        attr: tracer.wrap(getattr(harness.Api(), attr), span, count)
        for attr, (span, count) in tracer_mod.OUTER_SPANS.items()
    })
    op_ids: list[list[int]] = []

    def on_op(rep, op):
        if rep == len(op_ids):
            op_ids.append([])
        op_ids[rep].append(tracer.set_op(f"{rep}/{op.name}"))

    restore = tracer_mod.install(tracer)
    try:
        reps = harness.run_batches(api, workload, seconds, MIN_REPS, reference, on_op=on_op)
    finally:
        restore()
    selves = tracer.self_times()

    by_op = tracer_mod.layer_metrics(tracer, selves)
    per_rep = [tracer_mod.sum_rows([by_op[i] for i in ids]) for ids in op_ids]
    layers = {k: statistics.median(r[k] for r in per_rep) for k in per_rep[0]}
    per_op = [
        {"op": op.name, **{k: statistics.median(by_op[ids[i]][k] for ids in op_ids)
                           for k in per_rep[0]}}
        for i, op in enumerate(workload.ops)
    ]

    # Self times under each certain_answers call sum to its traced duration.
    roots = [i for i, n in enumerate(tracer.names) if n == "answers.certain_answers"]
    wall = sum(tracer.ends[i] - tracer.starts[i] for i in roots)
    under = sum(selves[i] for i in tracer.descendants(roots))
    count_s = sum(selves[i] for i, n in enumerate(tracer.names) if n == tracer_mod.COUNT_SPAN)

    overhead = {}
    for phase in ("answer_chase", "answer_rewrite"):
        traced = statistics.median(harness.phase_samples(reps, phase))
        untraced = statistics.median(harness.phase_samples(untraced_reps, phase))
        overhead[f"{phase}_s"] = {"traced": traced, "untraced": untraced,
                                  "overhead": traced - untraced}

    os.makedirs(OUT_DIR, exist_ok=True)
    spans_path = os.path.join(OUT_DIR, f"spans-{workload.name}.jsonl.gz")
    tracer.write(spans_path)
    detail = {
        "reps": len(reps),
        "spans": len(tracer.names),
        "spans_file": os.path.relpath(spans_path, ROOT),
        "certain_answers_wall_s": wall,
        "self_time_sum_under_certain_answers_s": under,
        "count_time_s": count_s,
        "overhead": overhead,
        "layers": layers,
        "ops": per_op,
    }
    return reps, layers, detail


def main(argv=None) -> int:
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    import_engine()
    import harness
    import tracer as tracer_mod

    env_start = environment()
    try:
        fixtures = fixture_gate(harness)
        workload = WORKLOADS[args.workload](args.seed)
        again = WORKLOADS[args.workload](args.seed)
        if workload.digest() != again.digest():
            raise harness.Mismatch("the same seed generated different inputs")
        inputs = describe_inputs(workload)

        reference: dict = {}
        # One untimed batch first: lazy imports, regex compiles and allocator
        # growth happen once per process, and it fixes each op's reference bag.
        harness.run_batches(harness.Api(), workload, 0, 1, reference)
        # What is alive now lives to the end; the collector need not scan it
        # again during timed calls.
        gc.freeze()
        untraced_seconds = args.seconds / 2 if args.trace else args.seconds
        reps = harness.run_batches(
            harness.Api(), workload, untraced_seconds, MIN_REPS, reference
        )
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        summaries = metric_summaries(harness, reps)

        trace_detail, traced_reps = None, []
        if args.trace:
            traced_reps, layers, trace_detail = traced_run(
                harness, tracer_mod, workload, args.seconds / 2, reference, reps,
            )
        known = run_known_failures(harness, workload, reference)
    except harness.Mismatch as exc:
        return _fail(EXIT_MISMATCH, f"answer mismatch: {exc}")

    attempted, failed, failures = count_failures(reps + traced_reps)
    if args.trace:
        metrics = {k: {"value": v, "unit": tracer_mod.layer_unit(k)} for k, v in layers.items()}
    else:
        # The upper quartile, not the median: see "End-to-end metrics" in
        # METRICS.md for why it repeats better from run to run on a shared host.
        metrics = {name: {"value": s["q3"], "unit": "s"} for name, s in summaries.items()}
        metrics["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MiB"}
    detail = {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loop": "closed, 1 caller, 1 thread",
        "env_start": env_start,
        "env_end": environment(),
        "inputs_sha256": workload.digest(),
        "inputs": inputs,
        "fixtures": fixtures,
        "time_limit_s": workload.limit_s,
        "summaries": summaries,
        "peak_rss_mb": peak_rss_mb,
        "failed_ratio": failed / attempted,
        "failures": failures,
        "known_failures": known,
        "ops": op_rows(harness, reps, reference),
        "traced": trace_detail,
    }
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
