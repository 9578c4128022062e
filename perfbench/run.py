"""lpadc benchmark: generated programs answered through the public API.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--kernel py|cy]
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the repository root.  One client issues queries serially to one
worker process (a closed loop, one query in flight).  Each query is seeded
program text plus a task, answered by perfbench/worker.py through
parser.parse_program and infer.prob_result / mpe / map_query under the
kernel lpadc.bdd.default_kernel() selects (or --kernel).  Every answer is
checked against reference.py, which never calls the engine.

--trace 0 measures the end-to-end metrics for S seconds of query time, in
whole rounds (every round holds the workload's full mix) and at least
MIN_QUERIES queries.  --trace 1 sends each query of the first TRACE_ROUNDS
rounds to three fresh workers in turn (still one query in flight), one
untraced and two traced; it checks that the two traced workers give
identical counts and reports per-layer metrics plus the tracing overhead
(traced minus untraced query time).  The last stdout line is the JSON
result; everything before it is the human-readable report.  Spans and a
results file go to .perfbench/ under the working directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from random import Random

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from families import make_query  # noqa: E402
from reference import agrees, answer  # noqa: E402
from tracing import COUNTED_SPANS, layer_metrics, read_spans  # noqa: E402

LIMIT_S = 5.0  # per query; every instance below finishes in under half of it
SETUP_LIMIT_S = 60.0
SETUP_REPS = 9  # at least this many fresh workers are timed per run
MIN_QUERIES = 100
MAX_RUN_S = 90.0  # no query starts after this much wall time: a run ends within 180 s
TRACE_ROUNDS = 2
COLORS_VALUE = 0.94  # programs/colors.lpad: 1 - P(pick) P(blue) = 1 - 0.6 * 0.1
OUT_DIR = ".perfbench"

# One round of each workload: (family, size, task).  Sizes are fixed per
# round so every run sees the same mix and the percentiles stay put; the
# seed draws the graphs, every probability, the MAP query edges and the
# order within a round.  Each mix puts the median and the 90th percentile
# inside a run of similar instances rather than on the edge between two
# sizes, where they would jump between them from run to run.
WORKLOADS = {
    # Grounding is most of each query and the BDDs stay tiny: exercises the
    # parser and grounder, bypasses the kernel and the variable order.
    "ground-heavy": [("graph", n, "prob")
                     for n in (20, 25, 30, 35, 40, 45, 50, 55, 60, 70, 80, 90, 100)],
    # Grounding is under 1%; BDD apply inside the compile fixpoint is almost
    # all of it and the variable order decides the size.  The mix is mostly
    # gh 9, so that both percentiles fall well inside one block of equal
    # instances: on a shared machine a query runs up to 1.7 times faster in
    # the quiet spells, and a percentile near the fast end of a block jumps
    # with the share of quiet spells in a run.  gh 10 (1.5 s) would push a
    # run of 100 queries well past its time.
    "compile-heavy": [("blood", 1, "prob"), ("blood", 2, "prob")]
                     + [("gh", 9, "prob")] * 8,
    # One-hot blocks with exactly-one constraints, reorder, then map_best.
    # Graph sizes stay small: the cost of MPE and MAP on these random graphs
    # has a heavy tail (at n = 35, one MAP instance in a few hundred takes
    # 2.7 s and 210 MB against a median of 0.09 s), which would make the
    # run's percentiles depend on the seed.
    "maximize": [("graph", n, "mpe") for n in (25, 30, 35)]
                + [("graph", n, "map") for n in (20, 25, 30)]
                + [("gh", s, "mpe") for s in (5, 7, 8)]
                + [("blood", d, t) for t in ("mpe", "map") for d in (1, 2)],
    # Not in BENCHMARK.json: every instance fails at the parent commit (run
    # past twice the limit or hit the node cap).  Run it to watch fixes turn
    # these into answers.
    "frontier": [("blood", 3, "prob"), ("gh", 12, "prob"), ("gh", 11, "mpe"),
                 ("graph", 150, "map"), ("blood", 4, "map")],
}
BENCHMARK_WORKLOADS = ("ground-heavy", "compile-heavy", "maximize")
# Counts that must repeat exactly between the two traced runs.
EXACT_COUNTERS = ("bool_vars", "bdd_nodes", "fixpoint_iterations", "ground_atoms",
                  "choice_vars", "relevant_cvs", "peak_live")


class WorkerError(Exception):
    pass


class Worker:
    """One worker process; replies are read with a timeout, never blocking."""

    def __init__(self, kernel=None, trace_path=None):
        cmd = [sys.executable, os.path.join(HERE, "worker.py")]
        if trace_path is not None:
            cmd += ["--trace", trace_path]
        env = dict(os.environ)
        if kernel is not None:
            env["LPADC_KERNEL"] = kernel
        start = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, env=env)
        self._buf = b""
        ready = self.read(SETUP_LIMIT_S)
        self.setup_s = time.perf_counter() - start
        if not isinstance(ready, dict) or not ready.get("ready"):
            self.kill()
            raise WorkerError("worker failed to start (%r)" % (ready,))
        if not agrees(ready["value"], COLORS_VALUE):
            self.kill()
            raise WorkerError("colors.lpad answered %r, expected %r"
                              % (ready["value"], COLORS_VALUE))
        self.kernel = ready["kernel"]
        self.python = ready["python"]

    def read(self, timeout):
        """Next reply line as a dict, "timeout", or "crash" on end of file."""
        deadline = time.perf_counter() + timeout
        fd = self.proc.stdout.fileno()
        while b"\n" not in self._buf:
            left = deadline - time.perf_counter()
            if left <= 0:
                return "timeout"
            ready, _, _ = select.select([fd], [], [], left)
            if not ready:
                continue
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                return "crash"
            self._buf += chunk
        line, self._buf = self._buf.split(b"\n", 1)
        return json.loads(line)

    def ask(self, request, timeout):
        try:
            self.proc.stdin.write((json.dumps(request) + "\n").encode())
            self.proc.stdin.flush()
        except BrokenPipeError:
            return "crash"
        return self.read(timeout)

    def finish(self):
        reply = self.ask({"op": "finish"}, SETUP_LIMIT_S)
        if not (isinstance(reply, dict) and reply.get("finished")):
            self.kill()
            raise WorkerError("worker did not finish cleanly (%r)" % (reply,))
        self.proc.stdin.close()
        try:
            self.proc.wait(SETUP_LIMIT_S)
        except subprocess.TimeoutExpired:
            pass
        self.kill()

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for pipe in (self.proc.stdin, self.proc.stdout):
            try:
                pipe.close()
            except OSError:
                pass


class Session:
    """Sends queries to a worker, replacing it after a timeout or crash.
    busy_s is the client's wall time spent on queries and replacements."""

    def __init__(self, kernel, trace_path=None, worker=None):
        self.kernel = kernel
        self.trace_path = trace_path
        self.worker = worker or Worker(kernel, trace_path)
        self.busy_s = 0.0

    def run(self, qid, query, expected):
        start = time.perf_counter()
        reply = self.worker.ask({"id": qid, "task": query.task, "text": query.text},
                                LIMIT_S)
        if not isinstance(reply, dict):
            self.worker.kill()
            self.worker = Worker(self.kernel, self.trace_path)
            reply = {"status": reply}
        self.busy_s += time.perf_counter() - start
        out = {"label": query.label, "expected": expected, **reply}
        if out["status"] == "ok" and not agrees(out["value"], expected):
            out["status"] = "wrong"
        if out["status"] != "ok":
            out["latency_s"] = LIMIT_S
        return out

    def close(self):
        self.worker.finish()


def round_queries(workload, seed, index):
    """Round `index` of a workload: its mix in seeded order, with references."""
    rng = Random("%s:%d:%d" % (workload, seed, index))
    mix = list(WORKLOADS[workload])
    rng.shuffle(mix)
    out = []
    for family, size, task in mix:
        q = make_query(family, size, task, rng)
        out.append((q, answer(q)))
    return out


def run_rounds(sessions, workload, seed, rounds=None, seconds=None, after_round=None):
    """Whole rounds: a fixed number, or until `seconds` of query time and
    MIN_QUERIES queries are reached; cut short only past MAX_RUN_S.
    `after_round`, if given, is called after each whole round.

    Each query goes to every session in turn, so sessions compared with
    each other share the machine's drift; which one goes first rotates,
    because going first is slower.  Returns one result list per session."""
    results = [[] for _ in sessions]
    min_queries = MIN_QUERIES if workload in BENCHMARK_WORKLOADS else 1
    started = time.perf_counter()
    index = 0
    while index != rounds:
        if rounds is None and sessions[0].busy_s >= seconds and len(results[0]) >= min_queries:
            break
        for query, expected in round_queries(workload, seed, index):
            if time.perf_counter() - started > MAX_RUN_S:
                return results
            first = len(results[0])
            for k in range(first, first + len(sessions)):
                out = results[k % len(sessions)]
                res = sessions[k % len(sessions)].run(len(out), query, expected)
                out.append(dict(res, round=index))
        if after_round is not None:
            after_round()
        index += 1
    return results


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def peak_rss(ok):
    """Median over rounds of the highest per-query peak RSS in the round.
    Every round holds the same mix, so this is the memory of the mix's
    largest query, and one outlier instance does not decide a run."""
    by_round = {}
    for r in ok:
        by_round[r["round"]] = max(by_round.get(r["round"], 0.0), r["rss_mb"])
    return statistics.median(by_round.values()) if by_round else 0.0


def status_counts(results):
    counts = {}
    for r in results:
        counts[r["status"]] = counts.get(r["status"], 0) + 1
    return counts


def environment(kernel, python):
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                                text=True, timeout=10, cwd=os.getcwd()).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        commit = ""
    return {"kernel": kernel, "python": python, "nproc": os.cpu_count(),
            "platform": platform.platform(), "commit": commit or "unknown"}


def print_labels(results):
    by_label = {}
    for r in results:
        by_label.setdefault(r["label"], []).append(r)
    print("%-18s %5s %12s %8s" % ("instance", "runs", "median_s", "failed"))
    for label in sorted(by_label):
        rs = by_label[label]
        failed = sum(r["status"] != "ok" for r in rs)
        print("%-18s %5d %12.6f %8d" % (
            label, len(rs), statistics.median(r["latency_s"] for r in rs), failed))


def sample_setup(kernel, setup):
    """Time one fresh worker's start and stop it."""
    worker = Worker(kernel)
    setup.append(worker.setup_s)
    worker.finish()


def end_to_end(args):
    session = Session(args.kernel)
    setup = [session.worker.setup_s]
    env = environment(session.worker.kernel, session.worker.python)
    # A fresh worker is timed after every round, so the set-up samples are
    # spread over the run and share its drift in machine speed.
    try:
        results, = run_rounds([session], args.workload, args.seed, seconds=args.seconds,
                              after_round=lambda: sample_setup(args.kernel, setup))
        while len(setup) < SETUP_REPS:
            sample_setup(args.kernel, setup)
    finally:
        session.close()
    ok = [r for r in results if r["status"] == "ok"]
    latencies = [r["latency_s"] for r in results]
    metrics = {
        "latency_p50_s": (statistics.median(latencies), "s"),
        "latency_p90_s": (percentile(latencies, 90), "s"),
        "queries_per_s": (len(ok) / session.busy_s, "1/s"),
        "peak_rss_mb": (peak_rss(ok), "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }
    failed_share = (len(results) - len(ok)) / len(results)
    print_labels(results)
    print("statuses: %s" % json.dumps(status_counts(results), sort_keys=True))
    print("queries: %d in %.3f s of query time; setup samples: %s"
          % (len(results), session.busy_s, " ".join("%.4f" % s for s in setup)))
    print("failed_share: %.6f ratio" % failed_share)
    return results, metrics, env, {"failed_share": failed_share}


def traced(args):
    prefix = os.path.join(OUT_DIR, "spans-%s-seed%d" % (args.workload, args.seed))
    path_a, path_b = prefix + "-a.jsonl", prefix + "-b.jsonl"
    for path in (path_a, path_b):  # workers append, so start from no file
        if os.path.exists(path):
            os.remove(path)
    sessions = []
    try:
        for path in (None, path_a, path_b):
            sessions.append(Session(args.kernel, trace_path=path))
        plain, run_a, run_b = run_rounds(sessions, args.workload, args.seed,
                                         rounds=TRACE_ROUNDS)
    finally:
        for session in sessions:
            session.close()
    env = environment(sessions[0].worker.kernel, sessions[0].worker.python)

    spans_a, spans_b = read_spans(path_a), read_spans(path_b)
    layers_a, top_a = layer_metrics(spans_a)
    layers_b, _ = layer_metrics(spans_b)
    mismatches = [
        "%s: %s" % (ra["label"], key)
        for ra, rb in zip(run_a, run_b)
        for key in EXACT_COUNTERS
        if ra.get(key) != rb.get(key)
    ]
    mismatches += ["%s total" % key for key in COUNTED_SPANS.values()
                   if layers_a[key] != layers_b[key]]
    ok = [r for r in run_a if r["status"] == "ok"]

    def total(key):
        return sum(r[key] for r in ok)

    peak_live = total("peak_live")
    layers = dict(layers_a)
    layers.update({
        "grounder.ground_atoms": total("ground_atoms"),
        "grounder.choice_vars": total("choice_vars"),
        "grounder.relevant_cv_share": total("relevant_cvs") / max(total("choice_vars"), 1),
        "compiler.fixpoint_iterations": total("fixpoint_iterations"),
        "compiler.bool_vars": total("bool_vars"),
        "bdd.peak_live_nodes": max((r["peak_live"] for r in ok), default=0),
        "bdd.final_nodes": total("bdd_nodes"),
        "bdd.final_to_peak_live": total("bdd_nodes") / max(peak_live, 1),
    })
    untraced_s = sum(r["latency_s"] for r in plain)
    traced_s = sum(r["latency_s"] for r in run_a)
    layers["trace.overhead_s"] = traced_s - untraced_s

    print_labels(run_a)
    print("traced queries: %d per pass; spans: %d" % (
        len(run_a), sum(len(q) for q in spans_a)))
    if len(ok) < len(run_a):
        print("layer metrics cover the %d queries the traced worker finished;"
              " a killed query leaves no spans" % len(spans_a))
    print("query time: untraced %.4f s, traced %.4f s, overhead %.4f s (%.1f%%)"
          % (untraced_s, traced_s, traced_s - untraced_s,
             100.0 * (traced_s - untraced_s) / untraced_s))
    print("self-time share of the time inside traced calls (%.4f s; the rest"
          " of the traced query time is the collection after each answer):" % top_a)
    for key in sorted(k for k in layers if k.endswith("_s") and k != "trace.overhead_s"):
        print("  %-26s %10.6f s %6.1f%%" % (key, layers[key], 100.0 * layers[key] / top_a))
    if mismatches:
        print("counts differ between the two traced runs: %s" % ", ".join(mismatches))
    results = plain + run_a + run_b
    return results, layers, env, {"count_mismatches": mismatches}


METRIC_UNITS = {
    "parser.parse_s": "s", "model.validate_s": "s", "grounder.ground_s": "s",
    "grounder.stratify_s": "s", "grounder.ground_atoms": "count",
    "grounder.choice_vars": "count", "grounder.relevant_cv_share": "ratio",
    "compiler.encode_s": "s", "compiler.compile_self_s": "s",
    "compiler.fixpoint_iterations": "count", "compiler.bool_vars": "count",
    "bdd.apply_calls": "count", "bdd.apply_s": "s", "bdd.peak_live_nodes": "count",
    "bdd.final_nodes": "count", "bdd.final_to_peak_live": "ratio",
    "bdd.gc_runs": "count", "bdd.reorder_calls": "count", "bdd.dp_s": "s",
    "infer.self_s": "s", "trace.overhead_s": "s",
}
# bdd.gc_s and bdd.reorder_s are printed in the report but left out of the
# JSON: they are exactly 0.0 wherever gc or reorder never runs (gc on every
# workload today, reorder outside maximize), and a time that reads the same
# on every run looks like a fake measurement.  Their call counts stand in.


def run_one(args):
    os.makedirs(OUT_DIR, exist_ok=True)
    if args.trace:
        results, values, env, extra = traced(args)
        metrics = {k: (values[k], METRIC_UNITS[k]) for k in METRIC_UNITS}
        correct_counts = not extra["count_mismatches"]
    else:
        results, metrics, env, extra = end_to_end(args)
        correct_counts = True
    wrong = sum(r["status"] == "wrong" for r in results)
    failed = sum(r["status"] != "ok" for r in results)
    print("environment: %s" % json.dumps(env, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print("%-28s %16.6f %s" % (name, value, unit))
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "statuses": status_counts(results),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        **extra,
    }
    path = os.path.join(OUT_DIR, "result-%s-seed%d-trace%d.json"
                        % (args.workload, args.seed, args.trace))
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    return {
        "correct": wrong == 0 and correct_counts,
        "attempted": len(results),
        "failed": failed,
        "metrics": record["metrics"],
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--kernel", choices=("py", "cy"), default=None,
                    help="force a BDD kernel (default: lpadc's own choice)")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "lpadc", "__init__.py")):
        print("run from the repository root: src/lpadc not found", file=sys.stderr)
        return 2
    if args.workload != "all":
        print(json.dumps(run_one(args)))
        return 0
    summary = []
    for workload in BENCHMARK_WORKLOADS:
        for trace in (0, 1):
            print("== %s, trace %d" % (workload, trace))
            one = argparse.Namespace(**{**vars(args), "workload": workload, "trace": trace})
            res = run_one(one)
            summary.append("%s trace=%d correct=%s attempted=%d failed=%d" % (
                workload, trace, res["correct"], res["attempted"], res["failed"]))
    print("== summary (seed %d)" % args.seed)
    print("\n".join(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
