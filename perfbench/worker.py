"""Benchmark worker: answers queries through lpadc's public API.

    python3 perfbench/worker.py [--trace SPANS_PATH]

Run from the repository root; lpadc is imported from src/.  The worker
first answers programs/colors.lpad and reports itself ready, then reads one
JSON request per line on stdin and writes one JSON reply per line on its
original stdout (anything the library prints goes to stderr).  A request is
{"id", "task", "text"}: the program text and prob | mpe | map over the
program's own query, evidence and map_query marks.  {"op": "finish"} ends
the worker.  With --trace, the spans of each query the worker finishes are
appended to SPANS_PATH after the query's timed window, as one line.

The worker enforces no time limit: run.py kills it from outside, because a
signal cannot interrupt the compiled kernel.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
# A query that needs more address space than this fails as memcap instead
# of pushing a machine shared with other work into swap or the OOM killer.
ADDRESS_SPACE_LIMIT = 3 << 30


def _reset_peak_rss():
    """Start a new peak-RSS window (Linux 4.0+); False where unsupported,
    and the peak then covers the worker's whole life."""
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
        return True
    except OSError:
        return False


def _peak_rss_mb(windowed):
    if windowed:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _solve(infer, parser, task, text):
    program = parser.parse_program(text)
    if task == "prob":
        return infer.prob_result(program, program.queries[0])
    if task == "mpe":
        return infer.mpe(program)
    if task == "map":
        return infer.map_query(program)
    raise ValueError("unknown task %r" % (task,))


def main(argv):
    trace_path = argv[argv.index("--trace") + 1] if "--trace" in argv else None
    with os.fdopen(os.dup(1), "w") as channel:
        os.dup2(2, 1)
        sys.stdout = sys.stderr
        return _serve(channel, trace_path)


def _serve(channel, trace_path):
    def send(obj):
        channel.write(json.dumps(obj) + "\n")
        channel.flush()

    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_LIMIT, ADDRESS_SPACE_LIMIT))
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    from lpadc import bdd, infer, parser

    kernel = bdd.default_kernel()
    with open(os.path.join("programs", "colors.lpad")) as fh:
        first = _solve(infer, parser, "prob", fh.read())
    tracer = None
    if trace_path is not None:
        sys.path.insert(0, HERE)
        from tracing import Tracer, relevant_choice_vars

        tracer = Tracer()
        tracer.install()
    send({"ready": True, "kernel": kernel, "value": first.value,
          "python": platform.python_version()})

    for line in sys.stdin:
        req = json.loads(line)
        if req.get("op") == "finish":
            send({"finished": True})
            return 0
        if tracer is not None:
            tracer.begin_query(req["id"])
        reply = {"id": req["id"]}
        result = None
        windowed = _reset_peak_rss()
        start = time.perf_counter()
        try:
            result = _solve(infer, parser, req["task"], req["text"])
        except (bdd.NodeLimitError, MemoryError):
            reply["status"] = "memcap"
        except Exception as exc:  # noqa: BLE001 - reported to the client as an error
            reply["status"] = "error"
            reply["message"] = "%s: %s" % (type(exc).__name__, exc)
        else:
            value, stats = result.value, result.stats
            result = None
        # Timed: a BddManager and its BddRefs form a reference cycle, so a
        # query's diagrams are freed only by the cycle collector.  Each query
        # pays for freeing its own, and the next one starts from a collected
        # heap instead of one that grows with the number of queries.
        gc.collect()
        latency_s = time.perf_counter() - start
        if "status" not in reply:
            reply.update(
                status="ok",
                value=value,
                latency_s=latency_s,
                rss_mb=_peak_rss_mb(windowed),
                bool_vars=stats.bool_vars,
                bdd_nodes=stats.bdd_nodes,
                fixpoint_iterations=stats.fixpoint_iterations,
            )
            if tracer is not None:
                gp = tracer.last_ground
                reply.update(
                    ground_atoms=len(gp.atoms),
                    choice_vars=len(gp.choice_vars),
                    relevant_cvs=relevant_choice_vars(gp),
                    peak_live=tracer.peak_live,
                )
        if tracer is not None:
            tracer.flush(trace_path)
        send(reply)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
