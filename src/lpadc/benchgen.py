"""Seeded program generators for four benchmark families plus a timing
harness that writes CSV rows.

Families:
  graph  random directed graphs (Barabasi-Albert attachment, two edges per
         new node) with probabilistic edges and reachability evidence
  gh     a chain of clauses with a growing number of head atoms
  gnb    one clause with a growing number of negated body atoms
  blood  blood type inheritance over a binary ancestor tree

Every generator is a pure function of (size, seed), so a CSV row can be
replayed from its seed column.
"""

from __future__ import annotations

import csv
import math
import multiprocessing
import queue as queue_module
import time
from random import Random

from .bdd import NodeLimitError
from .grounder import ground
from .infer import InferError, map_query, mpe, prob_result
from .parser import parse_program

BENCH_FAMILIES = ("graph", "gh", "gnb", "blood")
BENCH_TASKS = ("prob", "mpe", "map")
CSV_FIELDS = ("family", "size", "seed", "task", "fraction", "time_s", "value", "log_value",
              "status")
# A child that exited cleanly has already flushed its reply into the pipe.
REPLY_WAIT_S = 1.0


class BenchSpec:
    __slots__ = ("family", "size", "seed", "task", "map_fraction", "timeout", "node_cap")

    def __init__(self, family, size, seed, task, map_fraction=None, timeout=None,
                 node_cap=None):
        if family not in BENCH_FAMILIES:
            raise ValueError("unknown family %r" % (family,))
        if task not in BENCH_TASKS:
            raise ValueError("unknown task %r" % (task,))
        if size < 1:
            raise ValueError("size must be >= 1")
        if (map_fraction is not None) != (task == "map"):
            raise ValueError("map_fraction goes with the map task only")
        if map_fraction is not None and not 0.0 < map_fraction <= 1.0:
            raise ValueError("map_fraction must be in (0, 1], not %r" % (map_fraction,))
        check_limits(timeout, node_cap)
        self.family = family
        self.size = size
        self.seed = seed
        self.task = task
        self.map_fraction = map_fraction
        self.timeout = timeout
        self.node_cap = node_cap


def check_limits(timeout, node_cap, names=("timeout", "node_cap")):
    """Reject a timeout or node cap that cannot be met or armed."""
    if timeout is not None and not (math.isfinite(timeout) and timeout > 0):
        raise ValueError("%s must be a positive number of seconds, not %r"
                         % (names[0], timeout))
    if node_cap is not None and node_cap < 1:
        raise ValueError("%s must be a positive number of nodes, not %r"
                         % (names[1], node_cap))


class BenchRow:
    __slots__ = ("family", "size", "seed", "task", "fraction", "time_s", "value", "log_value",
                 "status")

    def __init__(self, family, size, seed, task, fraction, time_s, value, log_value, status):
        self.family = family
        self.size = size
        self.seed = seed
        self.task = task
        self.fraction = fraction  # float or None
        self.time_s = time_s
        self.value = value  # float or None
        # natural log of the answer, None with value; finite where an MPE's
        # value underflows to 0.0
        self.log_value = log_value
        self.status = status  # ok | timeout | memcap | crash | error

    def to_csv_dict(self):
        return {
            "family": self.family,
            "size": self.size,
            "seed": self.seed,
            "task": self.task,
            "fraction": "" if self.fraction is None else repr(self.fraction),
            "time_s": "%.6f" % self.time_s,
            "value": "" if self.value is None else repr(self.value),
            "log_value": "" if self.log_value is None else repr(self.log_value),
            "status": self.status,
        }


# ---- generators ----


def gen_graph(n, seed):
    """Random digraph over nodes 0..n-1: start from two unconnected nodes,
    each later node attaches two edges from distinct existing nodes chosen
    proportionally to degree (uniformly while all degrees are zero).  Each
    edge is a probabilistic fact with weight drawn uniformly from (0,1);
    evidence asks for a path from 0 to n-1.  Emits exactly 2*(n-2) edges."""
    if n < 3:
        raise ValueError("gen_graph needs n >= 3")
    rng = Random(seed)
    degree = [0] * n
    edges = []
    for i in range(2, n):
        targets = set()
        while len(targets) < 2:
            pool = [u for u in range(i) if u not in targets]
            weights = [degree[u] for u in pool]
            if sum(weights) == 0:
                targets.add(rng.choice(pool))
            else:
                targets.add(rng.choices(pool, weights=weights)[0])
        for u in sorted(targets):
            edges.append((u, i))
            degree[u] += 1
            degree[i] += 1
    lines = []
    for u, v in edges:
        p = rng.random()
        while p == 0.0:
            p = rng.random()
        lines.append("edge(%d, %d):%r." % (u, v, p))
    lines.extend("node(%d)." % i for i in range(n))
    lines.append("path(X, X) :- node(X).")
    lines.append("path(X, Y) :- path(X, Z), edge(Z, Y).")
    lines.append("evidence(path(0, %d))." % (n - 1))
    lines.append("query(path(0, %d))." % (n - 1))
    return parse_program("\n".join(lines))


def gen_gh(size, seed=0):
    """Chain of clauses with 2..size+1 heads: the clause with k heads derives
    a0..a(k-1), each with probability 1/k, from body a(k); a base fact closes
    the chain.  The query and evidence atom is a0."""
    del seed  # deterministic; the parameter keeps the generator signature uniform
    lines = []
    for k in range(2, size + 2):
        heads = "; ".join("a%d:%r" % (i, 1.0 / k) for i in range(k))
        lines.append("%s :- a%d." % (heads, k))
    lines.append("a%d." % (size + 1))
    lines.append("evidence(a0).")
    lines.append("query(a0).")
    return parse_program("\n".join(lines))


def gen_gnb(size, seed=0):
    """One clause whose body negates size atoms, plus a probabilistic fact
    per negated atom.  The query and evidence atom is a0."""
    del seed
    body = ", ".join("\\+a%d" % i for i in range(1, size + 1))
    lines = ["a0:0.5 :- %s." % body]
    lines.extend("a%d:0.5." % i for i in range(1, size + 1))
    lines.append("evidence(a0).")
    lines.append("query(a0).")
    return parse_program("\n".join(lines))


def _blood_persons(depth):
    """Person names over a binary ancestor tree: p, then m/f suffixes."""
    levels = [["p"]]
    for _ in range(depth):
        levels.append([who + s for who in levels[-1] for s in ("m", "f")])
    return levels


def gen_blood(size, seed=0):
    """Blood type inheritance over a binary ancestor tree of depth size.
    Founders carry two allele choices (a/b/o at 0.3/0.3/0.4); every child
    inherits one allele from each parent, picking the parent's maternal or
    paternal copy with equal probability.  Evidence is bloodtype(p, a)."""
    del seed
    levels = _blood_persons(size)
    lines = []
    for founder in levels[-1]:
        for side in ("m", "f"):
            lines.append(
                "gene(%s, %s, a):0.3; gene(%s, %s, b):0.3; gene(%s, %s, o):0.4."
                % (founder, side, founder, side, founder, side)
            )
    for lvl in range(size):
        for child in levels[lvl]:
            for side, parent in (("m", child + "m"), ("f", child + "f")):
                pick = "pick%s(%s, m):0.5; pick%s(%s, f):0.5." % (
                    side, child, side, child,
                )
                lines.append(pick)
                lines.append(
                    "gene(%s, %s, G) :- pick%s(%s, S), gene(%s, S, G)."
                    % (child, side, side, child, parent)
                )
    lines.extend(
        [
            "bloodtype(X, a) :- gene(X, m, a), gene(X, f, a).",
            "bloodtype(X, a) :- gene(X, m, a), gene(X, f, o).",
            "bloodtype(X, a) :- gene(X, m, o), gene(X, f, a).",
            "bloodtype(X, b) :- gene(X, m, b), gene(X, f, b).",
            "bloodtype(X, b) :- gene(X, m, b), gene(X, f, o).",
            "bloodtype(X, b) :- gene(X, m, o), gene(X, f, b).",
            "bloodtype(X, ab) :- gene(X, m, a), gene(X, f, b).",
            "bloodtype(X, ab) :- gene(X, m, b), gene(X, f, a).",
            "bloodtype(X, o) :- gene(X, m, o), gene(X, f, o).",
            "evidence(bloodtype(p, a)).",
            "query(bloodtype(p, a)).",
        ]
    )
    return parse_program("\n".join(lines))


_GENERATORS = {
    "graph": gen_graph,
    "gh": gen_gh,
    "gnb": gen_gnb,
    "blood": gen_blood,
}


def generate(family, size, seed):
    return _GENERATORS[family](size, seed)


# ---- timing harness ----


def _run_task(spec):
    """Generate and solve one instance as the API does; returns the value
    and its log.
    A MAP run queries a seeded random ceil(fraction * n) of the n choice
    variables."""
    program = generate(spec.family, spec.size, spec.seed)
    kw = {"node_cap": spec.node_cap}
    if spec.task == "prob":
        result = prob_result(program, program.queries[0], evidence=[], **kw)
    elif spec.task == "mpe":
        result = mpe(program, **kw)
    else:
        # ground as map_query does, which numbers every choice variable
        gp = ground(program, [lit.atom for lit in program.evidence], choices=True)
        n = len(gp.choice_vars)
        query_cvs = Random(spec.seed).sample(range(n), math.ceil(spec.map_fraction * n))
        result = map_query(program, query_cvs=query_cvs, gp=gp, **kw)
    return result.value, result.log_value


def _child(spec, queue):
    try:
        queue.put(("ok", _run_task(spec)))
    except NodeLimitError:
        queue.put(("memcap", (None, None)))
    except (InferError, Exception) as exc:  # noqa: BLE001 - reported in the row
        queue.put(("error: %s" % exc, (None, None)))


def run_bench(spec):
    """Run one spec in a worker process, enforcing the timeout by
    termination, and report the outcome as a CSV-ready row.  A worker that
    dies without a reply (a signal, the OOM killer, a hard exit) is a
    crash."""
    start = time.perf_counter()
    answer = (None, None)  # (value, log_value)
    if spec.timeout is None:
        try:
            answer, status = _run_task(spec), "ok"
        except NodeLimitError:
            status = "memcap"
        except Exception as exc:  # noqa: BLE001
            status = "error: %s" % exc
    else:
        queue = multiprocessing.Queue()
        proc = multiprocessing.Process(target=_child, args=(spec, queue))
        proc.start()
        proc.join(spec.timeout)
        if proc.is_alive():
            proc.terminate()
            proc.join()
            status = "timeout"
        elif proc.exitcode != 0:
            status = "crash"
        else:
            try:
                status, answer = queue.get(timeout=REPLY_WAIT_S)
            except queue_module.Empty:
                status = "crash"
    elapsed = time.perf_counter() - start
    return BenchRow(
        family=spec.family,
        size=spec.size,
        seed=spec.seed,
        task=spec.task,
        fraction=spec.map_fraction,
        time_s=elapsed,
        value=answer[0],
        log_value=answer[1],
        status=status,
    )


def write_rows(rows, out):
    writer = csv.DictWriter(out, fieldnames=CSV_FIELDS)
    writer.writeheader()
    for row in rows:
        writer.writerow(row.to_csv_dict())
