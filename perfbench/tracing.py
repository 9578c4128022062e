"""Spans around lpadc's public functions, installed from outside the package.

`Tracer.install` replaces module and class attributes with timing wrappers,
including the names `lpadc.infer` imported into its own namespace, so the
engine runs unmodified.  A span is a row [name, start, end, parent, query]:
`parent` is the index of the enclosing span (-1 at the top) and `query` the
id of the benchmark query it belongs to.  Spans stay in memory while a query
runs; afterwards `flush` appends them to the span file as one line, so a
worker killed in a query loses only that query's spans, and its replacement
appends to the same file.

`layer_metrics` turns a span list into per-layer times; a span's self time
is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import json
import os
import time

# span name -> layer metric its self time adds to
SELF_TIME_METRIC = {
    "parser.parse_program": "parser.parse_s",
    "model.validate": "model.validate_s",
    "grounder.ground": "grounder.ground_s",
    "grounder.strata": "grounder.stratify_s",
    "compiler.compile_program": "compiler.encode_s",
    "compiler.compile_query": "compiler.compile_self_s",
    "bdd.apply": "bdd.apply_s",
    "bdd.gc": "bdd.gc_s",
    "bdd.reorder": "bdd.reorder_s",
    "bdd.dp": "bdd.dp_s",
    "infer.prob_result": "infer.self_s",
    "infer.mpe": "infer.self_s",
    "infer.map_query": "infer.self_s",
}
COUNTED_SPANS = {"bdd.apply": "bdd.apply_calls", "bdd.gc": "bdd.gc_runs",
                 "bdd.reorder": "bdd.reorder_calls"}


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self.query = None
        self.last_ground = None
        self.peak_live = 0

    def begin_query(self, query_id):
        self.query = query_id
        self.last_ground = None
        self.peak_live = 0

    def _wrap(self, name, fn, after=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            row = [name, clock(), 0.0, stack[-1] if stack else -1, self.query]
            stack.append(len(spans))
            spans.append(row)
            try:
                out = fn(*args, **kwargs)
            finally:
                row[2] = clock()
                stack.pop()
            if after is not None:
                after(args, out)
            return out

        return wrapper

    def _patch(self, owner, attr, name, after=None):
        setattr(owner, attr, self._wrap(name, getattr(owner, attr), after))

    def _sample_live(self, args, _out):
        live = args[0].live_nodes()
        if live > self.peak_live:
            self.peak_live = live

    def _keep_ground(self, _args, gp):
        self.last_ground = gp

    def install(self):
        from lpadc import bdd, compiler, grounder, infer, model, parser

        self._patch(parser, "parse_program", "parser.parse_program")
        validate = self._wrap("model.validate", model.validate)
        model.validate = infer.validate = validate
        self._patch(grounder, "ground", "grounder.ground", self._keep_ground)
        self._patch(grounder.GroundProgram, "strata", "grounder.strata")
        for attr in ("compile_program", "compile_query"):
            wrapped = self._wrap("compiler." + attr, getattr(compiler, attr))
            setattr(compiler, attr, wrapped)
            setattr(infer, attr, wrapped)
        manager = bdd.BddManager
        self._patch(manager, "apply_and", "bdd.apply", self._sample_live)
        self._patch(manager, "apply_or", "bdd.apply", self._sample_live)
        self._patch(manager, "gc", "bdd.gc")
        self._patch(manager, "reorder_groups_front", "bdd.reorder")
        for attr in ("prob", "wmc", "map_best"):
            self._patch(manager, attr, "bdd.dp")
        for attr in ("prob_result", "mpe", "map_query"):
            self._patch(infer, attr, "infer." + attr)

    def flush(self, path):
        """Append the current query's spans as one line; parent indices are
        local to the line."""
        with open(path, "a") as fh:
            fh.write(json.dumps(self.spans) + "\n")
        self.spans.clear()


def read_spans(path):
    """One span list per finished query; no file means no finished query."""
    if not os.path.exists(path):
        return []
    with open(path) as fh:
        return [json.loads(line) for line in fh]


def relevant_choice_vars(gp):
    """Choice variables reachable backwards from the query and evidence atoms
    through the ground rules."""
    program = gp.program
    stack = list(program.queries) + [lit.atom for lit in program.evidence]
    seen = set()
    cvs = set()
    while stack:
        atom = stack.pop()
        if atom in seen:
            continue
        seen.add(atom)
        for gi, _ in gp.rules_by_head.get(atom, ()):
            clause = gp.ground_clauses[gi]
            if clause.cv_index is not None:
                cvs.add(clause.cv_index)
            stack.extend(lit.atom for lit in clause.body)
    return len(cvs)


def layer_metrics(queries):
    """Summed self times per layer, span counts, and the total time of the
    top-level spans (the traced queries' own time), over per-query span
    lists as `read_spans` returns them."""
    out = {metric: 0.0 for metric in SELF_TIME_METRIC.values()}
    out.update({metric: 0 for metric in COUNTED_SPANS.values()})
    top = 0.0
    for spans in queries:
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, start, end, parent, _) in enumerate(spans):
            out[SELF_TIME_METRIC[name]] += end - start - child_time[i]
            if name in COUNTED_SPANS:
                out[COUNTED_SPANS[name]] += 1
            if parent < 0:
                top += end - start
    return out, top
