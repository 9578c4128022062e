"""Marginal, MPE and MAP inference over compiled programs.

All three tasks compile the program under one encoding, where each choice
variable is a chain of Boolean variables (see lpadc.compiler).  Marginals
are weighted counts of the query BDD.  MPE and MAP put the query choice
variables' chains on the top levels and run one max-product pass over the
evidence BDD (BddManager.map_best): within a query chain it maximizes over
the values a path can still select, and at the first non-query node it
switches to the weighted count of the rest.  The pass is sound because a
compiled formula depends on a chain only through the value it selects, so a
path enters a chain at its first bit and leaves it after a 1-branch.

Maximization reports the joint probability P(x, e) by default; pass
normalize=True for P(x | e).  The pass runs in log space and the result
carries log_value next to value = exp(log_value), so a selection keeps a
meaningful score when its probability underflows a float.  Assignments
cover every query choice variable: variables the best path never touches
are completed with their most probable head (the path not branching on them
means any head yields the same remainder, so the maximum picks the
heaviest).

Every entry point validates the program, also when the caller passes a
ground program of its own.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

from . import grounder
from .bdd import _log
from .compiler import compile_program, compile_query
from .model import Assignment, Literal, validate


class InferError(Exception):
    pass


@dataclass
class InferenceStats:
    kernel: str = ""
    bool_vars: int = 0
    bdd_nodes: int = 0
    fixpoint_iterations: int = 0
    wall_time_s: float = 0.0

    def to_json_dict(self):
        return {
            "kernel": self.kernel,
            "bool_vars": self.bool_vars,
            "bdd_nodes": self.bdd_nodes,
            "fixpoint_iterations": self.fixpoint_iterations,
            "wall_time_s": self.wall_time_s,
        }


@dataclass
class InferenceResult:
    task: str
    value: float
    log_value: float  # natural log of value; -inf when value is 0
    normalized: bool
    assignment: object  # Assignment or None
    stats: InferenceStats

    def to_json_dict(self):
        return {
            "task": self.task,
            "value": self.value,
            # JSON has no infinities: a zero value has no finite log
            "log_value": self.log_value if math.isfinite(self.log_value) else None,
            "normalized": self.normalized,
            "assignment": (
                None if self.assignment is None else self.assignment.to_rule_dicts()
            ),
            "stats": self.stats.to_json_dict(),
        }

    def to_text_lines(self):
        lines = ["value: %r" % self.value]
        if self.assignment is not None:
            lines.extend(self.assignment.to_rule_lines())
        return lines


def prob(manager, ref):
    """Weighted count of a compiled BDD (kernel pass-through)."""
    return manager.prob(ref)


def check_program(program):
    """Raise InferError with the validator's diagnostics for a bad program."""
    diags = validate(program)
    if diags:
        raise InferError(
            "invalid program: " + "; ".join(str(d) for d in diags)
        )


def _evidence_of(program, evidence):
    if evidence is None:
        return tuple(program.evidence)
    return tuple(evidence)


def _ground(program, gp):
    check_program(program)
    if gp is None:
        gp = grounder.ground(program)
    gp.strata()  # raises on non-stratified programs before any BDD work
    return gp


def cond_prob(program, query, evidence=None, kernel=None, node_cap=None):
    """P(query atom | conjunction of evidence literals)."""
    return prob_result(program, query, evidence, kernel=kernel, node_cap=node_cap).value


def prob_result(program, query, evidence=None, kernel=None, node_cap=None, gp=None):
    start = time.perf_counter()
    ev = _evidence_of(program, evidence)
    if query is None:
        raise InferError("the prob task needs a query atom")
    gp = _ground(program, gp)
    cp = compile_program(gp, task="prob", kernel=kernel, node_cap=node_cap)
    qref = compile_query(cp, [Literal(query)])
    value = cp.manager.prob(qref)
    nodes = qref.node_count()
    if ev:
        eref = compile_query(cp, list(ev))
        p_ev = cp.manager.prob(eref)
        if p_ev <= 0.0:
            raise InferError("evidence has probability zero")
        joint = qref & eref
        nodes = joint.node_count()
        value = cp.manager.prob(joint) / p_ev
    stats = InferenceStats(
        kernel=cp.manager.kernel_name,
        bool_vars=cp.manager.num_vars,
        bdd_nodes=nodes,
        fixpoint_iterations=cp.stats.fixpoint_iterations,
        wall_time_s=time.perf_counter() - start,
    )
    return InferenceResult("prob", value, _log(value), True, None, stats)


def decode(choices, encoding, query_cvs):
    """Turn the best path's chain positions ({choice variable: position})
    into one head selection per query choice variable; variables the path
    never tests take their most probable head."""
    gp = encoding.gp
    entries = []
    for ci in sorted(query_cvs):
        cv = gp.choice_vars[ci]
        pos = choices.get(ci)
        k = cv.max_prob_value() if pos is None else encoding.value_at(ci, pos)
        entries.append((cv, k))
    entries.sort(key=lambda e: (e[0].clause_id, e[0].grounding_id))
    return Assignment(tuple(entries))


def _best_result(program, task, evidence, query_cvs, normalize, kernel, node_cap, gp,
                 creation_order=None):
    start = time.perf_counter()
    ev = _evidence_of(program, evidence)
    gp = _ground(program, gp)
    cp = compile_program(
        gp,
        task=task,
        query_cvs=query_cvs,
        kernel=kernel,
        node_cap=node_cap,
        creation_order=creation_order,
    )
    eref = compile_query(cp, list(ev))
    if eref.is_false:
        # every variable weight is positive, so an unsatisfiable BDD is the
        # only way the evidence can have probability zero
        raise InferError("evidence has probability zero")
    log_value, choices = cp.manager.map_best(eref)
    assignment = decode(choices, cp.encoding, cp.query_cvs)
    if normalize:
        p_ev = cp.manager.prob(eref)
        if p_ev <= 0.0:
            raise InferError("evidence probability underflows to zero")
        log_value -= math.log(p_ev)
    stats = InferenceStats(
        kernel=cp.manager.kernel_name,
        bool_vars=cp.manager.num_vars,
        bdd_nodes=eref.node_count(),
        fixpoint_iterations=cp.stats.fixpoint_iterations,
        wall_time_s=time.perf_counter() - start,
    )
    return InferenceResult(
        task, math.exp(log_value), log_value, normalize, assignment, stats
    )


def mpe(program, evidence=None, normalize=False, kernel=None, node_cap=None, gp=None):
    """The most probable total head selection given the evidence."""
    return _best_result(program, "mpe", evidence, None, normalize, kernel, node_cap, gp)


def map_query(
    program,
    evidence=None,
    query_cvs=None,
    normalize=False,
    kernel=None,
    node_cap=None,
    gp=None,
    creation_order=None,
):
    """The most probable selection of the query choice variables, summing out
    the rest.  query_cvs defaults to the map_query-flagged clauses' variables."""
    return _best_result(
        program, "map", evidence, query_cvs, normalize, kernel, node_cap, gp,
        creation_order,
    )
