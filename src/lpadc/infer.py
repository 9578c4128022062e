"""Marginal, MPE and MAP inference over compiled programs.

All three tasks compile the program under one encoding, where each choice
variable is a chain of Boolean variables (see lpadc.compiler), created in
post-order from the query and evidence atoms, and read every formula
through compile_query.  A marginal is the weighted count of query and
evidence over that of the evidence, whose diagram is TRUE when there is
none.  For MPE and MAP the compile creates the query choice variables'
chains (all of them for MPE, the map_query clauses' by default for MAP;
compiler.query_cvs_of) first, so they sit on the top levels, and hands
them to one max-product pass over the evidence BDD (BddManager.map_best):
within a query chain it maximizes over the values a path can still
select, and at the first non-query node it switches to the weighted count
of the rest.  The pass is sound because a compiled formula depends on a
chain only through the value it selects, so a path enters a chain at its
first bit and leaves it after a 1-branch.

Of several equal maximisers the first is reported: compare the choice
variables in index order and each one's values in index order, which is
chain order (the explicit heads as written, the null head last).  The same
pass picks it: where a node's two branches score alike it keeps the branch
whose best selection comes first.  Value, log_value and selection therefore
do not depend on the variable order.

Maximization reports the joint probability P(x, e) by default; pass
normalize=True for P(x | e), which is clamped at 1 where rounding lifts the
ratio above it.  The pass runs in log space and the result
carries log_value next to value = exp(log_value), so a selection keeps a
meaningful score when its probability underflows a float.  Assignments
cover every query choice variable: every one has a chain, and the pass
gives a chain the best path never tests its first most probable value
(any value yields the same remainder there).

A marginal grounds only what its query and evidence atoms depend on
(grounder.ground with a demand).  MPE and MAP ground what the evidence atoms
and every probabilistic clause depend on (choices=True), because their
assignments cover every query choice variable; the choice variables keep
the whole program's numbering.  All three tasks reach compile_program the
same way, with the atoms they compile as roots, so every choice variable of
the ground program gets a chain in post-order from them.  Every entry point
validates the program, also when the caller passes a ground program of its
own; one grounded for a demand is accepted only when it covers the task's:
its demand holds the query and evidence atoms, and for MPE and MAP it was
grounded with choices.
"""

from __future__ import annotations

import math
import time

from . import grounder
from .bdd import _log
from .compiler import compile_program, compile_query
from .model import Assignment, Literal, validate


class InferError(Exception):
    pass


class InferenceStats:
    __slots__ = ("ground_atoms", "ground_clauses", "choice_vars", "bool_vars",
                 "bdd_nodes", "fixpoint_iterations", "wall_time_s")

    def __init__(self, ground_atoms=0, ground_clauses=0, choice_vars=0, bool_vars=0,
                 bdd_nodes=0, fixpoint_iterations=0, wall_time_s=0.0):
        self.ground_atoms = ground_atoms
        self.ground_clauses = ground_clauses
        self.choice_vars = choice_vars
        self.bool_vars = bool_vars
        self.bdd_nodes = bdd_nodes
        self.fixpoint_iterations = fixpoint_iterations
        self.wall_time_s = wall_time_s

    def to_json_dict(self):
        return {f: getattr(self, f) for f in self.__slots__}


def _stats(cp, nodes, start):
    gp = cp.gp
    return InferenceStats(
        ground_atoms=len(gp.atoms),
        ground_clauses=len(gp.ground_clauses),
        choice_vars=len(gp.choice_vars),
        bool_vars=cp.manager.num_vars,
        bdd_nodes=nodes,
        fixpoint_iterations=cp.fixpoint_iterations,
        wall_time_s=time.perf_counter() - start,
    )


class InferenceResult:
    __slots__ = ("task", "value", "log_value", "normalized", "assignment", "stats")

    def __init__(self, task, value, log_value, normalized, assignment, stats):
        self.task = task
        self.value = value
        self.log_value = log_value  # natural log of value; -inf when value is 0
        self.normalized = normalized
        self.assignment = assignment  # Assignment or None
        self.stats = stats  # InferenceStats

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


def _ground(program, gp, demand, choices=False):
    """The ground program for the demanded atoms, with choices also for
    every probabilistic clause (grounder.ground); a caller's gp grounded for
    a demand must cover this one."""
    check_program(program)
    if gp is None:
        gp = grounder.ground(program, demand, choices)
    elif gp.demand is not None and not (
        set(demand) <= set(gp.demand) and (gp.choices or not choices)
    ):
        raise InferError("the ground program was grounded for other atoms")
    gp.strata()  # raises on non-stratified programs before any BDD work
    return gp


def cond_prob(program, query, evidence=None, node_cap=None):
    """P(query atom | conjunction of evidence literals)."""
    return prob_result(program, query, evidence, node_cap=node_cap).value


def prob_result(program, query, evidence=None, node_cap=None, gp=None):
    start = time.perf_counter()
    ev = _evidence_of(program, evidence)
    if query is None:
        raise InferError("the prob task needs a query atom")
    roots = [query] + [lit.atom for lit in ev]
    gp = _ground(program, gp, roots)
    cp = compile_program(gp, task="prob", node_cap=node_cap, roots=roots)
    qref = compile_query(cp, [Literal(query)])
    eref = compile_query(cp, list(ev))  # TRUE without evidence
    p_ev = cp.manager.prob(eref)
    if p_ev <= 0.0:
        raise InferError("evidence has probability zero")
    joint = qref & eref
    value = cp.manager.prob(joint) / p_ev
    stats = _stats(cp, joint.node_count(), start)
    return InferenceResult("prob", value, _log(value), True, None, stats)


def _best_result(program, task, evidence, query_cvs, normalize, node_cap, gp,
                 creation_order=None):
    start = time.perf_counter()
    ev = _evidence_of(program, evidence)
    roots = [lit.atom for lit in ev]
    gp = _ground(program, gp, roots, choices=True)
    cp = compile_program(gp, task=task, query_cvs=query_cvs, node_cap=node_cap,
                         creation_order=creation_order, roots=roots)
    eref = compile_query(cp, list(ev))
    if eref.is_false:
        # every variable weight is positive, so an unsatisfiable BDD is the
        # only way the evidence can have probability zero
        raise InferError("evidence has probability zero")
    chains = {ci: cp.var_ids[ci] for ci in cp.query_cvs}
    log_value, choices = cp.manager.map_best(eref, chains)
    if normalize:
        p_ev = cp.manager.prob(eref)
        if p_ev <= 0.0:
            raise InferError("evidence probability underflows to zero")
        # P(x | e) <= 1: a ratio that rounds above 1 reads 1
        log_value = min(log_value - math.log(p_ev), 0.0)
    return InferenceResult(task, math.exp(log_value), log_value, normalize,
                           Assignment.of(gp, choices), _stats(cp, eref.node_count(), start))


def mpe(program, evidence=None, normalize=False, node_cap=None, gp=None):
    """The most probable total head selection given the evidence."""
    return _best_result(program, "mpe", evidence, None, normalize, node_cap, gp)


def map_query(
    program,
    evidence=None,
    query_cvs=None,
    normalize=False,
    node_cap=None,
    gp=None,
    creation_order=None,
):
    """The most probable selection of the query choice variables, summing out
    the rest.  query_cvs defaults to the map_query-flagged clauses' variables."""
    return _best_result(
        program, "map", evidence, query_cvs, normalize, node_cap, gp,
        creation_order,
    )
