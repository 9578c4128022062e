"""Marginal, MPE and MAP inference over compiled programs.

All three tasks compile the program under one encoding, where each choice
variable is a chain of Boolean variables (see lpadc.compiler), created in
post-order from the query and evidence atoms.  Marginals
are weighted counts of the query BDD.  MPE and MAP put the query choice
variables' chains on the top levels and run one max-product pass over the
evidence BDD (BddManager.map_best): within a query chain it maximizes over
the values a path can still select, and at the first non-query node it
switches to the weighted count of the rest.  The pass is sound because a
compiled formula depends on a chain only through the value it selects, so a
path enters a chain at its first bit and leaves it after a 1-branch.

Of several equal maximisers the first is reported: compare the choice
variables in index order and each one's values in chain order (the explicit
heads as written, the null head last).  The pass says whether its maximiser
is unique; when it may not be, _settle fixes the query groups one at a time
on the same diagram, by conjunction with each value in turn, and
stats.tie_groups counts the groups it fixed.  Value, log_value and selection
therefore do not depend on the variable order.

Maximization reports the joint probability P(x, e) by default; pass
normalize=True for P(x | e).  The pass runs in log space and the result
carries log_value next to value = exp(log_value), so a selection keeps a
meaningful score when its probability underflows a float.  Assignments
cover every query choice variable: variables the best path never touches
are completed with their most probable head (the path not branching on them
means any head yields the same remainder, so the maximum picks the
heaviest).

A marginal grounds only what its query and evidence atoms depend on
(grounder.ground with a demand).  MPE and MAP ground what the evidence atoms
and every probabilistic clause depend on (choices=True), because their
assignments cover every query choice variable; the choice variables keep
the whole program's numbering.  They create chains only for the evidence's
cone (compiler.cone_order): the diagram tests no other variable, so every
other query variable takes its most probable head and adds its log
probability to log_value, and a summed-out one adds nothing.  Every entry
point validates the program, also when the caller passes a ground program
of its own; one grounded for a demand is accepted only when it covers the
task's: its demand holds the query and evidence atoms, and for MPE and MAP
it was grounded with choices.
"""

from __future__ import annotations

import math
import time

from . import grounder
from .bdd import _log, _near
from .compiler import compile_program, compile_query, cone_order
from .model import Assignment, Literal, validate


class InferError(Exception):
    pass


class InferenceStats:
    __slots__ = ("ground_atoms", "ground_clauses", "choice_vars", "bool_vars",
                 "bdd_nodes", "fixpoint_iterations", "tie_groups", "wall_time_s")

    def __init__(self, ground_atoms=0, ground_clauses=0, choice_vars=0, bool_vars=0,
                 bdd_nodes=0, fixpoint_iterations=0, tie_groups=0, wall_time_s=0.0):
        self.ground_atoms = ground_atoms
        self.ground_clauses = ground_clauses
        self.choice_vars = choice_vars
        self.bool_vars = bool_vars
        self.bdd_nodes = bdd_nodes
        self.fixpoint_iterations = fixpoint_iterations
        self.tie_groups = tie_groups  # MPE/MAP: query groups a tie fixed by conditioning
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
        fixpoint_iterations=cp.stats.fixpoint_iterations,
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
    stats = _stats(cp, nodes, start)
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


def _settle(cp, eref, log_value):
    """The first of several maximisers: fix the query groups that have a
    chain one at a time, in index order, each to its first chain position
    that still reaches log_value.  Returns {choice variable: position}."""
    enc = cp.encoding
    fixed, choices = eref, {}
    for ci in sorted(cp.query_cvs):
        if enc.group_vars(ci) is None:
            continue
        for pos in range(cp.gp.choice_vars[ci].n_values):
            f = fixed & enc.value_bdd(ci, enc.value_at(ci, pos))
            if _near(cp.manager.map_best(f)[0], log_value):
                break
        fixed, choices[ci] = f, pos
    return choices


def _best_result(program, task, evidence, query_cvs, normalize, node_cap, gp,
                 creation_order=None):
    start = time.perf_counter()
    ev = _evidence_of(program, evidence)
    roots = [lit.atom for lit in ev]
    gp = _ground(program, gp, roots, choices=True)
    # chains only for the evidence cone: the diagram tests no other variable
    cone = cone_order(gp, roots)
    if creation_order is not None:
        inside = set(cone)
        cone = [ci for ci in creation_order if ci in inside]
    cp = compile_program(gp, task=task, query_cvs=query_cvs, node_cap=node_cap,
                         creation_order=cone)
    eref = compile_query(cp, list(ev))
    if eref.is_false:
        # every variable weight is positive, so an unsatisfiable BDD is the
        # only way the evidence can have probability zero
        raise InferError("evidence has probability zero")
    log_value, choices, unique = cp.manager.map_best(eref)
    if not unique:
        choices = _settle(cp, eref, log_value)
    assignment = decode(choices, cp.encoding, cp.query_cvs)
    # a query variable outside the cone takes its most probable head whatever
    # the rest selects; a summed-out one contributes its total mass, 1
    log_value += sum(math.log(max(gp.choice_vars[ci].probs))
                     for ci in cp.query_cvs if cp.encoding.group_vars(ci) is None)
    if normalize:
        p_ev = cp.manager.prob(eref)
        if p_ev <= 0.0:
            raise InferError("evidence probability underflows to zero")
        log_value -= math.log(p_ev)
    stats = _stats(cp, eref.node_count(), start)
    stats.tie_groups = 0 if unique else len(choices)
    return InferenceResult(
        task, math.exp(log_value), log_value, normalize, assignment, stats
    )


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
