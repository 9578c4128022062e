"""Brute-force reference semantics by world enumeration.

A world fixes one head per choice variable; its probability is the product
of the selected head probabilities.  The model of a world is the least model
of the selected ground rules, computed stratum by stratum.  These routines
share the grounder with the engine but none of its BDD machinery, so they
serve as an independent check.
"""

from __future__ import annotations

import itertools

ORACLE_WORLD_CAP = 1 << 22


class OracleCapError(Exception):
    pass


class World:
    __slots__ = ("selection", "probability", "model")

    def __init__(self, selection, probability, model):
        self.selection = selection  # a value index per choice variable, chain order
        self.probability = probability
        self.model = model  # frozenset of the ground atoms true in this world

    def entails(self, literals):
        for lit in literals:
            if (lit.atom in self.model) == lit.negated:
                return False
        return True


def _prepared_rules(gp):
    """Rules grouped by stratum: (head, positives, negatives, guard).

    guard is None for deterministic instances, else (cv_index, head position):
    the rule fires only when that choice variable selects that head.
    """
    strata = gp.strata()
    per_level = [[] for _ in strata.levels]
    for gc in gp.ground_clauses:
        for pos, (head, _) in enumerate(gc.heads):
            guard = None
            if gc.cv_index is not None:
                guard = (gc.cv_index, pos)
            positives = tuple(l.atom for l in gc.body if not l.negated)
            negatives = tuple(l.atom for l in gc.body if l.negated)
            per_level[strata.index[head]].append((head, positives, negatives, guard))
    return per_level


def _world_model(per_level, selection):
    model = set()
    for rules in per_level:
        changed = True
        while changed:
            changed = False
            for head, positives, negatives, guard in rules:
                if head in model:
                    continue
                if guard is not None and selection[guard[0]] != guard[1]:
                    continue
                if all(a in model for a in positives) and not any(
                    a in model for a in negatives
                ):
                    model.add(head)
                    changed = True
    return model


def count_worlds(gp):
    n = 1
    for cv in gp.choice_vars:
        n *= cv.n_values
    return n


def enumerate_worlds(gp, cap=ORACLE_WORLD_CAP):
    """Yield every world.  Raises OracleCapError when there are too many."""
    total = count_worlds(gp)
    if total > cap:
        raise OracleCapError("%d worlds exceed the cap of %d" % (total, cap))
    per_level = _prepared_rules(gp)
    ranges = [range(cv.n_values) for cv in gp.choice_vars]
    probs = [cv.probs for cv in gp.choice_vars]
    for selection in itertools.product(*ranges):
        p = 1.0
        for i, k in enumerate(selection):
            p *= probs[i][k]
        yield World(selection, p, frozenset(_world_model(per_level, selection)))


def exact_prob(gp, literals, cap=ORACLE_WORLD_CAP):
    """P(conjunction of literals) by summing entailing worlds."""
    return sum(w.probability for w in enumerate_worlds(gp, cap) if w.entails(literals))


def exact_cond_prob(gp, query_literals, evidence_literals, cap=ORACLE_WORLD_CAP):
    p_joint = 0.0
    p_ev = 0.0
    for w in enumerate_worlds(gp, cap):
        if w.entails(evidence_literals):
            p_ev += w.probability
            if w.entails(query_literals):
                p_joint += w.probability
    if p_ev == 0.0:
        raise ZeroDivisionError("evidence has probability zero")
    return p_joint / p_ev


def exact_map(gp, evidence_literals, query_cv_indices, cap=ORACLE_WORLD_CAP, rel_tol=1e-9):
    """Exhaustive MAP: maximize P(x, e) over assignments x to the query
    choice variables.

    Returns (best value, argmax list) where each argmax is a dict mapping
    choice-variable index to selected value; the list keeps every assignment
    within rel_tol of the maximum (exact ties do occur).
    """
    query = sorted(query_cv_indices)
    scores = {}
    for w in enumerate_worlds(gp, cap):
        if not w.entails(evidence_literals):
            continue
        x = tuple(w.selection[i] for i in query)
        scores[x] = scores.get(x, 0.0) + w.probability
    if not scores:
        return 0.0, []
    best = max(scores.values())
    argmax = [
        dict(zip(query, x))
        for x, s in scores.items()
        if s >= best - rel_tol * max(best, 1.0)
    ]
    return best, argmax


def exact_mpe(gp, evidence_literals, cap=ORACLE_WORLD_CAP, rel_tol=1e-9):
    """Exhaustive MPE: the most probable single world entailing the evidence."""
    return exact_map(
        gp, evidence_literals, range(len(gp.choice_vars)), cap=cap, rel_tol=rel_tol
    )


def first_maximiser(argmax):
    """The maximiser to report among ties: compare the choice variables in
    index order and each one's values in index order, the explicit heads as
    written and the null head last."""
    return min(argmax, key=lambda sel: sorted(sel.items()))


def score_assignment(gp, evidence_literals, partial, cap=ORACLE_WORLD_CAP):
    """Sum of world probabilities consistent with a partial selection (a dict
    of cv index -> value) that also entail the evidence."""
    total = 0.0
    for w in enumerate_worlds(gp, cap):
        if all(w.selection[i] == k for i, k in partial.items()):
            if w.entails(evidence_literals):
                total += w.probability
    return total
