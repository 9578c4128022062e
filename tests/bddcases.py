"""Shared machinery for kernel property tests: random formula trees with an
independent evaluator, structural invariant checks, and brute-force weighted
counts and maximizations used as references."""

from __future__ import annotations

import itertools
import random


def gen_tree(rng, nv, depth=4):
    if depth == 0 or rng.random() < 0.3:
        return ("lit", rng.randrange(nv), rng.random() < 0.5)
    op = rng.choice(("and", "or", "not"))
    if op == "not":
        return ("not", gen_tree(rng, nv, depth - 1))
    return (op, gen_tree(rng, nv, depth - 1), gen_tree(rng, nv, depth - 1))


def build(manager, tree):
    if tree[0] == "lit":
        _, v, neg = tree
        return manager.nvar(v) if neg else manager.var(v)
    if tree[0] == "not":
        return ~build(manager, tree[1])
    a = build(manager, tree[1])
    b = build(manager, tree[2])
    return a & b if tree[0] == "and" else a | b


def evaluate(tree, values):
    if tree[0] == "lit":
        _, v, neg = tree
        return bool(values[v]) ^ neg
    if tree[0] == "not":
        return not evaluate(tree[1], values)
    if tree[0] == "and":
        return evaluate(tree[1], values) and evaluate(tree[2], values)
    return evaluate(tree[1], values) or evaluate(tree[2], values)


def restructure(tree, rng):
    """A randomly rewritten tree denoting the same function: commutative
    swaps, double negation, and De Morgan rewrites."""
    if tree[0] == "lit":
        if rng.random() < 0.3:
            return ("not", ("lit", tree[1], not tree[2]))
        return tree
    if tree[0] == "not":
        inner = tree[1]
        if inner[0] == "not" and rng.random() < 0.5:
            return restructure(inner[1], rng)
        if inner[0] in ("and", "or") and rng.random() < 0.5:
            flip = "or" if inner[0] == "and" else "and"
            return (
                flip,
                restructure(("not", inner[1]), rng),
                restructure(("not", inner[2]), rng),
            )
        return ("not", restructure(inner, rng))
    a = restructure(tree[1], rng)
    b = restructure(tree[2], rng)
    if rng.random() < 0.5:
        a, b = b, a
    if rng.random() < 0.2:
        return ("not", ("not", (tree[0], a, b)))
    return (tree[0], a, b)


def assignments(nv):
    return itertools.product((False, True), repeat=nv)


def exhaustive_equal(manager, ref, tree, nv):
    return all(
        manager.eval(ref, vals) == evaluate(tree, vals) for vals in assignments(nv)
    )


def check_structure(manager, ref):
    """Complement discipline, reduction, ordering, and store uniqueness over
    the nodes reachable from ref.  Returns a list of violation strings."""
    bad = []
    seen_keys = {}
    node_list = manager.nodes(ref)
    var_of = {n: v for n, v, _, _ in node_list}
    for n, v, lo, hi in node_list:
        if hi & 1:
            bad.append("node %d stores a complemented 1-edge" % n)
        if lo == hi:
            bad.append("node %d is redundant (lo == hi)" % n)
        key = (v, lo, hi)
        if key in seen_keys:
            bad.append("nodes %d and %d duplicate %r" % (seen_keys[key], n, key))
        seen_keys[key] = n
        level = manager.var_info(v).level
        for child in (lo >> 1, hi >> 1):
            if child != 0:
                child_level = manager.var_info(var_of[child]).level
                if child_level <= level:
                    bad.append("node %d breaks the level order" % n)
    return bad


def brute_wmc(manager, ref, nv):
    """Full-enumeration weighted count; a valid reference only when every
    variable's weights sum to 1 (then untested variables are neutral, which
    is what the kernel recursion assumes)."""
    total = 0.0
    for vals in assignments(nv):
        if manager.eval(ref, vals):
            w = 1.0
            for i, b in enumerate(vals):
                info = manager.var_info(i)
                w *= info.weight if b else info.zero_weight
            total += w
    return total


def chain_case(seed, manager, ties=False):
    """Order-encoded groups for map_best: 1-4 groups, each a chain of 1-3
    bits (value k < bits is "bits 0..k-1 clear, bit k set", the last value
    is all bits clear), query groups created first, and a random formula
    over "group g takes value k" literals.  Returns (groups, tree, ref),
    where groups is a list of (value probabilities, var ids, is_query).
    With ties, value weights are drawn from {1, 2}, so equal probabilities
    and tied maximisers are common."""
    rng = random.Random(seed)
    n_groups = rng.randint(1, 4)
    n_query = rng.randint(1, n_groups)
    groups = []
    for g in range(n_groups):
        bits = rng.randint(1, 3)
        if ties:
            raw = [rng.choice((1.0, 2.0)) for _ in range(bits + 1)]
        else:
            raw = [rng.uniform(0.05, 1.0) for _ in range(bits + 1)]
        probs = [x / sum(raw) for x in raw]
        ids, denom = [], 1.0
        for j in range(bits):
            w = probs[j] / denom
            ids.append(manager.new_var(g, j, w))
            denom *= 1.0 - w
        groups.append((probs, ids, g < n_query))
    tree = _value_tree(rng, groups, depth=rng.randint(1, 4))
    return groups, tree, _build_values(manager, groups, tree)


def _value_tree(rng, groups, depth):
    if depth == 0 or rng.random() < 0.3:
        g = rng.randrange(len(groups))
        return ("val", g, rng.randrange(len(groups[g][0])))
    op = rng.choice(("and", "or", "not"))
    if op == "not":
        return ("not", _value_tree(rng, groups, depth - 1))
    return (op, _value_tree(rng, groups, depth - 1),
            _value_tree(rng, groups, depth - 1))


def _build_values(manager, groups, tree):
    if tree[0] == "val":
        _, g, k = tree
        ids = groups[g][1]
        out = manager.true
        for v in ids[:k]:
            out = out & manager.nvar(v)
        if k < len(ids):
            out = out & manager.var(ids[k])
        return out
    if tree[0] == "not":
        return ~_build_values(manager, groups, tree[1])
    a = _build_values(manager, groups, tree[1])
    b = _build_values(manager, groups, tree[2])
    return a & b if tree[0] == "and" else a | b


def _eval_values(tree, values):
    if tree[0] == "val":
        return values[tree[1]] == tree[2]
    if tree[0] == "not":
        return not _eval_values(tree[1], values)
    if tree[0] == "and":
        return _eval_values(tree[1], values) and _eval_values(tree[2], values)
    return _eval_values(tree[1], values) or _eval_values(tree[2], values)


def brute_map(groups, tree):
    """Reference for map_best by enumeration over value tuples: the maximum
    over query-group values of their probability times the summed
    probability of the formula over the other groups' values, and a
    function scoring any query-value tuple."""
    query = [g for g, (_, _, q) in enumerate(groups) if q]
    rest = [g for g, (_, _, q) in enumerate(groups) if not q]

    def score(qvals):
        total = 0.0
        for rvals in itertools.product(*(range(len(groups[g][0])) for g in rest)):
            values = dict(zip(query, qvals))
            values.update(zip(rest, rvals))
            if _eval_values(tree, values):
                w = 1.0
                for g, k in values.items():
                    w *= groups[g][0][k]
                total += w
        return total

    best = max(score(qvals) for qvals in query_values(groups))
    return best, score


def query_values(groups):
    """Every tuple of values of the query groups, in group order."""
    return itertools.product(*(range(len(p)) for p, _, q in groups if q))


def random_case(seed, max_vars=12, order_weights=True):
    """One seeded case: a manager with nv vars, a formula, and its tree."""
    from lpadc.bdd import BddManager

    rng = random.Random(seed)
    nv = rng.randint(2, max_vars)
    manager = BddManager()
    for i in range(nv):
        w = rng.uniform(0.05, 0.95)
        if order_weights:
            manager.new_var(i, 0, w)
        else:
            manager.new_var(i, 0, w, zero_weight=rng.choice([1.0, 1.0 - w]))
    tree = gen_tree(rng, nv, depth=rng.randint(2, 5))
    return manager, tree, nv, rng
