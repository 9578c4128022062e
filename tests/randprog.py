"""Seeded random programs for property tests.

random_case draws a propositional program with a query and evidence.  Every
case is a pure function of its seed and of ties: at most four annotated
clauses (six choice variables would need four clauses of three heads, so the
world count stays tiny), at most three heads per clause, deterministic rules
in a second stratum whose bodies may negate first-stratum atoms, and
optional positive recursion inside either stratum.  Evidence is resampled
until the oracle certifies it has positive probability.  untied redraws a
program's probabilities so that its maximisers are unique.

random_first_order_src draws first-order program text, random_demand the
atoms to ground it for, and backward_cone is the reference for what
grounding with a demand must return.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from lpadc.grounder import ground
from lpadc.model import AnnotatedClause, Atom, Literal, Program, Var
from lpadc.oracle import exact_prob
from lpadc.parser import parse_atom, parse_program

_HEAD_POOL = ["h0", "h1", "h2", "h3", "h4", "h5"]
_DERIVED_POOL = ["d0", "d1", "d2"]


@dataclass(frozen=True)
class Case:
    seed: int
    src: str
    program: object
    gp: object
    query: object  # Atom
    evidence: tuple  # Literals, possibly empty


def _head_probs(rng, k, ties):
    if ties:
        probs = [rng.choice((0.25, 0.5)) for _ in range(k)]
        while sum(probs) > 1.0:
            probs[probs.index(0.5)] = 0.25
        return probs
    weights = [rng.uniform(0.1, 1.0) for _ in range(k)]
    total = 1.0 if rng.random() < 0.4 else rng.uniform(0.3, 0.95)
    scale = total / sum(weights)
    return [w * scale for w in weights]


def _choice_clause(rng, ties):
    k = rng.randint(1, 3)
    heads = rng.sample(_HEAD_POOL, k)
    probs = _head_probs(rng, k, ties)
    text = "; ".join("%s:%r" % (a, p) for a, p in zip(heads, probs))
    if rng.random() < 0.5:
        body = rng.sample(_HEAD_POOL, rng.randint(1, 2))
        text += " :- " + ", ".join(body)
    return text + "."


def _det_rule(rng):
    head = rng.choice(_DERIVED_POOL)
    if rng.random() < 0.15:
        return head + "."
    lits = []
    for _ in range(rng.randint(1, 3)):
        if rng.random() < 0.3:
            lits.append(rng.choice(_DERIVED_POOL))
        elif rng.random() < 0.4:
            lits.append("\\+" + rng.choice(_HEAD_POOL))
        else:
            lits.append(rng.choice(_HEAD_POOL))
    return "%s :- %s." % (head, ", ".join(lits))


def _sample_literals(rng, atoms, n):
    out = []
    for name in rng.sample(atoms, n):
        out.append(Literal(parse_atom(name), negated=rng.random() < 0.3))
    return tuple(out)


def random_case(seed, ties=False):
    """With ties, head probabilities come from {0.25, 0.5}, so equal
    probabilities and tied maximisers are common."""
    rng = random.Random(seed)
    lines = [_choice_clause(rng, ties) for _ in range(rng.randint(1, 4))]
    lines.extend(_det_rule(rng) for _ in range(rng.randint(0, 3)))
    src = "\n".join(lines) + "\n"
    program = parse_program(src)
    gp = ground(program)
    atoms = sorted({str(h[0]) for c in program.clauses for h in c.heads})
    query = parse_atom(rng.choice(atoms))
    evidence = ()
    for _ in range(60):
        candidate = _sample_literals(rng, atoms, rng.randint(1, min(2, len(atoms))))
        if exact_prob(gp, candidate) > 0.0:
            evidence = candidate
            break
    return Case(seed, src, program, gp, query, evidence)


def map_subset(case, rng=None):
    """A nonempty random subset of choice-variable indices for MAP runs."""
    rng = rng or random.Random(case.seed ^ 0x9E3779B9)
    n = len(case.gp.choice_vars)
    if n == 0:
        return []
    size = rng.randint(1, n)
    return sorted(rng.sample(range(n), size))


_PREDS = (("p", 1), ("q", 2), ("r", 1), ("s", 2), ("t", 0), ("u", 3))
_VARS = ("X", "Y", "Z")


def random_first_order_src(seed):
    """Facts, then rules over a shared predicate pool (so rules recurse),
    with repeated variables, constants in bodies, negated literals and
    multi-head clauses; every head and negated variable occurs in a positive
    body literal."""
    rng = random.Random(seed)
    consts = rng.sample(["a", "b", "c", "1", "2"], rng.randint(2, 3))

    def atom(names):
        pred, arity = rng.choice(_PREDS)
        args = [
            rng.choice(names) if names and rng.random() < 0.75 else rng.choice(consts)
            for _ in range(arity)
        ]
        return args, "%s(%s)" % (pred, ",".join(args)) if arity else pred

    lines = ["p(%s)." % consts[0]]  # so the program has a constant
    for _ in range(rng.randint(2, 7)):
        text = atom(())[1]
        lines.append(text + (":%r." % rng.choice([0.3, 0.8]) if rng.random() < 0.5 else "."))
    for _ in range(rng.randint(1, 6)):
        body = [atom(_VARS) for _ in range(rng.choice([1, 1, 2, 2, 3]))]
        bound = sorted({t for args, _ in body for t in args if t in _VARS})
        texts = [text for _, text in body]
        texts += ["\\+ " + atom(bound)[1] for _ in range(rng.choice([0, 0, 1]))]
        heads = [atom(bound)[1] for _ in range(rng.choice([1, 1, 2]))]
        if len(heads) == 1 and rng.random() < 0.5:
            head = heads[0]
        else:
            head = "; ".join("%s:%r" % (h, 0.9 / len(heads)) for h in heads)
        lines.append("%s :- %s." % (head, ", ".join(texts)))
    return "\n".join(lines) + "\n"


def constants(program):
    """The constants of a program in the order its clauses, evidence and
    queries first use them."""
    out = []
    seen = set()

    def add(t):
        if not isinstance(t, Var) and t not in seen:
            seen.add(t)
            out.append(t)

    for cl in program.clauses:
        for a, _ in cl.heads:
            for t in a.args:
                add(t)
        for lit in cl.body:
            for t in lit.atom.args:
                add(t)
    for lit in program.evidence:
        for t in lit.atom.args:
            add(t)
    for a in program.queries:
        for t in a.args:
            add(t)
    return out


def random_demand(program, gp, seed):
    """Two possible atoms of gp (fewer if it has fewer) and one ground atom
    over the program's predicates and constants that has no rules."""
    rng = random.Random(seed ^ 0x5EED)
    demand = rng.sample(gp.atoms, min(2, len(gp.atoms)))
    consts = constants(program)
    possible = set(gp.atoms)
    for _ in range(20):
        pred, arity = rng.choice(_PREDS)
        atom = Atom(pred, tuple(rng.choice(consts) for _ in range(arity)))
        if atom not in possible:
            break
    else:
        atom = Atom("v", (consts[0],))
    return demand + [atom]


def backward_cone(gp, atoms):
    """The ground clauses of gp the given atoms depend on, in gp's order, and
    the atoms reached: every clause with a reached head is kept, and its body
    atoms, positive or negated, are reached."""
    reached = set(atoms)
    stack = list(atoms)
    kept = set()
    while stack:
        for gi, _ in gp.rules_by_head.get(stack.pop(), ()):
            if gi not in kept:
                kept.add(gi)
                for lit in gp.ground_clauses[gi].body:
                    if lit.atom not in reached:
                        reached.add(lit.atom)
                        stack.append(lit.atom)
    return [gc for gi, gc in enumerate(gp.ground_clauses) if gi in kept], reached


def untied(program, seed=0):
    """The program with the value probabilities of every probabilistic
    clause, null value included, redrawn at random: a program whose
    maximisers are unique, with the same ground structure."""
    rng = random.Random(seed)
    clauses = []
    for cl in program.clauses:
        if cl.n_values > 1:
            w = [rng.uniform(0.5, 1.0) for _ in range(cl.n_values)]
            heads = w[-len(cl.heads):]
            cl = AnnotatedClause(cl.clause_id, tuple(
                (atom, x / sum(w)) for (atom, _), x in zip(cl.heads, heads)),
                cl.body, cl.is_query)
        clauses.append(cl)
    return Program(tuple(clauses), program.evidence, program.queries, program.warnings)
