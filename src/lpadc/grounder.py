"""Grounding and stratification.

Grounding keeps a clause instance only when every positive body atom is a
possible atom: a head of some kept instance, so derivable under some
selection.  Negative literals are ignored while matching, which
over-approximates but never loses an instance some world uses.
ground(program) grounds every possible atom; ground(program, demand) returns
only the part the demanded ground atoms depend on (their backward cone): the
instances with a head in the cone, where the cone holds the demanded atoms
and every body atom, positive or negated, of those instances.  With
choices=True the heads of every instance of every probabilistic clause are
demanded too, so the part holds every choice variable of the program.

The possible atoms are a least fixpoint, computed by semi-naive evaluation
(Bancilhon & Ramakrishnan, SIGMOD 1986) in rounds.  Round 0 fires the
clauses without a positive body literal; a fact without variables is its
own instance, and no join plan is built for it.  Round r fires a clause
only when one of its positive body predicates gained atoms in round r-1
(the delta), once per such literal i: the literals before i join against
the atoms older than the delta, literal i against the delta, and the
literals after i against every atom up to the delta, so each instance is
found exactly once.  The delta literal is joined first, the others after it
in literal order.  Candidate atoms come from an index keyed on (pred,
arity, position, constant) for the first argument already bound when a
literal is joined, and on (pred, arity) when none is; only positions some
literal probes while bound are indexed.

With a demand, a static adornment pass first follows the calls from the
demanded atoms (with choices, also from each head of each probabilistic
clause, its constants bound and its variables free), passing bindings left
to right through each clause body, negated literals after the positive ones
(sideways information passing).
If some predicate defined by a clause with variables is called with a free
argument (reachability: path(0, 99) calls path(0, Z)), the program is
evaluated under the demand (magic-set) rewrite (Beeri & Ramakrishnan, PODS
1987): every called clause with variables gets one guarded copy per set of
head variables its calls bind, fed by one rule per (head, call adornment),
and each body literal of such a predicate gets a demand rule from the guard
and the positive literals before it; clauses with variables that no call
reaches are dropped.  Variable-free clauses stay
unguarded and their body atoms are demanded outright.  Otherwise, when every
call binds every argument, the whole program is evaluated, which is cheaper
there.  Either way the result is pruned to the cone.  Demand and guard atoms
use tuple predicates, which no parsed program has, and never reach the
result.

Numbering is deterministic.  Atoms are numbered as they are first derived:
by round, then clause, then instance, then head.  A clause's instances are
numbered (grounding_id) by round and, within a round, by the numbers of
their positive body atoms in literal order, compared lexicographically.
Choice variables follow their instances in clause order.  A cone is numbered
densely in the same relative order as the whole program: its rounds are
replayed over the cone, whose atoms have the same derivations there.  A
part grounded with choices holds every instance of every probabilistic
clause, so its choice variables, indices and grounding ids are the whole
program's.

The strata of the ground program are its strongly connected components
over ground atoms, in condensation order (dependencies first), found by one
iterative Tarjan pass; a negative edge inside a component is an error.  The
compiler evaluates the program in the same component order.  A cone is
rejected exactly when the whole program would be: only when the predicate
dependency graph has a cycle through negation is the whole program grounded
and checked.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from itertools import groupby
from operator import itemgetter

from .model import NULL, AnnotatedClause, Atom, ChoiceVariable, Literal, Var


class GroundingError(Exception):
    pass


class StratificationError(Exception):
    pass


class GroundClause:
    """One ground instance of a source clause."""

    __slots__ = ("clause_id", "grounding_id", "heads", "body", "null_prob", "cv_index")

    def __init__(self, clause_id, grounding_id, heads, body, null_prob, cv_index):
        self.clause_id = clause_id
        self.grounding_id = grounding_id
        self.heads = heads  # ((Atom, float), ...) explicit heads, instantiated
        self.body = body  # (Literal, ...)
        self.null_prob = null_prob
        self.cv_index = cv_index  # int, or None for deterministic instances

    @property
    def has_null(self):
        return self.null_prob > 0.0

    def value_index(self, head_pos):
        """Selection index of explicit head number head_pos (authored order)."""
        return head_pos + 1 if self.has_null else head_pos


class Strata:
    """The strongly connected components of the atom dependency graph, each
    after the components it depends on: a stratification, and the order in
    which the compiler evaluates."""

    __slots__ = ("levels", "index", "cyclic")

    def __init__(self, levels, index, cyclic):
        self.levels = levels  # a tuple of atoms per component, dependencies first
        self.index = index  # Atom -> component number
        self.cyclic = cyclic  # per component: several atoms, or one depending on itself

    def level_of(self, atom):
        return self.index.get(atom, 0)


class GroundProgram:
    def __init__(self, program, ground_clauses, choice_vars, atoms, demand=None,
                 choices=True):
        self.program = program
        self.ground_clauses = tuple(ground_clauses)
        self.choice_vars = tuple(choice_vars)
        self.atoms = tuple(atoms)  # the instances' heads in derivation order
        self.demand = demand  # the demanded atoms, None for the whole program
        self.choices = choices  # holds every instance of every probabilistic clause
        self.rules_by_head = {}
        for gi, gc in enumerate(self.ground_clauses):
            for pos, (a, _) in enumerate(gc.heads):
                self.rules_by_head.setdefault(a, []).append((gi, pos))
        self._strata = None

    def strata(self):
        """The strata; raises StratificationError when the whole program,
        not only the demanded part, has a negative cycle."""
        if self._strata is None:
            if self.demand is not None and _negative_predicate_cycle(self.program):
                # the cycle may lie outside the demanded part
                stratify(_ground_all(self.program))
            self._strata = stratify(self)
        return self._strata


def _plan(positives, first, slots, probed):
    """Join steps over a clause's positive literals: literal `first` (the
    delta) first, the others after it in literal order.  A step is
    (literal number, index key, probe, ops): the probe is the first argument
    bound when the step runs, as (position, kind, value), or None; ops check
    or bind the remaining arguments in argument order, kind 0 comparing with
    a constant, 1 with a bound slot, and 2 binding a slot."""
    bound = set()
    steps = []
    for j in [first] + [j for j in range(len(positives)) if j != first]:
        atom = positives[j]
        key = (atom.pred, len(atom.args))
        probe = None
        ops = []
        binds = set()
        for pos, t in enumerate(atom.args):
            if not isinstance(t, Var):
                op = (pos, 0, t)
            elif t in binds:  # a repeat within this literal
                ops.append((pos, 1, slots[t]))
                continue
            elif t in bound:
                op = (pos, 1, slots[t])
            else:
                binds.add(t)
                ops.append((pos, 2, slots[t]))
                continue
            if probe is None:
                probe = op
                probed.add(key + (pos,))
            else:
                ops.append(op)
        bound |= binds
        steps.append((j, key, probe, tuple(ops)))
    return tuple(steps)


def _template(atom, slots):
    """(pred, ((is_var, slot or constant), ...)), or the atom itself when it
    is ground."""
    if atom.is_ground():
        return atom
    return atom.pred, tuple(
        (True, slots[t]) if isinstance(t, Var) else (False, t) for t in atom.args
    )


def _fill(template, env):
    if isinstance(template, Atom):
        return template
    pred, args = template
    return Atom(pred, tuple(env[v] if is_var else v for is_var, v in args))


class _ClauseJoin:
    """What ground() needs of one source clause: the join plan for each
    positive literal as the delta, and templates for the instance."""

    def __init__(self, clause, probed):
        self.clause = clause
        self.positives = [lit.atom for lit in clause.body if not lit.negated]
        slots = {}
        for atom in self.positives:
            for t in atom.args:
                if isinstance(t, Var):
                    slots.setdefault(t, len(slots))
        self.n_slots = len(slots)
        self.unbound = [v for v in clause.variables() if v not in slots]
        self.plans = [
            _plan(self.positives, i, slots, probed) for i in range(len(self.positives))
        ]
        if self.unbound:
            return
        self.heads = [(_template(a, slots), p) for a, p in clause.heads]
        self.body = [
            lit if lit.atom.is_ground() else (_template(lit.atom, slots), lit.negated)
            for lit in clause.body
        ]

    def instance(self, env):
        """(heads, body) under the slot values env."""
        if self.unbound:
            raise GroundingError(
                "clause %d: unbound variable %s" % (self.clause.clause_id, self.unbound[0])
            )
        heads = tuple((_fill(t, env), p) for t, p in self.heads)
        body = tuple(
            t if isinstance(t, Literal) else Literal(_fill(t[0], env), t[1])
            for t in self.body
        )
        return heads, body


def _fixpoint(clauses):
    """The least fixpoint of clauses by semi-naive evaluation: the derived
    atoms in derivation order, and each clause's instances as (heads, body)
    in grounding order (see the module docstring)."""
    probed = set()  # (pred, arity, position) some literal probes while bound
    joins = [None if not cl.body and not cl.variables() else _ClauseJoin(cl, probed)
             for cl in clauses]
    triggers = {}  # (pred, arity) -> [(clause number, positive literal number)]
    for ci, cj in enumerate(joins):
        for j, atom in enumerate(cj.positives if cj else ()):
            triggers.setdefault((atom.pred, len(atom.args)), []).append((ci, j))

    atoms = []  # atom number -> Atom, in derivation order
    known = set()
    index = {}  # (pred, arity[, position, constant]) -> ascending atom numbers
    instances = [[] for _ in joins]  # per clause: (heads, body) in grounding order

    def add_instance(ci, inst):
        instances[ci].append(inst)
        for a, _ in inst[0]:
            if a in known:
                continue
            known.add(a)
            n = len(atoms)
            atoms.append(a)
            key = (a.pred, len(a.args))
            index.setdefault(key, []).append(n)
            for pos, t in enumerate(a.args):
                if key + (pos,) in probed:
                    index.setdefault(key + (pos, t), []).append(n)

    def join(steps, k, ranges, env, chosen, found, cj):
        if k == len(steps):
            found.append((tuple(chosen), cj.instance(env)))
            return
        j, key, probe, ops = steps[k]
        if probe is not None:
            pos, kind, val = probe
            key = key + (pos, env[val] if kind else val)
        bucket = index.get(key)
        if not bucket:
            return
        lo, hi = ranges[j]
        for n in bucket[bisect_left(bucket, lo) if lo else 0:bisect_left(bucket, hi)]:
            args = atoms[n].args
            for pos, kind, val in ops:
                if kind == 2:
                    env[val] = args[pos]
                elif (env[val] if kind else val) != args[pos]:
                    break
            else:
                chosen[j] = n
                join(steps, k + 1, ranges, env, chosen, found, cj)

    for ci, cj in enumerate(joins):  # round 0
        if cj is None:
            add_instance(ci, (clauses[ci].heads, ()))
        elif not cj.positives:
            add_instance(ci, cj.instance(()))
    lo = 0
    while lo < len(atoms):
        hi = len(atoms)  # atoms [lo, hi) are the last round's delta
        gained = {(a.pred, len(a.args)) for a in atoms[lo:hi]}
        fire = sorted({t for key in gained for t in triggers.get(key, ())})
        for ci, group in groupby(fire, key=itemgetter(0)):
            cj = joins[ci]
            found = []
            env = [None] * cj.n_slots
            chosen = [None] * len(cj.positives)
            for _, i in group:
                ranges = [(0, lo)] * i + [(lo, hi)] + [(0, hi)] * (len(chosen) - i - 1)
                join(cj.plans[i], 0, ranges, env, chosen, found, cj)
            found.sort(key=itemgetter(0))
            for _, inst in found:
                add_instance(ci, inst)
        lo = hi
    del join  # it refers to itself: break the cycle, so refcounting frees the atoms
    return atoms, instances


def _key(atom):
    return atom.pred, len(atom.args)


def _sideways(clause, bound):
    """Left-to-right sideways information passing through a clause whose
    head variables `bound` are bound: (literal, adornment, positive literals
    before it) per body literal, the positive ones in literal order and the
    negated ones after them.  An adornment marks each argument bound (a
    constant, or a variable bound by then) or free."""
    known = set(bound)
    before = []
    out = []
    for lit in sorted(clause.body, key=lambda lit: lit.negated):
        adornment = tuple(not isinstance(t, Var) or t in known for t in lit.atom.args)
        out.append((lit, adornment, tuple(before)))
        if not lit.negated:
            known.update(lit.atom.variables())
            before.append(lit)
    return out


def _demand_atom(atom, adornment):
    """The demand for atom under adornment: a fresh predicate per (predicate,
    adornment), over the bound arguments."""
    return Atom(
        ("demand", atom.pred, adornment),
        tuple(t for t, bound in zip(atom.args, adornment) if bound),
    )


def _demand_program(program, demand):
    """The demand rewrite of program for the demanded atoms, whose variables
    are free arguments, as (clauses, origins), or None when no predicate
    defined by a clause with variables is ever called with a free argument.
    origins[k] is (source clause number, literals to drop from the front of
    each instance body) for a clause whose instances belong to the result,
    None for the rules that derive demand and guard atoms."""
    with_vars = [bool(cl.variables()) for cl in program.clauses]
    rules = {}  # (pred, arity) -> [(clause number, head)] over clauses with variables
    for ci, cl in enumerate(program.clauses):
        if with_vars[ci]:
            for a, _ in cl.heads:
                rules.setdefault(_key(a), []).append((ci, a))
    calls = set()  # (pred, arity, adornment)
    guards = {}  # (clause number, bound head variables) -> _sideways steps
    feeds = []  # (clause number, bound head variables, head, adornment)
    work = []

    def call(atom, adornment):
        key = _key(atom)
        if key in rules and key + (adornment,) not in calls:
            calls.add(key + (adornment,))
            work.append((key, adornment))

    seeds = {}  # demand atoms that hold unconditionally
    for atom in [*demand, *(lit.atom for cl, v in zip(program.clauses, with_vars)
                            if not v for lit in cl.body)]:
        if _key(atom) in rules:
            adornment = tuple(not isinstance(t, Var) for t in atom.args)
            seeds[_demand_atom(atom, adornment)] = None
            call(atom, adornment)
    while work:
        key, adornment = work.pop()
        for ci, head in rules[key]:
            at_bound = {t for t, b in zip(head.args, adornment) if b and isinstance(t, Var)}
            cl = program.clauses[ci]
            bound = tuple(v for v in dict.fromkeys(cl.variables()) if v in at_bound)
            feeds.append((ci, bound, head, adornment))
            if (ci, bound) not in guards:
                guards[ci, bound] = steps = _sideways(cl, bound)
                for lit, adorn, _ in steps:
                    call(lit.atom, adorn)
    if all(all(adornment) for _, _, adornment in calls):
        return None

    def rule(head, body):
        return AnnotatedClause(clause_id=-1, heads=((head, 1.0),), body=tuple(body))

    def guard(ci, bound):
        return Atom(("guard", ci, bound), bound)

    clauses = [rule(a, ()) for a in seeds]
    origins = [None] * len(clauses)
    for ci, cl in enumerate(program.clauses):
        if not with_vars[ci]:
            clauses.append(cl)
            origins.append((ci, 0))
    for ci, bound, head, adornment in feeds:
        clauses.append(rule(guard(ci, bound), [Literal(_demand_atom(head, adornment))]))
        origins.append(None)
    for (ci, bound), steps in guards.items():
        cl = program.clauses[ci]
        g = Literal(guard(ci, bound))
        clauses.append(AnnotatedClause(cl.clause_id, cl.heads, (g,) + cl.body, cl.is_query))
        origins.append((ci, 1))
        for lit, adornment, before in steps:
            if _key(lit.atom) in rules:
                clauses.append(rule(_demand_atom(lit.atom, adornment), (g,) + before))
                origins.append(None)
    return clauses, origins


def _cone(instances, demand):
    """The instances the demanded atoms depend on, and the atoms they derive,
    in the order ground(program) gives them.  instances holds each clause's
    instances as (heads, body), in any order and possibly repeated (two
    guarded copies of a clause can find the same instance), and must include
    every instance of the possible-atom program whose head the demanded atoms
    depend on."""
    flat = [(ci, heads, body) for ci, insts in enumerate(instances)
            for heads, body in insts]
    deriving = {}  # atom -> numbers of the instances with it as a head
    for k, (_, heads, _) in enumerate(flat):
        for a, _ in heads:
            deriving.setdefault(a, []).append(k)
    reached = set(demand)
    stack = list(reached)
    cone = set()
    while stack:
        for k in deriving.get(stack.pop(), ()):
            if k not in cone:
                cone.add(k)
                for lit in flat[k][2]:
                    if lit.atom not in reached:
                        reached.add(lit.atom)
                        stack.append(lit.atom)

    # Replay ground()'s semi-naive rounds over the cone: an instance fires
    # the round after its last positive body atom is derived, and within a
    # round instances go by clause, then by the numbers of their positive
    # body atoms.  Every instance deriving a cone atom is in the cone, so
    # cone atoms get the rounds, and the relative numbers, they have in the
    # whole program.  The positive body atoms fix an instance, so a repeat
    # sorts right after its first copy and is dropped.
    pending = {}  # instance -> positive body atoms not derived yet
    waiting = {}  # atom -> instances it is pending in
    ready = []
    for k in cone:
        positives = {lit.atom for lit in flat[k][2] if not lit.negated}
        if positives:
            pending[k] = len(positives)
            for a in positives:
                waiting.setdefault(a, []).append(k)
        else:
            ready.append(k)
    number = {}
    atoms = []
    ordered = [[] for _ in instances]
    while ready:
        keys = {k: (flat[k][0], [number[lit.atom] for lit in flat[k][2] if not lit.negated])
                for k in ready}
        ready.sort(key=keys.__getitem__)
        start = len(atoms)
        last = None
        for k in ready:
            if keys[k] == last:
                continue
            last = keys[k]
            ci, heads, body = flat[k]
            ordered[ci].append((heads, body))
            for a, _ in heads:
                if a not in number:
                    number[a] = len(atoms)
                    atoms.append(a)
        ready = []
        for a in atoms[start:]:
            for k in waiting.get(a, ()):
                pending[k] -= 1
                if not pending[k]:
                    ready.append(k)
    return ordered, atoms


def _ground_program(program, instances, atoms, demand=None, choices=True):
    ground_clauses = []
    choice_vars = []
    for cl, insts in zip(program.clauses, instances):
        if not insts:
            continue
        null_prob = cl.null_prob
        deterministic = cl.is_deterministic
        for gid, (heads, body) in enumerate(insts):
            cv_index = None
            if not deterministic:
                ground_heads = tuple(a for a, _ in heads)
                probs = tuple(p for _, p in heads)
                if null_prob > 0.0:
                    ground_heads = (NULL,) + ground_heads
                    probs = (null_prob,) + probs
                cv_index = len(choice_vars)
                choice_vars.append(
                    ChoiceVariable(
                        index=cv_index,
                        clause_id=cl.clause_id,
                        grounding_id=gid,
                        probs=probs,
                        ground_heads=ground_heads,
                        ground_body=body,
                        is_query=cl.is_query,
                    )
                )
            ground_clauses.append(
                GroundClause(
                    clause_id=cl.clause_id,
                    grounding_id=gid,
                    heads=heads,
                    body=body,
                    null_prob=null_prob,
                    cv_index=cv_index,
                )
            )
    return GroundProgram(program, ground_clauses, choice_vars, atoms, demand, choices)


def _ground_all(program):
    """The whole ground program.  GroundProgram.strata grounds through this,
    not ground(), so every call of ground() is one a caller made and uses
    (tools that wrap ground() see only those)."""
    atoms, instances = _fixpoint(program.clauses)
    return _ground_program(program, instances, atoms)


def ground(program, demand=None, choices=False):
    """The possible-atom ground program, or with demand (ground atoms) the
    part of it those atoms depend on; with choices as well, the part that
    they and every probabilistic clause's instances depend on.  Deterministic
    for a fixed input (see the module docstring for the order)."""
    non_ground = [cl for cl in program.clauses if cl.variables()]
    if non_ground and not program.constants():
        raise GroundingError(
            "clause %d has variables but the program has no constants"
            % non_ground[0].clause_id
        )
    if demand is None:
        return _ground_all(program)
    demand = tuple(demand)
    probabilistic = [choices and not cl.is_deterministic for cl in program.clauses]
    patterns = tuple(a for cl, p in zip(program.clauses, probabilistic) if p
                     for a, _ in cl.heads)
    rewrite = _demand_program(program, demand + patterns)
    if rewrite is None:
        instances = _fixpoint(program.clauses)[1]
    else:
        clauses, origins = rewrite
        instances = [[] for _ in program.clauses]
        for origin, insts in zip(origins, _fixpoint(clauses)[1]):
            if origin is not None:
                ci, drop = origin
                instances[ci].extend((heads, body[drop:]) for heads, body in insts)
    seeds = demand + tuple(a for p, insts in zip(probabilistic, instances) if p
                           for heads, _ in insts for a, _ in heads)
    instances, atoms = _cone(instances, seeds)
    return _ground_program(program, instances, atoms, demand, choices)


def _components(nodes, succ):
    """Strongly connected components of a directed graph, each listed after
    every component it has an edge into: Tarjan (1972) with an explicit
    stack, so long dependency chains do not hit the recursion limit."""
    low = {}  # DFS number, lowered to the least one reachable; inf once done
    stack = []
    comps = []
    for root in nodes:
        if root in low:
            continue
        low[root] = len(low)
        stack.append(root)
        work = [(root, low[root], iter(succ.get(root, ())))]
        while work:
            v, num, edges = work[-1]
            for w in edges:
                if w not in low:
                    low[w] = len(low)
                    stack.append(w)
                    work.append((w, low[w], iter(succ.get(w, ()))))
                    break
                low[v] = min(low[v], low[w])
            else:
                work.pop()
                if work:
                    u = work[-1][0]
                    low[u] = min(low[u], low[v])
                if low[v] == num:
                    comp = []
                    while not comp or comp[-1] != v:
                        comp.append(stack.pop())
                        low[comp[-1]] = math.inf
                    comps.append(tuple(comp))
    return comps


def stratify(gp):
    """Condense the atom dependency graph into its strongly connected
    components, dependencies first; a negative edge inside a component makes
    the program non-stratified."""
    succ = {}  # head -> {body atom: None}, an ordered set
    negative = []  # (body atom, head) of every negative literal
    for gc in gp.ground_clauses:
        for head, _ in gc.heads:
            deps = succ.setdefault(head, {})
            for lit in gc.body:
                deps[lit.atom] = None
                if lit.negated:
                    negative.append((lit.atom, head))
    evidence = [lit.atom for lit in gp.program.evidence]
    levels = _components([*gp.atoms, *evidence, *gp.program.queries], succ)
    index = {a: i for i, comp in enumerate(levels) for a in comp}
    for u, v in negative:
        if index[u] == index[v]:
            raise StratificationError(
                "non-stratified program: negative cycle through %s and %s" % (u, v)
            )
    cyclic = tuple(len(c) > 1 or c[0] in succ.get(c[0], ()) for c in levels)
    return Strata(levels=tuple(levels), index=index, cyclic=cyclic)


def _negative_predicate_cycle(program):
    """Whether the predicate dependency graph has a cycle through a negated
    literal.  Every ground dependency maps onto a predicate dependency, so
    without one the ground graph of any part of the program is stratified."""
    succ = {}
    negative = []
    for cl in program.clauses:
        for head, _ in cl.heads:
            deps = succ.setdefault(_key(head), {})
            for lit in cl.body:
                deps[_key(lit.atom)] = None
                if lit.negated:
                    negative.append((_key(lit.atom), _key(head)))
    index = {p: i for i, comp in enumerate(_components(list(succ), succ)) for p in comp}
    return any(index[u] == index[v] for u, v in negative)


def format_ground(gp):
    """Textual dump of the ground program with choice-variable annotations."""
    lines = []
    for gc in gp.ground_clauses:
        heads = "; ".join("%s:%r" % (a, p) for a, p in gc.heads)
        if len(gc.heads) == 1 and gc.heads[0][1] == 1.0 and not gc.has_null:
            heads = str(gc.heads[0][0])
        body = ", ".join(str(lit) for lit in gc.body)
        text = "%s :- %s." % (heads, body) if body else "%s." % heads
        if gc.cv_index is not None:
            text += "  %% cv(%d,%d)" % (gc.clause_id, gc.grounding_id)
        lines.append(text)
    return "\n".join(lines) + ("\n" if lines else "")
