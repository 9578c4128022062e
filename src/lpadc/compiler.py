"""Compilation of ground programs to BDDs.

Every choice variable, for every task, becomes a chain of Boolean variables
under the order encoding: n values map to n-1 Booleans; value k sits at
chain position k, the path "bits 0..k-1 false, bit k true", and the last
value is all-false.  Values are numbered as GroundClause.values() lists
them: the explicit heads as written, then the null head, if any.  Weights
come from suffix sums: with r_k = P_k + ... + P_{n-1}, bit k weighs
P_k / r_k on the 1-branch and r_{k+1} / r_k on the 0-branch.  A bit's two
weights sum to 1 up to rounding, every weight is positive, and the path to
value k weighs P_k / r_0, where r_0 = 1, so weighted counting sums each
value once.

Chains are created in the variable order of the diagram.  By default they
follow post_order from the atoms the caller is about to compile: a
depth-first walk that creates a clause's choice variable after the variables
of every clause deriving its body atoms, so inputs come before the gates
that use them (Fujita, Fujisawa and Kawato, ICCAD 1988).  On gh 10 that
keeps the marginal's diagram at 55 nodes, where index order builds 5,120,
and gh 13 MPE at 91 nodes, where index order builds 53,248.  A reduced BDD
is canonical for a fixed order, so the order changes sizes and times, never
values.

MPE and MAP use the same encoding.  Their query choice variables' chains are
created first, in the relative order of the same post-order (or of the
caller's creation_order), so they sit on the top levels of the diagram,
which is the layout the max-product pass in BddManager.map_best needs.
Every choice variable gets a chain, for every task: a creation_order is
completed as post_order completes the cone, with the variables it does not
list in index order.  The pass settles ties by index order, not level
order, so the reported maximiser does not depend on the order.

Atom formulas are built bottom-up per strongly connected component of the
atom dependency graph, in the grounder's condensation order, restricted to
atoms the query actually depends on: an atom outside every cycle is built
once from its finished dependencies, and only the atoms of a cyclic
component run a least-fixpoint iteration starting from FALSE.
Every formula depends on a chain only through the value it selects.

CompiledProgram is the one record of a compile: the manager, the chains,
the query choice variables (query_cvs_of, the one rule from task to query
chains), the formula table and the count of passes over cyclic components.
Formulas are read only through compile_query.
"""

from __future__ import annotations

from .bdd import BddManager

TASK_MODES = ("prob", "mpe", "map")


class CompileError(Exception):
    pass


class CompiledProgram:
    """One compile of a ground program: the chains of its choice variables in
    a BddManager, and the formula table that compile_query grows.

    Chains are created in creation_order, the query choice variables' first
    and then the rest, each part in the relative order of creation_order;
    compile_program passes a complete order.  var_ids[ci] lists the chain
    of choice variable ci, and value k is position k of it.
    fixpoint_iterations counts the passes over cyclic components.
    """

    def __init__(self, gp, manager, query_cvs, creation_order):
        self.gp = gp
        self.manager = manager
        self.query_cvs = frozenset(query_cvs)
        self.var_ids = [None] * len(gp.choice_vars)
        self.formulas = {}
        self.fixpoint_iterations = 0
        self._value_cache = {}
        # a stable sort puts the query chains first
        for ci in sorted(creation_order, key=lambda ci: ci not in self.query_cvs):
            self.var_ids[ci] = self._create_chain(ci)

    def _create_chain(self, ci):
        probs = self.gp.choice_vars[ci].probs
        # rest[i] = probs[i] + ... + probs[-1]; the weights stay positive
        # also where the heads before a tiny one already sum to 1 in floats
        rest = [0.0] * (len(probs) + 1)
        for i in reversed(range(len(probs))):
            rest[i] = probs[i] + rest[i + 1]
        is_query = ci in self.query_cvs
        return tuple(
            self.manager.new_var(group=ci, index=i, weight=probs[i] / rest[i],
                                 zero_weight=rest[i + 1] / rest[i], is_query=is_query)
            for i in range(len(probs) - 1)
        )

    def value_bdd(self, ci, k):
        """BDD for "choice variable ci selects value k"."""
        key = (ci, k)
        hit = self._value_cache.get(key)
        if hit is not None:
            return hit
        ids = self.var_ids[ci]
        literals = [(v, False) for v in ids[:k]]
        if k < len(ids):  # the last value is all bits clear
            literals.append((ids[k], True))
        out = self.manager.cube(literals)
        self._value_cache[key] = out
        return out


def cone_order(gp, atoms):
    """The choice variables the given atoms depend on, in depth-first
    post-order: the walk follows every ground clause that derives an atom,
    visits the clause's body atoms, and only then emits its choice variable.
    A formula compiled for the atoms tests no other variable.  An explicit
    stack keeps long derivation chains clear of the recursion limit."""
    order = []
    seen_atoms = set()
    seen_clauses = set()
    # a frame is (clause, items, items are atoms): a clause (None for the
    # roots) with its body atoms, or an atom's (clause, head position) pairs
    work = [(None, iter(atoms), True)]
    while work:
        gi, items, of_atoms = work[-1]
        item = next(items, None)
        if item is None:
            work.pop()
            if gi is not None and gp.ground_clauses[gi].cv_index is not None:
                order.append(gp.ground_clauses[gi].cv_index)
        elif of_atoms:
            if item not in seen_atoms:
                seen_atoms.add(item)
                work.append((None, iter(gp.rules_by_head.get(item, ())), False))
        elif item[0] not in seen_clauses:
            seen_clauses.add(item[0])
            body = (lit.atom for lit in gp.ground_clauses[item[0]].body)
            work.append((item[0], body, True))
    return order


def _complete(order, n):
    """order, then the choice variables 0..n-1 it does not list in index
    order."""
    order = list(order)
    listed = set(order)
    if len(listed) != len(order) or not listed <= set(range(n)):
        raise CompileError("creation_order must list distinct choice variables")
    return order + [ci for ci in range(n) if ci not in listed]


def post_order(gp, atoms):
    """cone_order(gp, atoms), then the variables it does not reach in index
    order."""
    return _complete(cone_order(gp, atoms), len(gp.choice_vars))


def query_cvs_of(gp, task, query_cvs=None):
    """The query choice variables of a task: none for "prob", every one for
    "mpe", and for "map" query_cvs, by default the variables of the
    map_query clauses."""
    if task not in TASK_MODES:
        raise CompileError("unknown task %r" % task)
    n = len(gp.choice_vars)
    if task == "prob":
        return frozenset()
    if task == "mpe":
        return frozenset(range(n))
    if query_cvs is None:
        query_cvs = [cv.cv_index for cv in gp.choice_vars if cv.is_query]
    query = frozenset(query_cvs)
    if not query:
        raise CompileError("map needs at least one query choice variable "
                           "(a map_query clause)")
    bad = sorted(ci for ci in query if not (0 <= ci < n))
    if bad:
        raise CompileError("query choice variables out of range: %r" % bad)
    return query


def compile_program(
    gp,
    task="prob",
    query_cvs=None,
    node_cap=None,
    creation_order=None,
    roots=(),
):
    """Set up the Boolean encoding for a ground program.

    The query choice variables are query_cvs_of(gp, task, query_cvs); their
    chains are created first, so they sit on the top levels.  Every choice
    variable gets a chain: both parts follow creation_order, completed with
    the unlisted variables in index order, or else post_order(gp, roots);
    roots are the atoms the caller will compile.
    """
    query = query_cvs_of(gp, task, query_cvs)
    manager = BddManager() if node_cap is None else BddManager(node_cap)
    if creation_order is None:
        creation_order = cone_order(gp, roots)
    return CompiledProgram(gp, manager, query, _complete(creation_order, len(gp.choice_vars)))


def _needed_atoms(cp, atoms):
    gp = cp.gp
    needed = set()
    stack = [a for a in atoms if a not in cp.formulas]
    while stack:
        a = stack.pop()
        if a in needed or a in cp.formulas:
            continue
        needed.add(a)
        for gi, _ in gp.rules_by_head.get(a, ()):
            for lit in gp.ground_clauses[gi].body:
                stack.append(lit.atom)
    return needed


def _ensure_atoms(cp, atoms):
    """Compute formulas for the given atoms and their dependencies, one
    strongly connected component at a time in dependency order.  An acyclic
    component takes a single pass; a cyclic one iterates from FALSE to its
    least fixpoint."""
    needed = _needed_atoms(cp, atoms)
    gp = cp.gp
    m = cp.manager
    strata = gp.strata()
    # a needed atom's whole component is needed, as its members depend on
    # it; atoms outside the program have no rules and stay FALSE
    for c in sorted({strata.index[a] for a in needed if a in strata.index}):
        group = strata.levels[c]
        cur = {a: m.false for a in group}

        def formula_of(atom):
            if atom in cur:
                return cur[atom]
            return cp.formulas.get(atom, m.false)

        while True:
            changed = False
            for a in group:
                f = m.false
                for gi, pos in gp.rules_by_head.get(a, ()):
                    gc = gp.ground_clauses[gi]
                    ops = [~formula_of(lit.atom) if lit.negated else formula_of(lit.atom)
                           for lit in gc.body]
                    if gc.cv_index is not None:
                        ops.insert(0, cp.value_bdd(gc.cv_index, pos))
                    # deepest first, so each conjunction adds levels above the term
                    ops.sort(key=m.top_level, reverse=True)
                    term = ops[0] if ops else m.true
                    for op in ops[1:]:
                        term = term & op
                        if term.is_false:
                            break
                    f = f | term
                if f.ref != cur[a].ref:
                    cur[a] = f
                    changed = True
            if not strata.cyclic[c]:
                break
            cp.fixpoint_iterations += 1
            if not changed:
                break
        cp.formulas.update(cur)


def compile_query(cp, literals):
    """Conjunction of the literals' formulas, TRUE for no literals; an atom
    without rules is FALSE."""
    _ensure_atoms(cp, [lit.atom for lit in literals])
    m = cp.manager
    out = m.true
    for lit in literals:
        f = cp.formulas.get(lit.atom, m.false)
        out = out & (~f if lit.negated else f)
    return out
