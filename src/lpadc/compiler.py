"""Compilation of ground programs to BDDs.

Every choice variable, for every task, becomes a chain of Boolean variables
under the order encoding: n values map to n-1 Booleans; the value at chain
position k is the path "bits 0..k-1 false, bit k true" and the last value is
all-false.  Explicit heads come first in the chain and the null head, if
any, last.  Weights are conditional: pi_k = P_k / prod_{j<k}(1 - pi_j) on
the 1-branch and 1 - pi_k on the 0-branch, so each variable's two weights
sum to 1 and weighted counting sums each value exactly once.

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
lpadc.infer passes the evidence's cone_order as the creation order, so only
the variables the evidence depends on get chains, and settles a tie on the
same diagram, so the reported maximiser does not depend on the order.

Atom formulas are built bottom-up per strongly connected component of the
atom dependency graph, in the grounder's condensation order, restricted to
atoms the query actually depends on: an atom outside every cycle is built
once from its finished dependencies, and only the atoms of a cyclic
component run a least-fixpoint iteration starting from FALSE.
Every formula depends on a chain only through the value it selects.
"""

from __future__ import annotations

from .bdd import BddManager

TASK_MODES = ("prob", "mpe", "map")


class CompileError(Exception):
    pass


class Encoding:
    """Boolean variable chains for the choice variables of a ground program.

    Chains are created for the variables creation_order lists, the query
    choice variables' first and then the rest, each part in the relative
    order of creation_order; compile_program passes the post-order of its
    root atoms.
    """

    def __init__(self, manager, gp, query_cvs, creation_order):
        self.manager = manager
        self.gp = gp
        self.query_cvs = frozenset(query_cvs)
        self.var_ids = [None] * len(gp.choice_vars)
        self._value_cache = {}
        # a stable sort puts the query chains first
        for ci in sorted(creation_order, key=lambda ci: ci not in self.query_cvs):
            self.var_ids[ci] = self._create_chain(ci)

    def _create_chain(self, ci):
        cv = self.gp.choice_vars[ci]
        is_query = ci in self.query_cvs
        ids = []
        denom = 1.0
        for i in range(cv.n_values - 1):
            w = cv.probs[self.value_at(ci, i)] / denom
            ids.append(
                self.manager.new_var(group=ci, index=i, weight=w, is_query=is_query)
            )
            denom *= 1.0 - w
        return tuple(ids)

    def group_vars(self, ci):
        return self.var_ids[ci]

    def _chain_position(self, ci, k):
        cv = self.gp.choice_vars[ci]
        if cv.has_null:
            return len(cv.probs) - 1 if k == 0 else k - 1
        return k

    def value_at(self, ci, pos):
        """Selection index of the value at chain position pos."""
        cv = self.gp.choice_vars[ci]
        if cv.has_null:
            return 0 if pos == len(cv.probs) - 1 else pos + 1
        return pos

    def value_bdd(self, ci, k):
        """BDD for "choice variable ci selects value k"."""
        key = (ci, k)
        hit = self._value_cache.get(key)
        if hit is not None:
            return hit
        m = self.manager
        ids = self.var_ids[ci]
        if ids is None:
            raise CompileError("choice variable %d has no chain" % ci)
        pos = self._chain_position(ci, k)
        out = m.true
        for i in range(min(pos, len(ids))):
            out = out & m.nvar(ids[i])
        if pos < len(ids):
            out = out & m.var(ids[pos])
        self._value_cache[key] = out
        return out


class CompileStats:
    __slots__ = ("fixpoint_iterations", "strata_processed")

    def __init__(self, fixpoint_iterations=0, strata_processed=0):
        self.fixpoint_iterations = fixpoint_iterations  # component passes, one per acyclic one
        self.strata_processed = strata_processed  # components built


class CompiledProgram:
    """A ground program with its encoding and the growing formula table."""

    def __init__(self, gp, manager, encoding, task):
        self.gp = gp
        self.manager = manager
        self.encoding = encoding
        self.task = task
        self.formulas = {}
        self.stats = CompileStats()

    @property
    def query_cvs(self):
        return self.encoding.query_cvs


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


def post_order(gp, atoms):
    """cone_order(gp, atoms), then the variables it does not reach in index
    order."""
    order = cone_order(gp, atoms)
    reached = set(order)
    return order + [ci for ci in range(len(gp.choice_vars)) if ci not in reached]


def compile_program(
    gp,
    task="prob",
    query_cvs=None,
    node_cap=None,
    manager=None,
    creation_order=None,
    roots=(),
):
    """Set up the Boolean encoding for a ground program.

    query_cvs (choice-variable indices) defaults to the map_query-flagged
    variables for task "map" and to all variables for "mpe"; their chains
    are created first, so they sit on the top levels.  Without a
    creation_order both parts follow post_order(gp, roots); roots are the
    atoms the caller will compile.
    """
    if task not in TASK_MODES:
        raise CompileError("unknown task %r" % task)
    n = len(gp.choice_vars)
    if task == "mpe":
        query = set(range(n))
    elif task == "map":
        if query_cvs is None:
            query = {cv.index for cv in gp.choice_vars if cv.is_query}
        else:
            query = set(query_cvs)
        if not query:
            raise CompileError("map needs at least one query choice variable")
    else:
        query = set()
    bad = [ci for ci in query if not (0 <= ci < n)]
    if bad:
        raise CompileError("query choice variables out of range: %r" % bad)
    if manager is None:
        kwargs = {}
        if node_cap is not None:
            kwargs["node_cap"] = node_cap
        manager = BddManager(**kwargs)
    if creation_order is None:
        creation_order = post_order(gp, roots)
    encoding = Encoding(manager, gp, query, creation_order)
    return CompiledProgram(gp, manager, encoding, task)


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
        cp.stats.strata_processed += 1

        def formula_of(atom):
            if atom in cur:
                return cur[atom]
            return cp.formulas.get(atom, m.false)

        while True:
            cp.stats.fixpoint_iterations += 1
            changed = False
            for a in group:
                f = m.false
                for gi, pos in gp.rules_by_head.get(a, ()):
                    gc = gp.ground_clauses[gi]
                    ops = [~formula_of(lit.atom) if lit.negated else formula_of(lit.atom)
                           for lit in gc.body]
                    if gc.cv_index is not None:
                        ops.insert(0, cp.encoding.value_bdd(gc.cv_index, gc.value_index(pos)))
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
            if not (changed and strata.cyclic[c]):
                break
        cp.formulas.update(cur)


def compile_atom(cp, atom):
    """BDD for "atom is derivable", over the program's choice variables."""
    if atom not in cp.formulas:
        _ensure_atoms(cp, [atom])
    return cp.formulas.get(atom, cp.manager.false)


def compile_literal(cp, lit):
    f = compile_atom(cp, lit.atom)
    return ~f if lit.negated else f


def compile_query(cp, literals):
    """Conjunction of the literals' formulas."""
    _ensure_atoms(cp, [lit.atom for lit in literals])
    out = cp.manager.true
    for lit in literals:
        out = out & compile_literal(cp, lit)
    return out
