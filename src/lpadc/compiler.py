"""Compilation of ground programs to BDDs.

Every choice variable, for every task, becomes a chain of Boolean variables
under the order encoding: n values map to n-1 Booleans; the value at chain
position k is the path "bits 0..k-1 false, bit k true" and the last value is
all-false.  Explicit heads come first in the chain and the null head, if
any, last.  Weights are conditional: pi_k = P_k / prod_{j<k}(1 - pi_j) on
the 1-branch and 1 - pi_k on the 0-branch, so each variable's two weights
sum to 1 and weighted counting sums each value exactly once.

MPE and MAP use the same encoding.  The only difference is the variable
order: the query choice variables' chains are created first, so they sit on
the top levels of the diagram, which is the layout the max-product pass in
BddManager.map_best needs.

Atom formulas are built bottom-up per stratum by a least-fixpoint iteration
starting from FALSE, restricted to atoms the query actually depends on.
Every formula depends on a chain only through the value it selects.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bdd import BddManager

TASK_MODES = ("prob", "mpe", "map")


class CompileError(Exception):
    pass


class Encoding:
    """Boolean variable chains for every choice variable of a ground program.

    The query choice variables' chains are created first, in the relative
    order of creation_order (default: index order), then the rest.
    """

    def __init__(self, manager, gp, query_cvs, creation_order=None):
        self.manager = manager
        self.gp = gp
        self.query_cvs = frozenset(query_cvs)
        self.var_ids = [None] * len(gp.choice_vars)
        self._value_cache = {}
        order = range(len(gp.choice_vars)) if creation_order is None else creation_order
        order = [ci for ci in order if ci in self.query_cvs] + [
            ci for ci in order if ci not in self.query_cvs
        ]
        for ci in order:
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
        pos = self._chain_position(ci, k)
        out = m.true
        for i in range(min(pos, len(ids))):
            out = out & m.nvar(ids[i])
        if pos < len(ids):
            out = out & m.var(ids[pos])
        self._value_cache[key] = out
        return out


@dataclass
class CompileStats:
    fixpoint_iterations: int = 0
    strata_processed: int = 0


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


def compile_program(
    gp,
    task="prob",
    query_cvs=None,
    kernel=None,
    node_cap=None,
    manager=None,
    creation_order=None,
):
    """Set up the Boolean encoding for a ground program.

    query_cvs (choice-variable indices) defaults to the map_query-flagged
    variables for task "map" and to all variables for "mpe"; their chains
    are created first, so they sit on the top levels.
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
        manager = BddManager(kernel=kernel, **kwargs)
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
    """Compute formulas for the given atoms (and their dependencies),
    stratum by stratum, least fixpoint within each stratum."""
    needed = _needed_atoms(cp, atoms)
    if not needed:
        return
    gp = cp.gp
    m = cp.manager
    strata = gp.strata()
    discovery = {a: i for i, a in enumerate(gp.atoms)}
    by_level = {}
    for a in needed:
        by_level.setdefault(strata.index.get(a, 0), []).append(a)

    for level in sorted(by_level):
        group = sorted(
            by_level[level], key=lambda a: discovery.get(a, len(discovery))
        )
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
                    if gc.cv_index is not None:
                        term = cp.encoding.value_bdd(gc.cv_index, gc.value_index(pos))
                    else:
                        term = m.true
                    for lit in gc.body:
                        sub = formula_of(lit.atom)
                        term = term & (~sub if lit.negated else sub)
                        if term.is_false:
                            break
                    f = f | term
                if f.ref != cur[a].ref:
                    cur[a] = f
                    changed = True
            if not changed:
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
