"""Grounding and stratification.

Grounding is relevance-restricted: a clause instance is kept only when every
positive body atom is a possible head (derivable under some selection).
Negative literals are ignored while matching, which over-approximates but
never loses a relevant instance.  The strata of the ground program are its
strongly connected components over ground atoms, in condensation order
(dependencies first), found by one iterative Tarjan pass; a negative edge
inside a component is an error.  The compiler evaluates the program in the
same component order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import NULL, Atom, ChoiceVariable, Literal, Var


class GroundingError(Exception):
    pass


class StratificationError(Exception):
    pass


@dataclass(frozen=True)
class GroundClause:
    """One ground instance of a source clause."""

    clause_id: int
    grounding_id: int
    heads: tuple  # ((Atom, float), ...) explicit heads, instantiated
    body: tuple  # (Literal, ...)
    null_prob: float
    cv_index: object  # int, or None for deterministic instances

    @property
    def has_null(self):
        return self.null_prob > 0.0

    def value_index(self, head_pos):
        """Selection index of explicit head number head_pos (authored order)."""
        return head_pos + 1 if self.has_null else head_pos


@dataclass(frozen=True)
class Strata:
    """The strongly connected components of the atom dependency graph, each
    after the components it depends on: a stratification, and the order in
    which the compiler evaluates."""

    levels: tuple  # (tuple[Atom, ...], ...) one per component, dependencies first
    index: dict  # Atom -> component number
    cyclic: tuple  # per component: more than one atom, or an atom depending on itself

    def level_of(self, atom):
        return self.index.get(atom, 0)


class GroundProgram:
    def __init__(self, program, ground_clauses, choice_vars, atoms):
        self.program = program
        self.ground_clauses = tuple(ground_clauses)
        self.choice_vars = tuple(choice_vars)
        self.atoms = tuple(atoms)  # possible atoms in discovery order
        self.rules_by_head = {}
        for gi, gc in enumerate(self.ground_clauses):
            for pos, (a, _) in enumerate(gc.heads):
                self.rules_by_head.setdefault(a, []).append((gi, pos))
        self._strata = None

    def strata(self):
        if self._strata is None:
            self._strata = stratify(self)
        return self._strata


def _subst_term(t, binding):
    if isinstance(t, Var):
        return binding[t]
    return t


def _subst_atom(atom, binding):
    if not atom.args:
        return atom
    return Atom(atom.pred, tuple(_subst_term(t, binding) for t in atom.args))


def _match(pattern, ground, binding):
    """Extend binding so pattern matches the ground atom, or return None."""
    if pattern.pred != ground.pred or len(pattern.args) != len(ground.args):
        return None
    new = None
    for pt, gt in zip(pattern.args, ground.args):
        if isinstance(pt, Var):
            cur = binding.get(pt) if new is None else new.get(pt)
            if cur is None:
                if new is None:
                    new = dict(binding)
                new[pt] = gt
            elif cur != gt:
                return None
        elif pt != gt:
            return None
    return binding if new is None else new


def _substitutions(clause, atoms_by_pred):
    """Yield bindings grounding the clause, joining positive body literals
    against the possible-atom index in literal order."""
    positives = [lit.atom for lit in clause.body if not lit.negated]

    def rec(i, binding):
        if i == len(positives):
            yield binding
            return
        pat = positives[i]
        for ground in atoms_by_pred.get((pat.pred, len(pat.args)), ()):
            nb = _match(pat, ground, binding)
            if nb is not None:
                yield from rec(i + 1, nb)

    yield from rec(0, {})


def ground(program):
    """Compute the relevant ground program; deterministic for a fixed input."""
    non_ground = [cl for cl in program.clauses if cl.variables()]
    if non_ground and not program.constants():
        raise GroundingError(
            "clause %d has variables but the program has no constants"
            % non_ground[0].clause_id
        )

    atoms = {}  # ground Atom -> None, insertion ordered
    atoms_by_pred = {}
    instances = {cl.clause_id: {} for cl in program.clauses}  # key -> (heads, body)

    def add_atom(a):
        if a not in atoms:
            atoms[a] = None
            atoms_by_pred.setdefault((a.pred, len(a.args)), []).append(a)
            return True
        return False

    changed = True
    while changed:
        changed = False
        for cl in program.clauses:
            for binding in _substitutions(cl, atoms_by_pred):
                try:
                    heads = tuple((_subst_atom(a, binding), p) for a, p in cl.heads)
                    body = tuple(
                        Literal(_subst_atom(l.atom, binding), l.negated)
                        for l in cl.body
                    )
                except KeyError as exc:
                    raise GroundingError(
                        "clause %d: unbound variable %s" % (cl.clause_id, exc)
                    ) from exc
                key = (heads, body)
                if key not in instances[cl.clause_id]:
                    instances[cl.clause_id][key] = (heads, body)
                    changed = True
                for a, _ in heads:
                    if add_atom(a):
                        changed = True

    ground_clauses = []
    choice_vars = []
    for cl in program.clauses:
        for gid, (heads, body) in enumerate(instances[cl.clause_id].values()):
            cv_index = None
            if not cl.is_deterministic:
                ground_heads = tuple(a for a, _ in heads)
                probs = tuple(p for _, p in heads)
                if cl.has_null:
                    ground_heads = (NULL,) + ground_heads
                    probs = (cl.null_prob,) + probs
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
                    null_prob=cl.null_prob,
                    cv_index=cv_index,
                )
            )
    return GroundProgram(program, ground_clauses, choice_vars, atoms.keys())


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
