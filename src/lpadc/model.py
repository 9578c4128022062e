"""Core data model for logic programs with annotated disjunctions.

A program is a set of clauses ``h1:p1; ...; hn:pn :- body`` where the head
probabilities sum to at most 1; the missing mass goes to an implicit "null"
head meaning "no head is selected".  Ground instances of probabilistic
clauses become choice variables, and a world is one head selection per
choice variable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

HEAD_SUM_TOL = 1e-9

NULL_NAME = "null"


@dataclass(frozen=True)
class Var:
    """A logical variable (uppercase or underscore initial)."""

    name: str

    def __str__(self):
        return self.name


# Terms are either Var instances or constants (str for lowercase
# identifiers, int for integer constants).


def term_str(t):
    return str(t)


@dataclass(frozen=True)
class Atom:
    pred: str
    args: tuple = ()

    def is_ground(self):
        return not any(isinstance(a, Var) for a in self.args)

    def variables(self):
        return [a for a in self.args if isinstance(a, Var)]

    @property
    def is_null(self):
        return self.pred == NULL_NAME and not self.args

    def __str__(self):
        if not self.args:
            return self.pred
        return "%s(%s)" % (self.pred, ",".join(term_str(a) for a in self.args))


NULL = Atom(NULL_NAME)


@dataclass(frozen=True)
class Literal:
    atom: Atom
    negated: bool = False

    def __str__(self):
        return ("\\+ " if self.negated else "") + str(self.atom)

    def negate(self):
        return Literal(self.atom, not self.negated)


@dataclass(frozen=True)
class AnnotatedClause:
    """One source clause: explicit heads with probabilities plus a body.

    ``heads`` keeps the authored order and never contains zero-probability
    entries.  When the probabilities sum to less than 1 the clause has an
    implicit null head whose selection index is 0 (explicit heads are then
    indexed 1..n); without a null head the explicit heads are indexed 0..n-1
    value-wise via :meth:`values`.
    """

    clause_id: int
    heads: tuple  # ((Atom, float), ...)
    body: tuple = ()  # (Literal, ...)
    is_query: bool = False

    @property
    def head_sum(self):
        return sum(p for _, p in self.heads)

    @property
    def null_prob(self):
        s = self.head_sum
        return 1.0 - s if s < 1.0 - HEAD_SUM_TOL else 0.0

    @property
    def has_null(self):
        return self.null_prob > 0.0

    def values(self):
        """Selection values in index order: null (if any) first."""
        if self.has_null:
            return ((NULL, self.null_prob),) + tuple(self.heads)
        return tuple(self.heads)

    @property
    def n_values(self):
        return len(self.heads) + (1 if self.has_null else 0)

    @property
    def is_deterministic(self):
        return self.n_values == 1

    def variables(self):
        out = []
        for a, _ in self.heads:
            out.extend(a.variables())
        for lit in self.body:
            out.extend(lit.atom.variables())
        return out


def implicit_null(heads):
    """Prepend the implicit null head when the explicit mass is short of 1.

    Returns the value list as used for selection indices.  Raises ValueError
    when the probabilities exceed 1 beyond tolerance.
    """
    s = sum(p for _, p in heads)
    if s > 1.0 + HEAD_SUM_TOL:
        raise ValueError("head probabilities sum to %r > 1" % s)
    if s < 1.0 - HEAD_SUM_TOL:
        return ((NULL, 1.0 - s),) + tuple(heads)
    return tuple(heads)


@dataclass(frozen=True)
class Program:
    clauses: tuple = ()
    evidence: tuple = ()  # (Literal, ...), conjunction
    queries: tuple = ()  # (Atom, ...)
    warnings: tuple = field(default=(), compare=False)

    def constants(self):
        out = []
        seen = set()

        def add(t):
            if not isinstance(t, Var) and t not in seen:
                seen.add(t)
                out.append(t)

        for cl in self.clauses:
            for a, _ in cl.heads:
                for t in a.args:
                    add(t)
            for lit in cl.body:
                for t in lit.atom.args:
                    add(t)
        for lit in self.evidence:
            for t in lit.atom.args:
                add(t)
        for a in self.queries:
            for t in a.args:
                add(t)
        return out


@dataclass(frozen=True)
class ChoiceVariable:
    """One ground instance of a probabilistic clause.

    ``probs``/``ground_heads`` are aligned by selection index: entry 0 is the
    null head when the clause has one.
    """

    index: int  # position in GroundProgram.choice_vars
    clause_id: int
    grounding_id: int
    probs: tuple  # (float, ...)
    ground_heads: tuple  # (Atom, ...), NULL sentinel included
    ground_body: tuple  # (Literal, ...)
    is_query: bool = False

    @property
    def n_values(self):
        return len(self.probs)

    @property
    def has_null(self):
        return self.ground_heads[0].is_null

    def explicit_heads(self):
        """(Atom, prob) pairs in authored order, null excluded."""
        if self.has_null:
            return tuple(zip(self.ground_heads[1:], self.probs[1:]))
        return tuple(zip(self.ground_heads, self.probs))

    def max_prob_value(self):
        """Selection index of the most probable head, of equal ones the first
        in chain order: the explicit heads as written, the null head last."""
        n = len(self.probs)
        chain = range(1, n + 1) if self.has_null else range(n)
        return max((k % n for k in chain), key=self.probs.__getitem__)


@dataclass(frozen=True)
class Assignment:
    """A head selection per choice variable, as returned by MPE/MAP."""

    entries: tuple  # ((ChoiceVariable, int selection), ...)

    def as_dict(self):
        return {cv.index: k for cv, k in self.entries}

    def to_rule_dicts(self):
        """Serialize as rule/4 records: clause id, selected head, head list,
        instantiated body.  The null head renders as '' and is listed last
        regardless of its selection index."""
        out = []
        for cv, k in self.entries:
            heads = [
                {"atom": str(a), "prob": p} for a, p in cv.explicit_heads()
            ]
            if cv.has_null:
                heads.append({"atom": "", "prob": cv.probs[0]})
            sel = cv.ground_heads[k]
            out.append(
                {
                    "clause": cv.clause_id,
                    "head": "" if sel.is_null else str(sel),
                    "heads": heads,
                    "body": body_str(cv.ground_body),
                }
            )
        return out

    def to_rule_lines(self):
        lines = []
        for d in self.to_rule_dicts():
            heads = ", ".join(
                "%s:%r" % ("''" if h["atom"] == "" else h["atom"], h["prob"])
                for h in d["heads"]
            )
            head = "''" if d["head"] == "" else d["head"]
            lines.append(
                "rule(%d, %s, [%s], %s)" % (d["clause"], head, heads, d["body"])
            )
        return lines


def body_str(body):
    if not body:
        return "true"
    parts = [str(lit).replace("\\+ ", "\\+") for lit in body]
    if len(parts) == 1:
        return parts[0]
    return "(%s)" % ",".join(parts)


@dataclass(frozen=True)
class Diagnostic:
    clause_id: object  # int or None for program-level issues
    message: str

    def __str__(self):
        where = "program" if self.clause_id is None else "clause %d" % self.clause_id
        return "%s: %s" % (where, self.message)


def validate(program):
    """Structural checks; returns a list of Diagnostics (empty when clean)."""
    diags = []
    for cl in program.clauses:
        for a, p in cl.heads:
            if not (0.0 <= p <= 1.0):
                diags.append(
                    Diagnostic(cl.clause_id, "head probability %r outside [0,1]" % p)
                )
        if cl.head_sum > 1.0 + HEAD_SUM_TOL:
            diags.append(
                Diagnostic(
                    cl.clause_id,
                    "head probabilities sum to %r > 1" % cl.head_sum,
                )
            )
        pos_vars = set()
        for lit in cl.body:
            if not lit.negated:
                pos_vars.update(v.name for v in lit.atom.variables())
        unsafe = set()
        for a, _ in cl.heads:
            unsafe.update(v.name for v in a.variables())
        for lit in cl.body:
            if lit.negated:
                unsafe.update(v.name for v in lit.atom.variables())
        unsafe -= pos_vars
        if unsafe:
            diags.append(
                Diagnostic(
                    cl.clause_id,
                    "unsafe variables %s: not bound by a positive body literal"
                    % ",".join(sorted(unsafe)),
                )
            )
        for lit in cl.body:
            if lit.atom.is_null:
                diags.append(
                    Diagnostic(cl.clause_id, "the null atom may not appear in a body")
                )
    for lit in program.evidence:
        if not lit.atom.is_ground():
            diags.append(Diagnostic(None, "evidence literal %s is not ground" % lit))
    for a in program.queries:
        if not a.is_ground():
            diags.append(Diagnostic(None, "query atom %s is not ground" % a))
    return diags
