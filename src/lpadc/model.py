"""Core data model for logic programs with annotated disjunctions.

A program is a set of clauses ``h1:p1; ...; hn:pn :- body`` where the head
probabilities sum to at most 1; the missing mass goes to an implicit "null"
head meaning "no head is selected".  The ground instance of a probabilistic
clause (a GroundClause) is a choice variable, and a world is one head
selection per choice variable.

Records are plain classes with slots, none guarding against assignment.
Var, Atom (hashed once), Literal, AnnotatedClause, GroundClause, Assignment
and Program (not its warnings) compare by value, the first two by hand as
grounding hashes them; other records compare by identity.
"""

HEAD_SUM_TOL = 1e-9

NULL_NAME = "null"


class ValueRecord:
    """A record that compares and hashes by the fields named in _compare."""

    __slots__ = ()

    def __eq__(self, other):
        return other.__class__ is self.__class__ and all(
            getattr(self, f) == getattr(other, f) for f in self._compare)

    def __hash__(self):
        return hash(tuple(getattr(self, f) for f in self._compare))

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, ", ".join(
            "%s=%r" % (f, getattr(self, f)) for f in self._compare))


class Var:
    """A logical variable (uppercase or underscore initial)."""

    __slots__ = ("name",)

    def __init__(self, name):
        self.name = name

    def __eq__(self, other):
        return other.__class__ is Var and self.name == other.name

    def __hash__(self):
        return hash(self.name)

    def __repr__(self):
        return "Var(%r)" % (self.name,)

    def __str__(self):
        return self.name


# Terms are either Var instances or constants (str for lowercase
# identifiers, int for integer constants).


def term_str(t):
    return str(t)


class Atom:
    __slots__ = ("pred", "args", "_hash")

    def __init__(self, pred, args=()):
        self.pred = pred
        self.args = args
        self._hash = hash((pred, args))

    def __eq__(self, other):
        return other.__class__ is Atom and self.pred == other.pred and self.args == other.args

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "Atom(%r, %r)" % (self.pred, self.args)

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


class Literal(ValueRecord):
    __slots__ = _compare = ("atom", "negated")

    def __init__(self, atom, negated=False):
        self.atom = atom
        self.negated = negated

    def __str__(self):
        return ("\\+ " if self.negated else "") + str(self.atom)

    def negate(self):
        return Literal(self.atom, not self.negated)


class AnnotatedClause(ValueRecord):
    """One source clause: explicit heads with probabilities plus a body.

    ``heads`` keeps the authored order and never contains zero-probability
    entries.  When the probabilities sum to less than 1 the clause has an
    implicit null head.  :meth:`values` numbers the selection values: the
    explicit heads 0..n-1 as written, then the null head, if any, as n.
    """

    __slots__ = _compare = ("clause_id", "heads", "body", "is_query")

    def __init__(self, clause_id, heads, body=(), is_query=False):
        self.clause_id = clause_id
        self.heads = heads  # ((Atom, float), ...)
        self.body = body  # (Literal, ...)
        self.is_query = is_query

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
        """Selection values in index order: null (if any) last."""
        return implicit_null(self.heads)

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
    """Append the implicit null head when the explicit mass is short of 1.

    Returns the value list as used for selection indices; the one place that
    puts the null head in it.  Raises ValueError when the probabilities
    exceed 1 beyond tolerance.
    """
    s = sum(p for _, p in heads)
    if s > 1.0 + HEAD_SUM_TOL:
        raise ValueError("head probabilities sum to %r > 1" % s)
    if s < 1.0 - HEAD_SUM_TOL:
        return tuple(heads) + ((NULL, 1.0 - s),)
    return tuple(heads)


class Program(ValueRecord):
    __slots__ = ("clauses", "evidence", "queries", "warnings")
    _compare = ("clauses", "evidence", "queries")

    def __init__(self, clauses=(), evidence=(), queries=(), warnings=()):
        self.clauses = clauses
        self.evidence = evidence  # (Literal, ...), conjunction
        self.queries = queries  # (Atom, ...)
        self.warnings = warnings

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


class GroundClause(AnnotatedClause):
    """One ground instance of a source clause: its heads and body
    instantiated, numbered grounding_id among the clause's instances.

    The instance of a probabilistic clause is its choice variable, at
    position cv_index of GroundProgram.choice_vars; value k is values()[k]
    with probability probs[k], the order of the variable's chain.
    """

    __slots__ = ("grounding_id", "cv_index")
    _compare = AnnotatedClause._compare + __slots__

    def __init__(self, clause_id, grounding_id, heads, body, cv_index=None, is_query=False):
        AnnotatedClause.__init__(self, clause_id, heads, body, is_query)
        self.grounding_id = grounding_id
        self.cv_index = cv_index  # None for deterministic instances

    @property
    def index(self):
        # perfbench/check.py reads a choice variable's position as cv.index
        return self.cv_index

    @property
    def probs(self):
        return tuple(p for _, p in self.values())


class Assignment(ValueRecord):
    """A head selection per choice variable, as returned by MPE/MAP."""

    __slots__ = _compare = ("entries",)

    def __init__(self, entries):
        self.entries = entries  # ((GroundClause, int selection), ...)

    @classmethod
    def of(cls, gp, selection):
        """The Assignment of a {cv_index: value} selection over the ground
        program gp, in cv_index order, which is clause and grounding
        order."""
        return cls(tuple((gp.choice_vars[ci], k) for ci, k in sorted(selection.items())))

    def as_dict(self):
        return {gc.cv_index: k for gc, k in self.entries}

    def to_rule_dicts(self):
        """Serialize as rule/4 records: clause id, selected head, head list
        in selection order, instantiated body.  The null head renders as
        ''."""
        out = []
        for gc, k in self.entries:
            heads = [{"atom": "" if a is NULL else str(a), "prob": p}
                     for a, p in gc.values()]
            out.append(
                {
                    "clause": gc.clause_id,
                    "head": heads[k]["atom"],
                    "heads": heads,
                    "body": body_str(gc.body),
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


class Diagnostic:
    __slots__ = ("clause_id", "message")

    def __init__(self, clause_id, message):
        self.clause_id = clause_id  # int or None for program-level issues
        self.message = message

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
        # every head variable and every variable of a negated literal must
        # occur in a positive body literal
        unsafe = {v.name for a, _ in cl.heads for v in a.variables()}
        if cl.body:
            unsafe.update(v.name for lit in cl.body if lit.negated
                          for v in lit.atom.variables())
            unsafe.difference_update(v.name for lit in cl.body if not lit.negated
                                     for v in lit.atom.variables())
        if unsafe:
            diags.append(
                Diagnostic(
                    cl.clause_id,
                    "unsafe variables %s: not bound by a positive body literal"
                    % ",".join(sorted(unsafe)),
                )
            )
        for a, _ in cl.heads:
            if a.is_null:
                diags.append(Diagnostic(cl.clause_id, "the null atom may not be a head"))
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
