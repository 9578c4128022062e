"""Parser and formatter for the annotated-disjunction program syntax.

Grammar (informal)::

    program   := (clause | directive)*
    directive := 'evidence' '(' literal ')' '.' | 'query' '(' atom ')' '.'
    clause    := ['map_query'] head (';' head)* [':-' body] '.'
    head      := atom [':' number]        (omitted prob = 1.0, single head only)
    body      := literal (',' literal)*
    literal   := ['\\+'] ( atom | '(' atom ')' )
    atom      := ident [ '(' term (',' term)* ')' ]
    term      := ident | integer | variable

Comments run from ``%`` to end of line.  Constants are lowercase identifiers
or integers; variables start uppercase or with an underscore.

A flat atom, a name directly followed by a parenthesised list of
identifiers, variables and integers (``edge(0, 2)``, ``path(X,Y)``), is one
token, and its Atom is built from the token's text.  Every other atom is
read token by token: one whose list holds an anonymous variable, a float, a
nested atom or a comment, and one named ``query`` or ``evidence``, as a
directive starts with that name and '('.  Where the grammar wants anything
but an atom, a flat-atom token is split into the tokens it is made of, so
an error reads as it would without the flat-atom token.
"""

from __future__ import annotations

import re

from .model import (
    AnnotatedClause,
    Atom,
    Literal,
    Program,
    Var,
    implicit_null,
)

_TOKEN_RE = re.compile(
    r"""
      (?P<WS>\s+)
    | (?P<COMMENT>%[^\n]*)
    | (?P<ATOM>(?!(?:evidence|query)\()[a-z][A-Za-z0-9_]*\(
          \s*(?:[A-Za-z][A-Za-z0-9_]*|\d+)\s*
          (?:,\s*(?:[A-Za-z][A-Za-z0-9_]*|\d+)\s*)*\))
    | (?P<NUMBER>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)
    | (?P<IDENT>[a-z][A-Za-z0-9_]*)
    | (?P<VAR>[A-Z_][A-Za-z0-9_]*)
    | (?P<NECK>:-)
    | (?P<NOT>\\\+)
    | (?P<PUNCT>[():;,.])
    | (?P<BAD>.)
    """,
    re.VERBOSE,
)


class SourceSpan:
    __slots__ = ("filename", "line", "col")

    def __init__(self, filename, line, col):
        self.filename = filename
        self.line = line
        self.col = col

    def __str__(self):
        return "%s:%d:%d" % (self.filename, self.line, self.col)


class ParseError(Exception):
    def __init__(self, message, span=None):
        super().__init__(message if span is None else "%s: %s" % (span, message))
        self.span = span
        self.reason = message


def _span(text, filename, offset):
    """Line and column (both from 1) of a character offset."""
    line_start = text.rfind("\n", 0, offset) + 1
    return SourceSpan(filename, text.count("\n", 0, line_start) + 1, offset - line_start + 1)


def _tokenize(text, filename):
    """(kind, text, offset) for every token, then ("EOF", "", len(text))."""
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "BAD":
            raise ParseError("unexpected character %r" % m.group(),
                             _span(text, filename, m.start()))
        if kind != "WS" and kind != "COMMENT":
            tokens.append((kind, m.group(), m.start()))
    tokens.append(("EOF", "", len(text)))
    return tokens


def _flat_atom(text):
    """The Atom of a flat-atom token."""
    name, _, rest = text.partition("(")
    args = []
    for t in rest[:-1].split(","):
        t = t.strip()
        c = t[0]
        args.append(t if "a" <= c <= "z" else Var(t) if "A" <= c <= "Z" else int(t))
    return Atom(name, tuple(args))


class _Parser:
    """The grammar over the token list.  Each method takes the index of the
    first token of its construct and returns (value, index after it)."""

    def __init__(self, text, filename):
        self.text = text
        self.filename = filename
        self.tokens = _tokenize(text, filename)

    def span(self, tok):
        return _span(self.text, self.filename, tok[2])

    def split(self, i):
        """Replace the flat-atom token i by the tokens it is made of, where
        the grammar wants something other than an atom, so errors read as
        they would on those tokens."""
        _, text, offset = self.tokens[i]
        k = text.index("(")
        self.tokens[i:i + 1] = [("IDENT", text[:k], offset)] + [
            (kind, part, offset + k + at)
            for kind, part, at in _tokenize(text[k:], self.filename)[:-1]
        ]

    def expect(self, i, kind, text=None):
        """The index after token i, which must be a kind token (with text)."""
        tok = self.tokens[i]
        if tok[0] != kind or (text is not None and tok[1] != text):
            if tok[0] == "ATOM":
                self.split(i)
                tok = self.tokens[i]
            want = text if text is not None else kind
            raise ParseError("expected %r, found %r" % (want, tok[1] or "end of input"),
                             self.span(tok))
        return i + 1

    # ---- grammar ----

    def term(self, i):
        tok = self.tokens[i]
        kind, text, _ = tok
        if kind == "IDENT":
            return text, i + 1
        if kind == "VAR":
            if text.startswith("_"):
                raise ParseError("anonymous variables are not supported", self.span(tok))
            return Var(text), i + 1
        if kind == "NUMBER":
            if "." in text or "e" in text or "E" in text:
                raise ParseError("float constants are not terms", self.span(tok))
            return int(text), i + 1
        if kind == "ATOM":  # a name, then '(' where ',' or ')' must follow
            self.split(i)
            return self.term(i)
        raise ParseError("expected a term, found %r" % text, self.span(tok))

    def atom(self, i):
        tok = self.tokens[i]
        if tok[0] == "ATOM":
            return _flat_atom(tok[1]), i + 1
        i = self.expect(i, "IDENT")
        args = []
        if self.tokens[i][1] == "(":
            arg, i = self.term(i + 1)
            args.append(arg)
            while self.tokens[i][1] == ",":
                arg, i = self.term(i + 1)
                args.append(arg)
            i = self.expect(i, "PUNCT", ")")
        return Atom(tok[1], tuple(args)), i

    def literal(self, i):
        if self.tokens[i][0] != "NOT":
            atom, i = self.atom(i)
            return Literal(atom, False), i
        if self.tokens[i + 1][1] == "(":
            atom, i = self.atom(i + 2)
            i = self.expect(i, "PUNCT", ")")
        else:
            atom, i = self.atom(i + 1)
        return Literal(atom, True), i

    def probability(self, i):
        tok = self.tokens[i]
        i = self.expect(i, "NUMBER")
        prob = float(tok[1])
        if not (0.0 <= prob <= 1.0):
            raise ParseError("head probability %r outside [0,1]" % prob, self.span(tok))
        return prob, i


def parse_program(text, filename="<string>"):
    """Parse source text into a Program.  Raises ParseError on bad syntax."""
    p = _Parser(text, filename)
    toks = p.tokens
    clauses = []
    evidence = []
    queries = []
    warnings = []
    i = 0
    while toks[i][0] != "EOF":
        start = toks[i]
        kind, word, _ = start
        if kind == "IDENT" and word in ("evidence", "query") and toks[i + 1][1] == "(":
            if word == "evidence":
                lit, i = p.literal(i + 2)
                if lit in evidence:
                    warnings.append("%s: duplicate evidence directive %s" % (p.span(start), lit))
                else:
                    evidence.append(lit)
            else:
                atom, i = p.atom(i + 2)
                if atom in queries:
                    warnings.append("%s: duplicate query directive %s" % (p.span(start), atom))
                else:
                    queries.append(atom)
            i = p.expect(p.expect(i, "PUNCT", ")"), "PUNCT", ".")
            continue
        is_query = kind == "IDENT" and word == "map_query" and toks[i + 1][0] in ("IDENT", "ATOM")
        if is_query:
            i += 1
        heads = []
        bare = 0  # heads without an annotation
        while True:
            atom, i = p.atom(i)
            if toks[i][1] == ":":
                prob, i = p.probability(i + 1)
            else:
                prob = 1.0
                bare += 1
            heads.append((atom, prob))
            if toks[i][1] != ";":
                break
            i += 1
        if bare and len(heads) > 1:
            raise ParseError(
                "every head of a disjunction needs a probability annotation",
                p.span(start),
            )
        body = []
        if toks[i][0] == "NECK":
            while True:
                lit, i = p.literal(i + 1)
                body.append(lit)
                if toks[i][1] != ",":
                    break
        i = p.expect(i, "PUNCT", ".")
        kept = tuple((a, pr) for a, pr in heads if pr != 0.0)
        if len(kept) < len(heads):
            warnings.append("%s: dropped %d zero-probability head(s)" % (p.span(start), len(heads) - len(kept)))
        if not kept:
            raise ParseError("clause has no head with positive probability", p.span(start))
        try:
            implicit_null(kept)
        except ValueError as exc:  # the heads' probabilities sum above 1
            raise ParseError(str(exc), p.span(start)) from None
        clauses.append(
            AnnotatedClause(
                clause_id=len(clauses),
                heads=kept,
                body=tuple(body),
                is_query=is_query,
            )
        )
    return Program(
        clauses=tuple(clauses),
        evidence=tuple(evidence),
        queries=tuple(queries),
        warnings=tuple(warnings),
    )


def parse_atom(text, filename="<atom>"):
    """Parse a single atom, e.g. a CLI --query argument."""
    p = _Parser(text, filename)
    atom, i = p.atom(0)
    p.expect(i, "EOF")
    return atom


def parse_literal(text, filename="<literal>"):
    """Parse a single possibly negated atom, e.g. a CLI --evidence argument."""
    p = _Parser(text, filename)
    lit, i = p.literal(0)
    p.expect(i, "EOF")
    return lit


def format_program(program):
    """Canonical text form; parse(format(p)) is structurally identical to p."""
    lines = []
    for cl in program.clauses:
        heads = "; ".join("%s:%r" % (a, p) for a, p in cl.heads)
        if len(cl.heads) == 1 and cl.heads[0][1] == 1.0 and not cl.has_null:
            heads = str(cl.heads[0][0])
        prefix = "map_query " if cl.is_query else ""
        if cl.body:
            body = ", ".join(str(lit) for lit in cl.body)
            lines.append("%s%s :- %s." % (prefix, heads, body))
        else:
            lines.append("%s%s." % (prefix, heads))
    for lit in program.evidence:
        lines.append("evidence(%s)." % str(lit).replace("\\+ ", "\\+"))
    for a in program.queries:
        lines.append("query(%s)." % a)
    return "\n".join(lines) + ("\n" if lines else "")
