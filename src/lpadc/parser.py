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
"""

from __future__ import annotations

import re
from dataclasses import dataclass

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


@dataclass(frozen=True)
class SourceSpan:
    filename: str
    line: int
    col: int

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


class _Parser:
    def __init__(self, text, filename):
        self.text = text
        self.filename = filename
        self.tokens = _tokenize(text, filename)
        self.pos = 0

    def span(self, tok):
        return _span(self.text, self.filename, tok[2])

    def peek(self, ahead=0):
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def next(self):
        tok = self.tokens[self.pos]
        if tok[0] != "EOF":
            self.pos += 1
        return tok

    def expect(self, kind, text=None):
        tok = self.next()
        if tok[0] != kind or (text is not None and tok[1] != text):
            want = text if text is not None else kind
            raise ParseError("expected %r, found %r" % (want, tok[1] or "end of input"),
                             self.span(tok))
        return tok

    def at_punct(self, text):
        tok = self.peek()
        return tok[0] == "PUNCT" and tok[1] == text

    # ---- grammar ----

    def parse_term(self):
        tok = self.next()
        kind, text, _ = tok
        if kind == "IDENT":
            return text
        if kind == "VAR":
            if text.startswith("_"):
                raise ParseError("anonymous variables are not supported", self.span(tok))
            return Var(text)
        if kind == "NUMBER":
            if "." in text or "e" in text or "E" in text:
                raise ParseError("float constants are not terms", self.span(tok))
            return int(text)
        raise ParseError("expected a term, found %r" % text, self.span(tok))

    def parse_atom(self):
        name = self.expect("IDENT")[1]
        args = []
        if self.at_punct("("):
            self.next()
            args.append(self.parse_term())
            while self.at_punct(","):
                self.next()
                args.append(self.parse_term())
            self.expect("PUNCT", ")")
        return Atom(name, tuple(args))

    def parse_literal(self):
        if self.peek()[0] == "NOT":
            self.next()
            if self.at_punct("("):
                self.next()
                atom = self.parse_atom()
                self.expect("PUNCT", ")")
            else:
                atom = self.parse_atom()
            return Literal(atom, True)
        return Literal(self.parse_atom(), False)

    def parse_head(self):
        atom = self.parse_atom()
        if self.at_punct(":"):
            self.next()
            tok = self.expect("NUMBER")
            prob = float(tok[1])
            if not (0.0 <= prob <= 1.0):
                raise ParseError("head probability %r outside [0,1]" % prob, self.span(tok))
            return atom, prob, True
        return atom, 1.0, False


def parse_program(text, filename="<string>"):
    """Parse source text into a Program.  Raises ParseError on bad syntax."""
    p = _Parser(text, filename)
    clauses = []
    evidence = []
    queries = []
    warnings = []
    while p.peek()[0] != "EOF":
        start = p.peek()
        kind, word, _ = start
        if kind == "IDENT" and word in ("evidence", "query") and p.peek(1)[1] == "(":
            p.next()
            p.expect("PUNCT", "(")
            if word == "evidence":
                lit = p.parse_literal()
                if lit in evidence:
                    warnings.append("%s: duplicate evidence directive %s" % (p.span(start), lit))
                else:
                    evidence.append(lit)
            else:
                atom = p.parse_atom()
                if atom in queries:
                    warnings.append("%s: duplicate query directive %s" % (p.span(start), atom))
                else:
                    queries.append(atom)
            p.expect("PUNCT", ")")
            p.expect("PUNCT", ".")
            continue
        is_query = False
        if kind == "IDENT" and word == "map_query" and p.peek(1)[0] == "IDENT":
            p.next()
            is_query = True
        heads = []
        annotated = []
        atom, prob, has_ann = p.parse_head()
        heads.append((atom, prob))
        annotated.append(has_ann)
        while p.at_punct(";"):
            p.next()
            atom, prob, has_ann = p.parse_head()
            heads.append((atom, prob))
            annotated.append(has_ann)
        if len(heads) > 1 and not all(annotated):
            raise ParseError(
                "every head of a disjunction needs a probability annotation",
                p.span(start),
            )
        body = []
        if p.peek()[0] == "NECK":
            p.next()
            body.append(p.parse_literal())
            while p.at_punct(","):
                p.next()
                body.append(p.parse_literal())
        p.expect("PUNCT", ".")
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
    atom = p.parse_atom()
    p.expect("EOF")
    return atom


def parse_literal(text, filename="<literal>"):
    """Parse a single possibly negated atom, e.g. a CLI --evidence argument."""
    p = _Parser(text, filename)
    lit = p.parse_literal()
    p.expect("EOF")
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
