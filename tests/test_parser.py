import random

import pytest

from lpadc.model import Var
from lpadc.parser import (
    ParseError,
    format_program,
    parse_atom,
    parse_literal,
    parse_program,
)

from conftest import EX1, EX2, EX3, EX4


def test_annotated_disjunction_heads_in_order(ex1):
    program = parse_program(ex1)
    cl = program.clauses[0]
    assert [str(a) for a, _ in cl.heads] == ["red(b1)", "green(b1)", "blue(b1)"]
    assert [p for _, p in cl.heads] == [0.6, 0.3, 0.1]
    assert not cl.is_query


def test_map_query_prefix_sets_flag(ex3):
    program = parse_program(ex3)
    assert [cl.is_query for cl in program.clauses] == [False, True, False]


def test_map_query_is_plain_atom_when_not_prefixing():
    program = parse_program("map_query.\na :- map_query.")
    assert str(program.clauses[0].heads[0][0]) == "map_query"


def test_negation_spacing_variants(ex1):
    tight = parse_program(EX1.replace("ev :- \\+ blue(b1).", "ev:- \\+blue(b1)."))
    loose = parse_program(ex1)
    assert tight.clauses == loose.clauses


def test_parenthesized_negation(ex4):
    cl = parse_program(ex4).clauses[4]
    assert [str(l) for l in cl.body] == ["\\+ malfunction", "\\+ disease"]


def test_directives_and_comments():
    program = parse_program(
        "% header comment\n"
        "a:0.5.  % trailing\n"
        "evidence(a).\n"
        "query(a).\n"
    )
    assert [str(l) for l in program.evidence] == ["a"]
    assert [str(a) for a in program.queries] == ["a"]


def test_negated_evidence_directive():
    program = parse_program("a:0.5.\nevidence(\\+ a).")
    assert program.evidence[0].negated


def test_duplicate_directive_warns_once():
    program = parse_program("a:0.5.\nquery(a).\nquery(a).")
    assert len(program.queries) == 1
    assert any("duplicate" in w for w in program.warnings)


def test_zero_probability_head_dropped_with_warning():
    program = parse_program("a:0.5; b:0.0.")
    assert [str(h[0]) for h in program.clauses[0].heads] == ["a"]
    assert any("zero-probability" in w for w in program.warnings)


def test_all_zero_heads_rejected():
    with pytest.raises(ParseError):
        parse_program("a:0.0.")


def test_probability_above_one_rejected():
    with pytest.raises(ParseError):
        parse_program("a:1.5.")


def test_multi_head_requires_annotations():
    with pytest.raises(ParseError):
        parse_program("a; b:0.5.")


def test_anonymous_variables_rejected():
    with pytest.raises(ParseError):
        parse_program("p(_) :- q(_).")


def test_integer_constants():
    cl = parse_program("edge(0, 12):0.5.").clauses[0]
    assert cl.heads[0][0].args == (0, 12)


def test_variables_parse_as_vars():
    cl = parse_program("p(X, c) :- q(X).").clauses[0]
    head = cl.heads[0][0]
    assert isinstance(head.args[0], Var)
    assert head.args[1] == "c"


@pytest.mark.parametrize(
    "spaced,compact",
    [
        ("p( a , X ) :- q(X,\ta).", "p(a,X) :- q(X,a)."),
        ("p(a, % c\n b):0.5.", "p(a,b):0.5."),
        ("map_query e(1, 2):0.3.", "map_query e(1,2):0.3."),
    ],
)
def test_flat_atom_spellings_parse_alike(spaced, compact):
    # spacing inside an argument list, or a comment that stops the atom
    # being one token, gives the same program
    assert parse_program(spaced) == parse_program(compact)


def test_flat_atom_token_boundaries():
    assert parse_program("map_query e(1, 2):0.3.").clauses[0].is_query
    program = parse_program("queryx(a).\nevidence_of(b).\nquery(a).")
    assert [str(cl.heads[0][0]) for cl in program.clauses] == ["queryx(a)", "evidence_of(b)"]
    assert [str(a) for a in program.queries] == ["a"]


def test_parse_atom_and_literal_helpers():
    assert str(parse_atom("path(0, 3)")) == "path(0,3)"
    lit = parse_literal("\\+ blue(b1)")
    assert lit.negated and str(lit.atom) == "blue(b1)"


@pytest.mark.parametrize(
    "parse,src,message,position",
    [
        (parse_program, "a:0.5\nb:0.2.",  # missing period
         "<string>:2:1: expected '.', found 'b'", (2, 1)),
        (parse_program, "a:0.5 @ b.",
         "<string>:1:7: unexpected character '@'", (1, 7)),
        (parse_program, "a:1.5.",
         "<string>:1:3: head probability 1.5 outside [0,1]", (1, 3)),
        (parse_program, "a; b:0.5.",
         "<string>:1:1: every head of a disjunction needs a probability "
         "annotation", (1, 1)),
        (parse_program, "p(_) :- q(_).",
         "<string>:1:3: anonymous variables are not supported", (1, 3)),
        (parse_program, "p(1.5).",
         "<string>:1:3: float constants are not terms", (1, 3)),
        (parse_program, "a:0.5.\n  b :-\n\tc d.",
         "<string>:3:4: expected '.', found 'd'", (3, 4)),
        (parse_program, "a.\n% comment\n  - b.",
         "<string>:3:3: unexpected character '-'", (3, 3)),
        (parse_program, "a :- b",
         "<string>:1:7: expected '.', found 'end of input'", (1, 7)),
        (parse_program, "a:0.0.",
         "<string>:1:1: clause has no head with positive probability", (1, 1)),
        (parse_program, "a:0.6; b:0.6.",
         "<string>:1:1: head probabilities sum to 1.2 > 1", (1, 1)),
        (parse_program, "a.\n  p(X):0.7; q(X):0.4 :- r(X).",
         "<string>:2:3: head probabilities sum to 1.1 > 1", (2, 3)),
        (parse_program, "q(a) :- \\+ (b.",
         "<string>:1:14: expected ')', found '.'", (1, 14)),
        (parse_atom, "p(a) q",
         "<atom>:1:6: expected 'EOF', found 'q'", (1, 6)),
        (parse_atom, "p(a,)",
         "<atom>:1:5: expected a term, found ')'", (1, 5)),
        (parse_literal, "\\+",
         "<literal>:1:3: expected 'IDENT', found 'end of input'", (1, 3)),
        # a flat atom where a term or the end of a clause belongs reads as
        # its name followed by '('
        (parse_program, "quer(paYh(0,3)).",
         "<string>:1:10: expected ')', found '('", (1, 10)),
        (parse_program, "a e(1,2).",
         "<string>:1:3: expected '.', found 'e'", (1, 3)),
        (parse_program, "p(q(a)).",
         "<string>:1:4: expected ')', found '('", (1, 4)),
    ],
)
def test_parse_error_messages_and_positions(parse, src, message, position):
    with pytest.raises(ParseError) as err:
        parse(src)
    assert str(err.value) == message
    assert (err.value.span.line, err.value.span.col) == position


def test_warning_texts():
    program = parse_program(
        "a:0.5.\nquery(a).\n  query(a).\nevidence(a).\nevidence(a).\n"
        "b:0.5; c:0.0.",
        filename="w.lpad",
    )
    assert program.warnings == (
        "w.lpad:3:3: duplicate query directive a",
        "w.lpad:5:1: duplicate evidence directive a",
        "w.lpad:6:1: dropped 1 zero-probability head(s)",
    )


def test_parse_error_reports_position():
    with pytest.raises(ParseError) as err:
        parse_program("a:0.5\nb:0.2.")  # missing period
    assert err.value.span.line in (1, 2)


def test_format_program_roundtrip_on_examples():
    for src in (EX1, EX2, EX3, EX4):
        once = format_program(parse_program(src))
        twice = format_program(parse_program(once))
        assert once == twice


def test_format_preserves_directives():
    src = "a:0.25.\nevidence(\\+ a).\nquery(a).\n"
    out = format_program(parse_program(src))
    assert "evidence(\\+a)." in out
    assert "query(a)." in out


def test_roundtrip_property_random_programs():
    import randprog

    for seed in range(80):
        case = randprog.random_case(seed)
        once = format_program(case.program)
        again = format_program(parse_program(once))
        assert once == again, "seed %d" % seed


def test_random_float_annotations_roundtrip_exactly():
    rng = random.Random(7)
    for _ in range(50):
        p = rng.uniform(1e-6, 1.0)
        program = parse_program("a:%r." % p)
        assert program.clauses[0].heads[0][1] == p
