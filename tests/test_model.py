import math

import pytest

from lpadc.model import (
    NULL,
    Assignment,
    Atom,
    GroundClause,
    Literal,
    Var,
    body_str,
    implicit_null,
    validate,
)
from lpadc.parser import parse_program


def clause(src, i=0):
    return parse_program(src).clauses[i]


def test_atom_rendering_and_groundness():
    a = Atom("edge", (0, 2))
    assert str(a) == "edge(0,2)"
    assert a.is_ground()
    b = Atom("path", (Var("X"), 3))
    assert str(b) == "path(X,3)"
    assert not b.is_ground()
    assert [v.name for v in b.variables()] == ["X"]
    assert Atom("p").args == ()


def test_literal_negate_roundtrip():
    lit = Literal(Atom("a"))
    assert str(lit.negate()) == "\\+ a"
    assert lit.negate().negate() == lit


def test_clause_null_head_indexing():
    cl = clause("a:0.3; b:0.2.")
    assert cl.has_null
    assert math.isclose(cl.null_prob, 0.5)
    values = cl.values()
    assert values[-1][0] is NULL
    assert [str(a) for a, _ in values] == ["a", "b", "null"]
    assert cl.n_values == 3


def test_clause_full_mass_has_no_null():
    cl = clause("a:0.6; b:0.4.")
    assert not cl.has_null
    assert cl.n_values == 2
    assert [str(a) for a, _ in cl.values()] == ["a", "b"]


def test_near_one_sum_within_tolerance_is_full():
    third = 1.0 / 3.0
    cl = clause("a:%r; b:%r; c:%r." % (third, third, third))
    assert not cl.has_null  # 3*(1/3) rounds just below 1


def test_deterministic_clause():
    cl = clause("a :- b.")
    assert cl.is_deterministic
    assert cl.heads[0][1] == 1.0


def test_implicit_null_rejects_excess_mass():
    with pytest.raises(ValueError):
        implicit_null(((Atom("a"), 0.7), (Atom("b"), 0.5)))


def test_body_str_shapes():
    assert body_str(()) == "true"
    assert body_str((Literal(Atom("a")),)) == "a"
    two = (Literal(Atom("a")), Literal(Atom("b"), negated=True))
    assert body_str(two) == "(a,\\+b)"


def _gc(heads, clause_id=0, body=()):
    """A choice variable: the ground clause with explicit heads (name, p)."""
    return GroundClause(clause_id, 0, tuple((Atom(a), p) for a, p in heads), tuple(body),
                        cv_index=0)


def test_choice_variable_null_and_max():
    cv = _gc([("a", 0.3), ("b", 0.2)])
    assert cv.has_null
    assert cv.probs == (0.3, 0.2, 0.5)
    assert [str(a) for a, _ in cv.values()] == ["a", "b", "null"]
    assert cv.values()[-1][0] is NULL
    cv2 = _gc([("a", 0.4), ("b", 0.6)])
    assert not cv2.has_null
    assert cv2.probs == (0.4, 0.6)


def test_assignment_renders_null_last():
    cv = _gc([("malfunction", 0.05)], clause_id=1)
    line = Assignment(((cv, 1),)).to_rule_lines()[0]
    assert line == "rule(1, '', [malfunction:0.05, '':0.95], true)"
    d = Assignment(((cv, 1),)).to_rule_dicts()[0]
    assert d["head"] == ""
    assert d["heads"][-1]["atom"] == ""  # null listed last, as stored
    # only the implicit null head renders as ''
    authored = _gc([("b", 0.3), ("null", 0.3)])
    assert Assignment(((authored, 1),)).to_rule_lines()[0] == (
        "rule(0, null, [b:0.3, null:0.3, '':0.4], true)")


def test_validate_clean_program():
    assert validate(parse_program("a:0.5.\nb :- a.")) == []


def test_validate_flags_unsafe_head_variable():
    program = parse_program("p(X):0.5 :- q.")
    messages = [d.message for d in validate(program)]
    assert any("unsafe" in m for m in messages)


def test_validate_flags_unsafe_negated_variable():
    program = parse_program("p :- \\+ q(X).")
    assert any("unsafe" in d.message for d in validate(program))


def test_validate_accepts_bound_variables():
    assert validate(parse_program("p(X) :- q(X), \\+ r(X).\nq(a).\nr(a).")) == []


def test_validate_flags_an_authored_null_head():
    # the null head is implicit: written out it would read as the no-head value
    for src in ("b:0.3; null:0.3.", "null:0.5; a:0.5."):
        assert [str(d) for d in validate(parse_program(src))] == [
            "clause 0: the null atom may not be a head"], src
    assert [d.message for d in validate(parse_program("a :- null."))] == [
        "the null atom may not appear in a body"]
    # with arguments it is an ordinary atom
    assert validate(parse_program("null(x):0.5; a:0.5.")) == []


def test_validate_flags_nonground_directives():
    program = parse_program("p(a):0.5.\nevidence(p(X)).")
    assert any("not ground" in d.message for d in validate(program))
