import math

import pytest

from lpadc.model import (
    NULL,
    Assignment,
    Atom,
    ChoiceVariable,
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


def _cv(probs, heads, clause_id=0, body=()):
    return ChoiceVariable(
        index=0,
        clause_id=clause_id,
        grounding_id=0,
        probs=tuple(probs),
        ground_heads=tuple(heads),
        ground_body=tuple(body),
    )


def test_choice_variable_null_and_max():
    cv = _cv([0.3, 0.2, 0.5], [Atom("a"), Atom("b"), NULL])
    assert cv.has_null
    assert cv.max_prob_value() == 2
    assert [str(a) for a in cv.ground_heads] == ["a", "b", "null"]
    cv2 = _cv([0.4, 0.6], [Atom("a"), Atom("b")])
    assert not cv2.has_null
    assert cv2.max_prob_value() == 1


def test_max_prob_value_breaks_ties_in_chain_order():
    # the explicit heads as written, the null head last
    assert _cv([0.5, 0.5], [Atom("a"), NULL]).max_prob_value() == 0
    assert _cv([0.25, 0.5, 0.25], [Atom("a"), Atom("b"), NULL]).max_prob_value() == 1
    assert _cv([0.2, 0.4, 0.4], [Atom("a"), Atom("b"), NULL]).max_prob_value() == 1
    assert _cv([0.5, 0.5], [Atom("a"), Atom("b")]).max_prob_value() == 0


def test_assignment_renders_null_last():
    cv = _cv([0.05, 0.95], [Atom("malfunction"), NULL], clause_id=1)
    line = Assignment(((cv, 1),)).to_rule_lines()[0]
    assert line == "rule(1, '', [malfunction:0.05, '':0.95], true)"
    d = Assignment(((cv, 1),)).to_rule_dicts()[0]
    assert d["head"] == ""
    assert d["heads"][-1]["atom"] == ""  # null listed last, as stored


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


def test_validate_flags_nonground_directives():
    program = parse_program("p(a):0.5.\nevidence(p(X)).")
    assert any("not ground" in d.message for d in validate(program))
