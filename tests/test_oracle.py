import math

import pytest

from lpadc.grounder import ground
from lpadc.model import Literal
from lpadc.oracle import (
    OracleCapError,
    count_worlds,
    enumerate_worlds,
    exact_cond_prob,
    exact_map,
    exact_mpe,
    exact_prob,
    score_assignment,
)
from lpadc.parser import parse_atom, parse_program


def gp_of(src):
    return ground(parse_program(src))


def lit(text, neg=False):
    return Literal(parse_atom(text), negated=neg)


def test_world_probabilities_sum_to_one(ex1):
    gp = gp_of(ex1)
    worlds = list(enumerate_worlds(gp))
    assert len(worlds) == 6  # 3 colors x 2 pick choices
    assert math.isclose(sum(w.probability for w in worlds), 1.0, rel_tol=1e-12)


def test_world_models_respect_selection():
    gp = gp_of("a:0.4.\nb :- a.")
    models = {w.selection: w.model for w in enumerate_worlds(gp)}
    assert parse_atom("b") in models[(0,)]
    assert parse_atom("b") not in models[(1,)]


def test_exact_prob_on_example(ex1):
    gp = gp_of(ex1)
    assert math.isclose(exact_prob(gp, [lit("ev")]), 0.94, rel_tol=1e-12)


def test_exact_prob_negated_literal():
    gp = gp_of("a:0.3.")
    assert math.isclose(exact_prob(gp, [lit("a", neg=True)]), 0.7, rel_tol=1e-12)


def test_conditional_probability_definition():
    gp = gp_of("a:0.5.\nb:0.4 :- a.")
    joint = exact_prob(gp, [lit("a"), lit("b")])
    p_b = exact_prob(gp, [lit("b")])
    assert math.isclose(exact_cond_prob(gp, [lit("a")], [lit("b")]), joint / p_b)


def test_conditional_on_impossible_evidence_raises():
    gp = gp_of("a:0.5.\nb :- a.")
    with pytest.raises(ZeroDivisionError):
        exact_cond_prob(gp, [lit("a")], [lit("b"), lit("a", neg=True)])


def test_stratified_negation_in_worlds(ex4):
    gp = gp_of(ex4)
    assert count_worlds(gp) == 16
    # world with no disease, no malfunction, no spontaneous positive
    all_null = tuple(cv.n_values - 1 for cv in gp.choice_vars)
    for w in enumerate_worlds(gp):
        if w.selection == all_null:
            assert parse_atom("positive") not in w.model
            break


def test_exact_mpe_on_example(ex2):
    gp = gp_of(ex2)
    best, argmax = exact_mpe(gp, [lit("ev")])
    assert math.isclose(best, 0.36, rel_tol=1e-12)
    assert len(argmax) == 1
    sel = argmax[0]
    cv_pick = next(cv for cv in gp.choice_vars if cv.clause_id == 1)
    cv_color = next(cv for cv in gp.choice_vars if cv.clause_id == 0)
    assert str(cv_pick.values()[sel[cv_pick.cv_index]][0]) == "pick(b1)"
    assert str(cv_color.values()[sel[cv_color.cv_index]][0]) == "red(b1)"


def test_exact_map_sums_out_other_clauses(ex3):
    gp = gp_of(ex3)
    query_cvs = [cv.cv_index for cv in gp.choice_vars if cv.is_query]
    best, argmax = exact_map(gp, [lit("ev")], query_cvs)
    assert math.isclose(best, 0.54, rel_tol=1e-12)
    sel = argmax[0]
    cv_pick = next(cv for cv in gp.choice_vars if cv.clause_id == 1)
    assert str(cv_pick.values()[sel[cv_pick.cv_index]][0]) == "pick(b1)"


def test_exact_mpe_reports_all_ties():
    gp = gp_of("a:0.5.\nb:0.5.")
    best, argmax = exact_mpe(gp, [])
    assert math.isclose(best, 0.25, rel_tol=1e-12)
    assert len(argmax) == 4


def test_score_assignment_matches_partial_sum():
    gp = gp_of("a:0.3.\nb:0.6.")
    cv_a = next(cv for cv in gp.choice_vars if cv.clause_id == 0)
    # fixing a=selected sums over both b values
    got = score_assignment(gp, [], {cv_a.index: 0})
    assert math.isclose(got, 0.3, rel_tol=1e-12)
    got = score_assignment(gp, [lit("b")], {cv_a.index: 0})
    assert math.isclose(got, 0.3 * 0.6, rel_tol=1e-12)


def test_world_cap_enforced():
    gp = gp_of("a:0.5.\nb:0.5.\nc:0.5.")
    with pytest.raises(OracleCapError):
        list(enumerate_worlds(gp, cap=7))
