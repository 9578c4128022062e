"""End-to-end inference: marginals, MPE, and MAP against the oracle."""

import gc
import math
import weakref

import pytest

from lpadc.grounder import ground
from lpadc.infer import InferError, cond_prob, decode, map_query, mpe, prob_result
from lpadc.model import Literal
from lpadc.oracle import (
    exact_cond_prob,
    exact_map,
    exact_mpe,
    exact_prob,
    score_assignment,
)
from lpadc.parser import parse_atom, parse_literal, parse_program

from randprog import map_subset, random_case

EV = [parse_literal("ev")]


# ---------------------------------------------------------------------------
# the worked examples


def test_color_marginal(kernel, ex1):
    program = parse_program(ex1)
    res = prob_result(program, parse_atom("ev"), kernel=kernel)
    assert res.value == pytest.approx(0.94, abs=1e-12)
    assert res.task == "prob"
    assert res.assignment is None
    assert res.normalized


def test_color_mpe(kernel, ex2):
    res = mpe(parse_program(ex2), evidence=EV, kernel=kernel)
    assert res.value == pytest.approx(0.36, abs=1e-12)
    lines = res.assignment.to_rule_lines()
    assert lines == [
        "rule(0, red(b1), [red(b1):0.6, green(b1):0.3, blue(b1):0.1], pick(b1))",
        "rule(1, pick(b1), [pick(b1):0.6, no_pick(b1):0.4], true)",
    ]


def test_color_map(kernel, ex3):
    res = map_query(parse_program(ex3), evidence=EV, kernel=kernel)
    assert res.value == pytest.approx(0.54, abs=1e-12)
    lines = res.assignment.to_rule_lines()
    assert lines == ["rule(1, pick(b1), [pick(b1):0.6, no_pick(b1):0.4], true)"]


def test_diagnosis_mpe(kernel, ex4):
    program = parse_program(ex4)
    res = mpe(program, evidence=[parse_literal("positive")], kernel=kernel)
    assert res.value == pytest.approx(0.05 * 0.95 * 0.999 * 0.9999, abs=1e-12)
    picks = [(d["clause"], d["head"]) for d in res.assignment.to_rule_dicts()]
    assert picks == [
        (0, "disease"),
        (1, ""),
        (3, "positive"),
        (4, ""),
    ]
    gp = ground(program)
    want, _ = exact_mpe(gp, [parse_literal("positive")])
    assert res.value == pytest.approx(want, abs=1e-12)


def test_diagnosis_conditional(kernel, ex4):
    program = parse_program(ex4)
    got = cond_prob(
        program, parse_atom("disease"), [parse_literal("positive")], kernel=kernel
    )
    want = exact_cond_prob(
        ground(program), [parse_literal("disease")], [parse_literal("positive")]
    )
    assert got == pytest.approx(want, abs=1e-12)


# ---------------------------------------------------------------------------
# argument handling and errors


def test_prob_needs_query(kernel, ex1):
    with pytest.raises(InferError):
        prob_result(parse_program(ex1), None, kernel=kernel)


def test_impossible_evidence_rejected(kernel, ex1):
    program = parse_program(ex1)
    bad = [parse_literal("ev"), parse_literal(r"\+ev")]
    with pytest.raises(InferError):
        prob_result(program, parse_atom("ev"), bad, kernel=kernel)
    with pytest.raises(InferError):
        mpe(program, evidence=bad, kernel=kernel)


def test_evidence_defaults_to_directives(kernel):
    text = "a:0.3.\nb:0.5 :- a.\nevidence(a).\n"
    program = parse_program(text)
    res = prob_result(program, parse_atom("b"), kernel=kernel)
    assert res.value == pytest.approx(0.5, abs=1e-12)
    # an explicit argument replaces the directives
    res = prob_result(program, parse_atom("b"), [], kernel=kernel)
    assert res.value == pytest.approx(0.15, abs=1e-12)


def test_invalid_program_rejected(kernel):
    program = parse_program("p(X):0.5 :- q.\nq.\n")
    with pytest.raises(InferError):
        prob_result(program, parse_atom("q"), kernel=kernel)


def test_nonstratified_program_rejected(kernel):
    program = parse_program("a :- \\+b.\nb :- \\+a.\nc:0.5.\n")
    with pytest.raises(Exception):
        prob_result(program, parse_atom("c"), kernel=kernel)


def test_normalized_mpe(kernel, ex2):
    program = parse_program(ex2)
    joint = mpe(program, evidence=EV, kernel=kernel)
    norm = mpe(program, evidence=EV, normalize=True, kernel=kernel)
    p_ev = exact_prob(ground(program), EV)
    assert not joint.normalized and norm.normalized
    assert norm.value == pytest.approx(joint.value / p_ev, abs=1e-12)


def test_stats_populated(kernel, ex1):
    res = prob_result(parse_program(ex1), parse_atom("ev"), kernel=kernel)
    s = res.stats
    assert s.kernel == kernel
    assert s.bool_vars == 3  # order encoding: 3 + 2 heads -> 2 + 1 chain vars
    assert s.bdd_nodes > 0
    assert s.fixpoint_iterations >= 1
    assert s.wall_time_s >= 0.0


def test_json_shape(kernel, ex2):
    res = mpe(parse_program(ex2), evidence=EV, kernel=kernel)
    d = res.to_json_dict()
    assert set(d) == {
        "task", "value", "log_value", "normalized", "assignment", "stats"
    }
    assert d["log_value"] == pytest.approx(math.log(d["value"]), rel=1e-12)
    assert d["task"] == "mpe"
    assert [r["clause"] for r in d["assignment"]] == [0, 1]
    assert set(d["stats"]) == {
        "kernel",
        "bool_vars",
        "bdd_nodes",
        "fixpoint_iterations",
        "wall_time_s",
    }


def test_manager_freed_without_cycle_collection(kernel, ex2, monkeypatch):
    import lpadc.compiler

    managers = []

    class Recorded(lpadc.compiler.BddManager):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            managers.append(weakref.ref(self))

    monkeypatch.setattr(lpadc.compiler, "BddManager", Recorded)
    gc.disable()
    try:
        for task in (mpe, map_query):
            res = task(parse_program(ex2), evidence=EV, kernel=kernel)
            del res
        res = prob_result(parse_program(ex2), parse_atom("ev"), kernel=kernel)
        del res
        assert len(managers) == 3
        assert [ref() for ref in managers] == [None] * 3
    finally:
        gc.enable()


def test_mpe_log_value_survives_underflow(kernel):
    # 1,100 independent choices at 0.5: the MPE probability 0.5**1100
    # underflows a float, its log does not
    facts = "".join("n(%d).\n" % i for i in range(1, 1101))
    program = parse_program("e(X):0.5 :- n(X).\n" + facts + "evidence(e(1)).\n")
    res = mpe(program, kernel=kernel)
    assert res.value == 0.0
    assert math.isclose(res.log_value, 1100 * math.log(0.5), rel_tol=1e-9)
    heads = {d["body"]: d["head"] for d in res.assignment.to_rule_dicts()}
    assert len(heads) == 1100
    assert heads.pop("n(1)") == "e(1)"  # the evidence forces this one
    assert set(heads.values()) == {""}  # ties resolve to the null head
    assert res.to_json_dict()["log_value"] == res.log_value


def test_decode_defaults_to_most_probable_head(kernel):
    from lpadc.compiler import compile_program

    gp = ground(parse_program("a:0.2; b:0.7; c:0.1.\n"))
    cp = compile_program(gp, task="mpe", kernel=kernel)
    assignment = decode({}, cp.encoding, cp.query_cvs)
    ((cv, k),) = assignment.entries
    assert str(cv.ground_heads[k]) == "b"


def test_map_assignment_covers_only_query_variables(kernel, ex3):
    res = map_query(parse_program(ex3), evidence=EV, kernel=kernel)
    assert [cv.clause_id for cv, _ in res.assignment.entries] == [1]


def test_ties_resolve_deterministically(kernel):
    program = parse_program("a:0.5.\nb:0.5.\n")
    first = mpe(program, kernel=kernel)
    second = mpe(program, kernel=kernel)
    assert first.value == pytest.approx(0.25, abs=1e-12)
    assert first.assignment == second.assignment


# ---------------------------------------------------------------------------
# randomized agreement with the oracle


def test_random_marginals_match_oracle(kernel):
    for seed in range(120):
        case = random_case(seed)
        got = cond_prob(case.program, case.query, list(case.evidence), kernel=kernel)
        want = exact_cond_prob(case.gp, [Literal(case.query)], list(case.evidence))
        assert got == pytest.approx(want, abs=1e-9), case.src


def test_random_mpe_matches_oracle(kernel):
    for seed in range(80):
        case = random_case(seed)
        res = mpe(case.program, evidence=list(case.evidence), kernel=kernel)
        want, argmax = exact_mpe(case.gp, list(case.evidence))
        assert res.value == pytest.approx(want, abs=1e-9), case.src
        assert res.assignment.as_dict() in argmax, case.src


def test_random_map_matches_oracle(kernel):
    for seed in range(80):
        case = random_case(seed)
        query_cvs = map_subset(case)
        if not query_cvs:
            continue
        res = map_query(
            case.program,
            evidence=list(case.evidence),
            query_cvs=query_cvs,
            kernel=kernel,
        )
        want, argmax = exact_map(case.gp, list(case.evidence), query_cvs)
        assert res.value == pytest.approx(want, abs=1e-9), case.src
        assert res.assignment.as_dict() in argmax, case.src


def test_random_mpe_bounded_by_evidence_probability(kernel):
    for seed in range(40):
        case = random_case(seed)
        res = mpe(case.program, evidence=list(case.evidence), kernel=kernel)
        p_ev = exact_prob(case.gp, list(case.evidence))
        assert res.value <= p_ev + 1e-12, case.src


def test_map_creation_order_invariance(kernel):
    for seed in (3, 7, 11):
        case = random_case(seed)
        query_cvs = map_subset(case)
        if not query_cvs:
            continue
        n = len(case.gp.choice_vars)
        base = map_query(
            case.program, list(case.evidence), query_cvs, kernel=kernel
        )
        flipped = map_query(
            case.program,
            list(case.evidence),
            query_cvs,
            kernel=kernel,
            creation_order=list(reversed(range(n))),
        )
        assert flipped.value == pytest.approx(base.value, abs=1e-12), case.src
        assert flipped.assignment.as_dict() == base.assignment.as_dict(), case.src


def test_map_assignment_score_matches_value(kernel):
    # the reported value is exactly the oracle score of the reported selection
    for seed in range(30):
        case = random_case(seed)
        query_cvs = map_subset(case)
        if not query_cvs:
            continue
        res = map_query(
            case.program, list(case.evidence), query_cvs, kernel=kernel
        )
        score = score_assignment(
            case.gp, list(case.evidence), res.assignment.as_dict()
        )
        assert res.value == pytest.approx(score, abs=1e-9), case.src
