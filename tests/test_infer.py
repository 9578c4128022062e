"""End-to-end inference: marginals, MPE, and MAP against the oracle."""

import gc
import math
import os
import random
import subprocess
import sys
import weakref

import pytest

from lpadc.grounder import StratificationError, ground, stratify
from lpadc.infer import InferError, cond_prob, map_query, mpe, prob_result
from lpadc.model import Literal
from lpadc.oracle import (
    exact_cond_prob,
    exact_map,
    exact_mpe,
    exact_prob,
    first_maximiser,
    score_assignment,
)
from lpadc.parser import parse_atom, parse_literal, parse_program

from randprog import (
    backward_cone,
    map_subset,
    random_case,
    random_demand,
    random_first_order_src,
    untied,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

EV = [parse_literal("ev")]


# ---------------------------------------------------------------------------
# the worked examples


def test_color_marginal(kernel, ex1):
    program = parse_program(ex1)
    res = prob_result(program, parse_atom("ev"))
    assert res.value == pytest.approx(0.94, abs=1e-12)
    assert res.task == "prob"
    assert res.assignment is None
    assert res.normalized


def test_color_mpe(kernel, ex2):
    res = mpe(parse_program(ex2), evidence=EV)
    assert res.value == pytest.approx(0.36, abs=1e-12)
    lines = res.assignment.to_rule_lines()
    assert lines == [
        "rule(0, red(b1), [red(b1):0.6, green(b1):0.3, blue(b1):0.1], pick(b1))",
        "rule(1, pick(b1), [pick(b1):0.6, no_pick(b1):0.4], true)",
    ]


def test_color_map(kernel, ex3):
    res = map_query(parse_program(ex3), evidence=EV)
    assert res.value == pytest.approx(0.54, abs=1e-12)
    lines = res.assignment.to_rule_lines()
    assert lines == ["rule(1, pick(b1), [pick(b1):0.6, no_pick(b1):0.4], true)"]


def test_diagnosis_mpe(kernel, ex4):
    program = parse_program(ex4)
    res = mpe(program, evidence=[parse_literal("positive")])
    assert res.value == pytest.approx(0.05 * 0.95 * 0.999 * 0.9999, abs=1e-12)
    picks = [(d["clause"], d["head"]) for d in res.assignment.to_rule_dicts()]
    assert picks == [
        (0, "disease"),
        (1, ""),
        (3, "positive"),
        (4, ""),
    ]
    gp = ground(program)
    want, argmax = exact_mpe(gp, [parse_literal("positive")])
    assert res.value == pytest.approx(want, abs=1e-12)
    # disease alone and malfunction alone score alike; the pass picks the
    # first in index order, disease
    assert len(argmax) == 2
    assert res.assignment.as_dict() == first_maximiser(argmax)


def test_diagnosis_conditional(kernel, ex4):
    program = parse_program(ex4)
    got = cond_prob(
        program, parse_atom("disease"), [parse_literal("positive")]
    )
    want = exact_cond_prob(
        ground(program), [parse_literal("disease")], [parse_literal("positive")]
    )
    assert got == pytest.approx(want, abs=1e-12)


# ---------------------------------------------------------------------------
# argument handling and errors


def test_negative_predicate_cycle_with_stratified_ground_program():
    # a(_) depends on b(_) through negation and b(_) on a(_), but no ground
    # atom depends on itself through negation
    program = parse_program("a(1):0.5.\nb(2) :- a(1).\na(2) :- \\+ b(2).\n")
    for name in ("a(2)", "b(2)"):
        query = parse_atom(name)
        got = prob_result(program, query).value
        assert got == pytest.approx(exact_prob(ground(program), [Literal(query)]), abs=1e-12)
    assert prob_result(program, parse_atom("a(2)")).value == pytest.approx(0.5)


def test_ground_program_for_other_atoms_rejected(ex1):
    program = parse_program(ex1)
    gp = ground(program, [parse_atom("pick(b1)")])
    assert prob_result(program, parse_atom("pick(b1)"), gp=gp).value == pytest.approx(0.6)
    with pytest.raises(InferError):
        prob_result(program, parse_atom("ev"), gp=gp)
    with pytest.raises(InferError):
        mpe(program, gp=gp)


def test_max_tasks_take_a_ground_program_that_holds_every_choice(ex1):
    program = parse_program(ex1)
    ev = [parse_literal("ev")]
    want = mpe(program, ev)
    for gp in (ground(program), ground(program, [parse_atom("ev")], choices=True)):
        res = mpe(program, ev, gp=gp)
        assert res.assignment == want.assignment and res.value == want.value
    # grounded for other evidence, or without every probabilistic clause
    for gp in (ground(program, [], choices=True), ground(program, [parse_atom("ev")])):
        with pytest.raises(InferError):
            mpe(program, ev, gp=gp)
        with pytest.raises(InferError):
            map_query(program, ev, [0], gp=gp)
    gp = ground(program, [parse_atom("ev")], choices=True)
    assert prob_result(program, parse_atom("ev"), gp=gp).value == pytest.approx(0.94)


def test_prob_needs_query(kernel, ex1):
    with pytest.raises(InferError):
        prob_result(parse_program(ex1), None)


def test_impossible_evidence_rejected(kernel, ex1):
    program = parse_program(ex1)
    bad = [parse_literal("ev"), parse_literal(r"\+ev")]
    with pytest.raises(InferError):
        prob_result(program, parse_atom("ev"), bad)
    with pytest.raises(InferError):
        mpe(program, evidence=bad)


def test_evidence_defaults_to_directives(kernel):
    text = "a:0.3.\nb:0.5 :- a.\nevidence(a).\n"
    program = parse_program(text)
    res = prob_result(program, parse_atom("b"))
    assert res.value == pytest.approx(0.5, abs=1e-12)
    # an explicit argument replaces the directives
    res = prob_result(program, parse_atom("b"), [])
    assert res.value == pytest.approx(0.15, abs=1e-12)


def test_invalid_program_rejected(kernel):
    program = parse_program("p(X):0.5 :- q.\nq.\n")
    with pytest.raises(InferError):
        prob_result(program, parse_atom("q"))


def test_nonstratified_program_rejected(kernel):
    program = parse_program("a :- \\+b.\nb :- \\+a.\nc:0.5.\n")
    with pytest.raises(Exception):
        prob_result(program, parse_atom("c"))


def test_normalized_mpe(kernel, ex2):
    program = parse_program(ex2)
    joint = mpe(program, evidence=EV)
    norm = mpe(program, evidence=EV, normalize=True)
    p_ev = exact_prob(ground(program), EV)
    assert not joint.normalized and norm.normalized
    assert norm.value == pytest.approx(joint.value / p_ev, abs=1e-12)


def test_stats_populated(kernel, ex1):
    res = prob_result(parse_program(ex1), parse_atom("ev"))
    s = res.stats
    # pick(b1), no_pick(b1), red(b1), green(b1), blue(b1) and ev
    assert (s.ground_atoms, s.ground_clauses, s.choice_vars) == (6, 3, 2)
    assert s.bool_vars == 3  # order encoding: 3 + 2 heads -> 2 + 1 chain vars
    assert s.bdd_nodes > 0
    assert s.fixpoint_iterations == 0  # no cyclic component
    assert s.wall_time_s >= 0.0


def test_json_shape(kernel, ex2):
    res = mpe(parse_program(ex2), evidence=EV)
    d = res.to_json_dict()
    assert set(d) == {
        "task", "value", "log_value", "normalized", "assignment", "stats"
    }
    assert d["log_value"] == pytest.approx(math.log(d["value"]), rel=1e-12)
    assert d["task"] == "mpe"
    assert [r["clause"] for r in d["assignment"]] == [0, 1]
    assert set(d["stats"]) == {
        "ground_atoms",
        "ground_clauses",
        "choice_vars",
        "bool_vars",
        "bdd_nodes",
        "fixpoint_iterations",
        "wall_time_s",
    }


def test_tie_outside_the_evidence_cone_needs_no_recompile(kernel):
    # y and z tie, but the evidence never reaches their clause: the diagram
    # never tests its chain, so the pass jumps it and picks its first value
    program = parse_program("y:0.5; z:0.5.\nx:0.3; w:0.7.\nevidence(x).\n")
    res = mpe(program)
    assert len(exact_mpe(ground(program), list(program.evidence))[1]) == 2
    assert res.value == pytest.approx(0.15, abs=1e-12)
    assert [d["head"] for d in res.assignment.to_rule_dicts()] == ["y", "x"]
    assert (res.stats.choice_vars, res.stats.bool_vars) == (2, 2)


def test_choices_outside_the_evidence_cone_take_their_most_probable_head(kernel):
    # e(X) and f(X) are never reached from the evidence; every instance is
    # still named, with its most probable head, and scored by the oracle's
    # world enumeration over the whole program
    program = parse_program(
        "n(1).\nn(2).\nn(3).\nmap_query e(X):0.4; f(X):0.35 :- n(X).\n"
        "g(X) :- f(X).\na:0.3; c:0.5.\nb :- a.\nevidence(b).\n"
    )
    full = ground(program)
    res = mpe(program)
    assert res.stats.bool_vars == 8  # two bits per choice variable's chain
    assert res.stats.ground_atoms == len(full.atoms) - 3  # no g(X)
    picks = {d["body"]: d["head"] for d in res.assignment.to_rule_dicts()}
    assert picks == {"n(1)": "e(1)", "n(2)": "e(2)", "n(3)": "e(3)", "true": "a"}
    want, argmax = exact_mpe(full, list(program.evidence))
    assert res.value == pytest.approx(want, rel=1e-12)
    assert res.assignment.as_dict() in argmax
    assert res.log_value == pytest.approx(math.log(0.4 ** 3 * 0.3), rel=1e-12)
    # MAP: the query choices lie outside the cone, a's is summed out
    res = map_query(program)
    want, argmax = exact_map(full, list(program.evidence), [0, 1, 2])
    assert res.value == pytest.approx(want, rel=1e-12)
    assert res.assignment.as_dict() in argmax
    assert res.value == pytest.approx(0.4 ** 3 * 0.3, rel=1e-12)


def test_near_tie_outside_the_evidence_cone_goes_to_the_first_head(kernel):
    # the null head's mass is 1 - 0.7 = 0.30000000000000004, a float above
    # a's 0.3; the pass settles the near tie as it does inside the cone
    program = parse_program("map_query a:0.3; b:0.3; c:0.1.\nd:0.5.\nevidence(d).\n")
    gp = ground(program)
    ev = list(program.evidence)
    assert mpe(program).assignment.as_dict() == {0: 0, 1: 0}
    assert first_maximiser(exact_mpe(gp, ev)[1]) == {0: 0, 1: 0}
    assert map_query(program).assignment.as_dict() == {0: 0}
    assert first_maximiser(exact_map(gp, ev, [0])[1]) == {0: 0}


def test_heads_summing_to_one_before_the_last_compile(kernel):
    # 0.5 + 0.5 is 1.0 in floats, so the chain has no mass left for c and e
    program = parse_program("a:0.5; b:0.5; c:1e-300; e:1e-300.\nd:0.5.\nevidence(d).\n")
    gp = ground(program)
    ev = list(program.evidence)
    res = mpe(program)
    want, argmax = exact_mpe(gp, ev)
    assert res.value == pytest.approx(want, rel=1e-12)
    assert res.assignment.as_dict() == first_maximiser(argmax) == {0: 0, 1: 0}
    assert prob_result(program, parse_atom("c")).value == pytest.approx(
        exact_cond_prob(gp, [Literal(parse_atom("c"))], ev), abs=1e-12)


@pytest.mark.parametrize("src", [
    "a:0.5; b:0.5; c:1e-300.\nevidence(c).\n",
    "a:0.5; b:0.5; c:1e-300; e:1e-300.\nd:0.5.\nevidence(d).\n",
])
def test_a_head_below_the_rounding_of_the_heads_before_it_keeps_its_mass(kernel, src):
    # 0.5 + 0.5 + 1e-300 is 1.0 in floats; the chain's suffix-sum weights
    # still give c its mass, where conditional weights gave it 0 (abs=0.0,
    # as approx would otherwise accept 0 for 1e-300)
    program = parse_program(src)
    gp = ground(program)
    ev = list(program.evidence)
    res = mpe(program)
    want, argmax = exact_mpe(gp, ev)
    assert res.value == pytest.approx(want, rel=1e-9, abs=0.0)
    assert res.log_value == pytest.approx(math.log(want), rel=1e-9, abs=0.0)
    assert res.assignment.as_dict() == first_maximiser(argmax)
    q = [Literal(parse_atom("c"))]
    assert prob_result(program, q[0].atom).value == pytest.approx(
        exact_cond_prob(gp, q, ev), rel=1e-9, abs=0.0)


def test_negative_cycle_outside_the_evidence_cone_rejected(kernel):
    program = parse_program(
        "n(1).\nr(X) :- n(X), \\+ s(X).\ns(X) :- n(X), \\+ r(X).\n"
        "a:0.3.\nb :- a.\nevidence(b).\n"
    )
    with pytest.raises(StratificationError):
        mpe(program)
    with pytest.raises(StratificationError):
        map_query(program, query_cvs=[0])


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
            res = task(parse_program(ex2), evidence=EV)
            del res
        res = prob_result(parse_program(ex2), parse_atom("ev"))
        del res
        assert len(managers) == 3
        assert [ref() for ref in managers] == [None] * 3
    finally:
        gc.enable()


def test_queries_leave_no_cyclic_garbage(kernel):
    # reference counting frees everything a query builds, its ground atoms
    # included, so the cycle collector finds nothing afterwards
    from lpadc.benchgen import generate

    graph, blood = generate("graph", 30, 0), generate("blood", 2, 0)
    gc.collect()
    gc.disable()
    try:
        prob_result(graph, graph.queries[0])
        mpe(blood)
        map_query(blood, query_cvs=[0, 1])
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_mpe_log_value_survives_underflow(kernel):
    # 1,100 independent choices at 0.5: the MPE probability 0.5**1100
    # underflows a float, its log does not
    facts = "".join("n(%d).\n" % i for i in range(1, 1101))
    program = parse_program("e(X):0.5 :- n(X).\n" + facts + "evidence(e(1)).\n")
    res = mpe(program)
    assert res.value == 0.0
    assert math.isclose(res.log_value, 1100 * math.log(0.5), rel_tol=1e-9)
    heads = {d["body"]: d["head"] for d in res.assignment.to_rule_dicts()}
    assert len(heads) == 1100
    assert heads.pop("n(1)") == "e(1)"  # the evidence forces this one
    # a head/null tie goes to the head, which comes first in chain order
    assert heads == {"n(%d)" % i: "e(%d)" % i for i in range(2, 1101)}
    assert res.to_json_dict()["log_value"] == res.log_value


@pytest.mark.parametrize("size", [55, 640])
def test_gnb_marginal_keeps_its_digits(kernel, size):
    # the answer is 2^-(size+1); under the complemented gnb root a count
    # taken as 1 - p cancels to 0 from size 55 on
    from lpadc.benchgen import gen_gnb

    program = gen_gnb(size)
    got = prob_result(program, program.queries[0], evidence=[]).value
    assert math.isclose(got, 2.0 ** -(size + 1), rel_tol=1e-12)


def test_gnb_evidence_probability_near_zero_is_not_zero(kernel):
    from lpadc.benchgen import gen_gnb

    program = gen_gnb(55)
    assert prob_result(program, program.queries[0]).value == 1.0
    # the evidence forces every choice, so P(x | e) is 1
    assert math.isclose(mpe(program, normalize=True).value, 1.0, rel_tol=1e-9)


def test_gnb_map_boundary_keeps_its_digits(kernel):
    from lpadc.benchgen import gen_gnb

    res = map_query(gen_gnb(60), query_cvs=[0])
    assert math.isclose(res.log_value, -61 * math.log(2), rel_tol=1e-12)


@pytest.mark.parametrize(
    "family,size,max_nodes",
    # index order builds 5,120 nodes on gh 10 and passes 4M on blood 3
    [("gh", 10, 60), ("blood", 3, 100), ("gh", 20, 250)],
)
def test_post_order_keeps_marginal_diagrams_small(kernel, family, size, max_nodes):
    from lpadc.benchgen import generate

    program = generate(family, size, 0)
    # the cap makes a worse order fail in seconds instead of filling memory
    res = prob_result(program, program.queries[0], evidence=[], node_cap=200_000)
    assert 0.0 < res.value <= 1.0
    assert res.stats.bdd_nodes <= max_nodes


_MPE_SIZES = [("gh", 13, 100), ("blood", 3, 100), ("blood", 4, 150)]


@pytest.mark.parametrize(
    "family,size,max_nodes,tied",
    # index order builds 53,248 nodes on gh 13 and passes 200,000 on blood 3
    [pytest.param(*case, False, id="%s-%d-%d" % case) for case in _MPE_SIZES]
    + [pytest.param(*case, True, id="%s-%d-%d-tied" % case) for case in _MPE_SIZES],
)
def test_post_order_keeps_mpe_diagrams_small(kernel, family, size, max_nodes, tied):
    from lpadc.benchgen import generate

    # the generators' equal probabilities tie every maximiser, which the
    # pass settles on the same diagram; redrawn probabilities tie nothing
    program = generate(family, size, 0)
    if not tied:
        program = untied(program)
    res = mpe(program, node_cap=200_000)
    assert res.stats.bdd_nodes <= max_nodes


def test_max_tasks_compile_once_also_on_a_tie(kernel, ex4, monkeypatch):
    import lpadc.infer
    from lpadc.benchgen import gen_gh

    calls = []
    real = lpadc.infer.compile_program

    def counting(*args, **kwargs):
        calls.append(kwargs.get("task"))
        return real(*args, **kwargs)

    monkeypatch.setattr(lpadc.infer, "compile_program", counting)
    # the diagnosis MPE and every benchgen gh MPE tie
    for program, ev in ((parse_program(ex4), [parse_literal("positive")]),
                        (gen_gh(6, 0), None)):
        query_cvs = range(0, len(ground(program).choice_vars), 2)
        mpe(program, ev)
        map_query(program, ev, query_cvs)
        assert calls == ["mpe", "map"]
        assert len(exact_mpe(ground(program), ev or list(program.evidence))[1]) > 1
        calls.clear()


@pytest.mark.parametrize("family,size", [("blood", 4), ("gnb", 320)])
def test_tied_mpe_takes_one_pass_and_no_new_node(kernel, family, size, monkeypatch):
    # the generators' equal probabilities tie these MPEs; the pick comes
    # from the one max-product pass, with no conditioned diagram, and each
    # chain position it picks is the reported selection
    import lpadc.infer
    from lpadc.bdd import BddManager
    from lpadc.benchgen import generate

    managers, live, passes = [], [], []
    real_query, real_best = lpadc.infer.compile_query, BddManager.map_best

    def query(cp, literals):
        ref = real_query(cp, literals)
        managers.append(cp.manager)
        live.append(cp.manager.live_nodes())
        return ref

    def best(manager, a):
        out = real_best(manager, a)
        passes.append(out[1])
        return out

    monkeypatch.setattr(lpadc.infer, "compile_query", query)
    monkeypatch.setattr(BddManager, "map_best", best)
    picks = mpe(generate(family, size, 0)).assignment.as_dict()
    assert len(passes) == 1
    assert [m.live_nodes() for m in managers] == live
    choices = passes[0]
    assert choices
    for ci, pos in choices.items():
        assert picks[ci] == pos


def test_marginal_grounds_only_what_the_query_reaches():
    from lpadc.benchgen import generate

    program = generate("graph", 200, 0)
    full = ground(program)
    kept, _ = backward_cone(full, list(program.queries))
    reachable = sum(gc.cv_index is not None for gc in kept)
    res = prob_result(program, program.queries[0])
    assert (len(full.atoms), len(full.choice_vars)) == (2905, 396)
    assert res.stats.choice_vars == reachable == 18
    assert res.stats.ground_atoms < len(full.atoms) / 20


def test_mpe_grounds_only_the_evidence_cone_and_every_choice():
    from lpadc.benchgen import generate

    program = generate("graph", 400, 1)
    res = mpe(program)
    # the whole program has 6,584 atoms: every path(X, Y), not only X = 0
    assert res.stats.ground_atoms <= 1000
    assert res.stats.choice_vars == 796
    whole = mpe(program, gp=ground(program))
    assert whole.stats.ground_atoms == 6584
    assert res.assignment == whole.assignment
    assert math.isclose(res.log_value, whole.log_value, rel_tol=1e-12)


def test_tracer_patch_points_exist():
    # perfbench/tracing.py wraps grounder.ground, GroundProgram.strata,
    # compile_program, compile_query (also as infer imported them) and
    # BddManager.reorder_groups_front by name and reads the program the
    # compiler used from its last ground call; perfbench/worker.py reports
    # bdd.default_kernel().  A BDD operation or count must not call another
    # traced BddManager method, or the tracer would count each recursive
    # step as an operation.
    code = (
        "import sys; sys.path.insert(0, 'perfbench')\n"
        "from tracing import Tracer\n"
        "tracer = Tracer(); tracer.install()\n"
        "from lpadc import bdd, infer, parser\n"
        "assert bdd.default_kernel() == 'py'\n"
        "with open('programs/diagnosis.lpad') as fh:\n"
        "    program = parser.parse_program(fh.read())\n"
        "query = parser.parse_atom('disease')\n"
        "for task, call in (('prob', lambda: infer.prob_result(program, query)),\n"
        "                   ('mpe', lambda: infer.mpe(program)),\n"
        "                   ('map', lambda: infer.map_query(program))):\n"
        "    tracer.begin_query(task)\n"
        "    res = call()\n"
        "    names = {row[0] for row in tracer.spans if row[4] == task}\n"
        "    assert {'grounder.ground', 'grounder.strata'} <= names, (task, names)\n"
        "    gp = tracer.last_ground\n"
        "    assert gp is not None and len(gp.choice_vars) == res.stats.choice_vars, task\n"
        "    assert {'bdd.apply', 'bdd.dp'} <= names, (task, names)\n"
        "    compile_spans = {'compiler.compile_program', 'compiler.compile_query'}\n"
        "    assert compile_spans <= names, (task, names)\n"
        "    for row in tracer.spans:\n"
        "        parent = tracer.spans[row[3]][0] if row[3] >= 0 else None\n"
        "        assert row[0] not in ('bdd.apply', 'bdd.dp') or parent != row[0], (task, row)\n"
        "print('ok')\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"


def test_map_assignment_covers_only_query_variables(kernel, ex3):
    res = map_query(parse_program(ex3), evidence=EV)
    assert [cv.clause_id for cv, _ in res.assignment.entries] == [1]


def test_ties_resolve_deterministically(kernel):
    program = parse_program("a:0.5.\nb:0.5.\n")
    first = mpe(program)
    second = mpe(program)
    assert first.value == pytest.approx(0.25, abs=1e-12)
    assert first.assignment == second.assignment


# ---------------------------------------------------------------------------
# randomized agreement with the oracle


def test_random_marginals_match_oracle(kernel):
    for seed in range(120):
        case = random_case(seed)
        got = cond_prob(case.program, case.query, list(case.evidence))
        want = exact_cond_prob(case.gp, [Literal(case.query)], list(case.evidence))
        assert got == pytest.approx(want, abs=1e-9), case.src


def test_random_first_order_marginals_match_oracle_on_the_whole_program():
    # prob_result grounds only what the query and evidence reach; the oracle
    # enumerates the worlds of the whole possible-atom program
    checked = rejected = 0
    for seed in range(300):
        program = parse_program(random_first_order_src(seed))
        full = ground(program)
        if len(full.choice_vars) > 12:
            continue
        demand = random_demand(program, full, seed)
        try:
            stratify(full)
        except StratificationError:
            with pytest.raises(StratificationError):
                prob_result(program, demand[0], [])
            rejected += 1
            continue
        cases = [(atom, []) for atom in demand]
        if len(demand) > 2:
            cases.append((demand[0], [Literal(demand[1], negated=seed % 2 == 1)]))
        for query, evidence in cases:
            try:
                want = exact_cond_prob(full, [Literal(query)], evidence)
            except ZeroDivisionError:
                continue
            got = prob_result(program, query, evidence).value
            assert got == pytest.approx(want, abs=1e-9), (seed, query, evidence)
            checked += 1
    print("%d marginals checked, %d non-stratified programs rejected"
          % (checked, rejected))
    assert checked > 800 and rejected > 0, (checked, rejected)


def test_random_mpe_matches_oracle(kernel):
    for seed in range(80):
        case = random_case(seed)
        res = mpe(case.program, evidence=list(case.evidence))
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
            case.program, evidence=list(case.evidence), query_cvs=query_cvs
        )
        want, argmax = exact_map(case.gp, list(case.evidence), query_cvs)
        assert res.value == pytest.approx(want, abs=1e-9), case.src
        assert res.assignment.as_dict() in argmax, case.src


def test_random_mpe_bounded_by_evidence_probability(kernel):
    for seed in range(40):
        case = random_case(seed)
        res = mpe(case.program, evidence=list(case.evidence))
        p_ev = exact_prob(case.gp, list(case.evidence))
        assert res.value <= p_ev + 1e-12, case.src


def test_random_normalized_best_never_exceeds_one():
    # P(x | e) <= 1; the max-product pass and the weighted count round
    # apart, so their ratio can land a few ulps above 1 (seed 43 did)
    for seed in range(500):
        case = random_case(seed)
        ev = list(case.evidence)
        runs = [mpe(case.program, ev, normalize=True, gp=case.gp)]
        query_cvs = map_subset(case)
        if query_cvs:
            runs.append(map_query(case.program, ev, query_cvs, normalize=True,
                                  gp=case.gp))
        for res in runs:
            assert res.value <= 1.0 and res.log_value <= 0.0, (seed, res.task)


def test_tie_sweep_answers_do_not_depend_on_the_order(kernel):
    # probabilities from {0.25, 0.5} make tied maximisers common; the answer
    # must be the first oracle maximiser and the same under every creation
    # order
    tied = 0
    for seed in range(300):
        case = random_case(seed, ties=True)
        ev = list(case.evidence)
        n = len(case.gp.choice_vars)
        shuffled = list(range(n))
        random.Random(seed).shuffle(shuffled)
        orders = (list(range(n)), list(reversed(range(n))), shuffled)
        runs = [("mpe", mpe(case.program, ev, gp=case.gp),
                 range(n), exact_mpe(case.gp, ev))]
        query_cvs = map_subset(case)
        if query_cvs:
            runs.append(("map", map_query(case.program, ev, query_cvs, gp=case.gp),
                         query_cvs, exact_map(case.gp, ev, query_cvs)))
        for task, res, query, (want, argmax) in runs:
            pick = res.assignment.as_dict()
            assert res.value == pytest.approx(want, abs=1e-9), case.src
            assert pick == first_maximiser(argmax), (task, case.src)
            tied += len(argmax) > 1
            for order in orders if n else ():
                # MPE is MAP over every choice variable
                other = map_query(case.program, ev, list(query), gp=case.gp,
                                  creation_order=order)
                assert other.assignment.as_dict() == pick, (case.src, order)
                assert math.isclose(other.log_value, res.log_value,
                                    rel_tol=1e-12), (case.src, order)
    assert tied > 0


def test_tie_in_a_jumped_group_settled_in_index_order(kernel):
    # two maximisers, a with x and \+a with y, both 0.5 * 0.75 * 0.75; with
    # a's chain on top the tie goes to a, with a's chain below x and y the
    # best path never tests a, so only the tied-group check catches it
    program = parse_program(
        "a:0.5.\nx:0.75.\ny:0.75.\ne :- a, x.\ne :- \\+a, y.\nevidence(e).\n"
    )
    want = {0: 0, 1: 0, 2: 0}
    gp = ground(program)
    argmax = exact_mpe(gp, list(program.evidence))[1]
    assert len(argmax) > 1 and first_maximiser(argmax) == want
    assert mpe(program).assignment.as_dict() == want
    for order in ([1, 2, 0], [2, 1, 0]):
        res = map_query(program, query_cvs=[0, 1, 2], creation_order=order)
        assert res.assignment.as_dict() == want


def test_map_creation_order_invariance(kernel):
    for seed in (3, 7, 11):
        case = random_case(seed)
        query_cvs = map_subset(case)
        if not query_cvs:
            continue
        n = len(case.gp.choice_vars)
        base = map_query(case.program, list(case.evidence), query_cvs)
        flipped = map_query(
            case.program,
            list(case.evidence),
            query_cvs,
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
        res = map_query(case.program, list(case.evidence), query_cvs)
        score = score_assignment(
            case.gp, list(case.evidence), res.assignment.as_dict()
        )
        assert res.value == pytest.approx(score, abs=1e-9), case.src
