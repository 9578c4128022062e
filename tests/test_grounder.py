import hashlib
import itertools
import os
import random
import subprocess
import sys
import time

import pytest

from lpadc import benchgen, grounder
from lpadc.grounder import (
    GroundingError,
    StratificationError,
    format_ground,
    ground,
)
from lpadc.model import NULL, Atom, Literal, Var
from lpadc.parser import parse_atom, parse_program

from randprog import backward_cone, random_demand, random_first_order_src

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def gp_of(src):
    return ground(parse_program(src))


def test_propositional_choice_vars(ex1):
    gp = gp_of(ex1)
    assert len(gp.choice_vars) == 2
    cv0, cv1 = gp.choice_vars
    assert (cv0.clause_id, cv0.grounding_id) == (0, 0)
    assert not cv0.has_null  # 0.6+0.3+0.1 covers the mass
    assert [str(a) for a, _ in cv1.values()] == ["pick(b1)", "no_pick(b1)"]


def test_first_order_grounding_counts():
    gp = gp_of("q(a). q(b). q(c).\np(X):0.5 :- q(X).")
    insts = [cv for cv in gp.choice_vars]
    assert len(insts) == 3
    assert [cv.grounding_id for cv in insts] == [0, 1, 2]


def test_join_matches_substitution_enumeration():
    # independent check: enumerate all constant pairs and keep those whose
    # positive body atoms are facts
    src = (
        "e(a,b). e(b,c). e(a,c). f(b). f(c).\n"
        "p(X,Y):0.5 :- e(X,Y), f(Y)."
    )
    gp = gp_of(src)
    facts_e = {("a", "b"), ("b", "c"), ("a", "c")}
    facts_f = {"b", "c"}
    expect = {
        (x, y)
        for x, y in itertools.product("abc", repeat=2)
        if (x, y) in facts_e and y in facts_f
    }
    got = {cv.heads[0][0].args for cv in gp.choice_vars}
    assert got == expect


def test_relevance_skips_underivable_bodies():
    gp = gp_of("p:0.5 :- q.\nr:0.5.")
    # q has no rules, so the p clause gets no grounding
    assert [cv.clause_id for cv in gp.choice_vars] == [1]


def test_negative_literals_do_not_bind():
    gp = gp_of("q(a).\np(X):0.5 :- q(X), \\+ r(X).")
    assert len(gp.choice_vars) == 1
    assert str(gp.choice_vars[0].body[1].atom) == "r(a)"


def test_duplicate_instances_merged():
    gp = gp_of("q. q.\np:0.5 :- q.")
    assert sum(1 for cv in gp.choice_vars if cv.clause_id == 2) == 1


def test_null_head_is_the_last_value():
    program = parse_program("a:0.3; b:0.2.\nc:0.6; d:0.4.\ne :- a.")
    gp = ground(program)
    _check_one_record(program, gp)
    with_null, without = gp.choice_vars
    assert with_null.values()[-1][0] is NULL
    assert with_null.probs[-1] == pytest.approx(0.5)
    assert NULL not in [a for a, _ in without.values()]
    # value k is explicit head k of the ground clause
    for cv in (with_null, without):
        for k, (atom, p) in enumerate(cv.heads):
            assert (cv.values()[k], cv.probs[k]) == ((atom, p), p)


def test_rules_by_head_links_atoms_to_instances():
    gp = gp_of("a:0.5.\na:0.7.\nb :- a.")
    entries = gp.rules_by_head[parse_atom("a")]
    assert len(entries) == 2


def test_strata_levels():
    gp = gp_of("a:0.5.\nb :- \\+ a.\nc :- \\+ b.")
    strata = gp.strata()
    lv = {name: strata.level_of(parse_atom(name)) for name in "abc"}
    assert lv["a"] < lv["b"] < lv["c"]


def test_positive_recursion_allowed():
    gp = gp_of("a:0.5.\np :- a.\np :- q.\nq :- p.")
    assert gp.strata() is not None


def test_recursive_atoms_share_a_cyclic_component():
    gp = gp_of("a:0.5.\nb:0.4.\np :- a.\np :- q.\nq :- p.\nq :- b.")
    strata = gp.strata()
    a, b, p, q = (parse_atom(name) for name in "abpq")
    assert strata.index[p] == strata.index[q]
    assert set(strata.levels[strata.index[p]]) == {p, q}
    assert strata.cyclic[strata.index[p]]
    assert not strata.cyclic[strata.index[a]]
    assert strata.index[a] < strata.index[p] and strata.index[b] < strata.index[p]
    self_loop = gp_of("a:0.5.\np :- a.\np :- p.").strata()
    assert self_loop.cyclic[self_loop.index[p]]


def test_components_are_mutual_reachability_classes():
    for seed in range(200):
        rng = random.Random(seed)
        n = rng.randint(1, 8)
        edges = {(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 2 * n))}
        src = "".join("p%d:0.5.\n" % i for i in range(n))
        src += "".join("p%d :- p%d.\n" % e for e in sorted(edges))
        strata = gp_of(src).strata()
        reach = {(i, i) for i in range(n)} | edges
        for k, i, j in itertools.product(range(n), repeat=3):
            if (i, k) in reach and (k, j) in reach:
                reach.add((i, j))
        comp = [strata.index[parse_atom("p%d" % i)] for i in range(n)]
        for i, j in itertools.product(range(n), repeat=2):
            assert (comp[i] == comp[j]) == ((i, j) in reach and (j, i) in reach)
        assert all(comp[j] <= comp[i] for i, j in edges)
        assert [strata.cyclic[comp[i]] for i in range(n)] == [
            any(comp[j] == comp[i] for j in range(n) if (i, j) in edges)
            for i in range(n)
        ]


def test_negative_cycle_rejected():
    for src in (
        "a:0.9.\np :- a, \\+ q.\nq :- \\+ p.",
        "a:0.5.\np :- a, \\+ p.",  # a negative self-edge
    ):
        gp = gp_of(src)
        with pytest.raises(StratificationError):
            gp.strata()


def _chain_src(n, top_down):
    rules = ["p%d :- p%d.\n" % (i, i - 1) for i in range(1, n + 1)]
    return "p0:0.5.\n" + "".join(reversed(rules) if top_down else rules)


def test_stratify_chain_deeper_than_recursion_limit():
    n = 3 * sys.getrecursionlimit()
    strata = gp_of(_chain_src(n, top_down=False)).strata()
    assert len(strata.levels) == n + 1
    assert not any(strata.cyclic)
    assert [strata.index[parse_atom("p%d" % i)] for i in (0, n)] == [0, n]


def test_import_does_not_load_networkx():
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    code = "import lpadc, sys; sys.exit('networkx' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_import_does_not_load_dataclasses_inspect_or_typing():
    # -S: an installed package's .pth file may import typing at start-up
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    code = ("import sys, lpadc, lpadc.cli\n"
            "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_every_exported_name_resolves():
    import lpadc

    assert [name for name in lpadc.__all__ if not hasattr(lpadc, name)] == []
    assert len(set(lpadc.__all__)) == len(lpadc.__all__)
    assert "GroundClause" in lpadc.__all__ and lpadc.GroundClause is lpadc.model.GroundClause


def test_variable_clause_without_constants_rejected():
    with pytest.raises(GroundingError):
        gp_of("p(X):0.5 :- q(X).")


def test_recursive_first_order_reachability():
    src = (
        "edge(a,b):0.5. edge(b,c):0.5.\n"
        "path(X,Y) :- edge(X,Y).\n"
        "path(X,Y) :- path(X,Z), edge(Z,Y)."
    )
    gp = gp_of(src)
    atoms = {str(a) for a in gp.atoms}
    assert "path(a,c)" in atoms


def test_format_ground_marks_choice_vars(ex1):
    text = format_ground(gp_of(ex1))
    assert "% cv(0,0)" in text
    assert "% cv(1,0)" in text


def test_chain_listed_top_down_grounds_in_linear_time():
    # one rule fires per round, however the rules are listed
    program = parse_program(_chain_src(1000, top_down=True))
    start = time.perf_counter()
    gp = ground(program)
    assert time.perf_counter() - start < 1.0
    bottom_up = ground(parse_program(_chain_src(1000, top_down=False)))
    assert {(gc.heads, gc.body) for gc in gp.ground_clauses} == {
        (gc.heads, gc.body) for gc in bottom_up.ground_clauses
    }
    assert len(gp.ground_clauses) == 1001


# sha256 of format_ground, which pins the instance numbering and so the
# choice-variable (and Boolean variable) order on the benchmark shapes
@pytest.mark.parametrize(
    "family,size,digest",
    [
        ("graph", 30, "ffc8252b068d4186914353238a6995dd6f081565e03f1c0e95acdab47a1dd9a6"),
        ("gh", 9, "7f17ffa0eb0a863f645949b18e91f3fcba4d9167837d20caf1ff6d6af1576131"),
        ("blood", 2, "0cf99955a2a1011fd20395fe3772388276b1c455220b5835377c48428af762a9"),
    ],
)
def test_benchmark_shapes_keep_their_ground_order(family, size, digest):
    text = format_ground(ground(benchgen.generate(family, size, 0)))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def _brute_force_ground(program):
    """Least fixpoint over every substitution of constants for a clause's
    variables: an instance is kept when all its positive body atoms are
    possible atoms, and its heads become possible atoms."""
    consts = program.constants()
    kept, possible = set(), set()
    changed = True
    while changed:
        changed = False
        for cl in program.clauses:
            names = sorted({v.name for v in cl.variables()})
            for values in itertools.product(consts, repeat=len(names)):
                sub = {Var(n): c for n, c in zip(names, values)}

                def inst(a):
                    return Atom(a.pred, tuple(sub.get(t, t) for t in a.args))

                body = tuple(Literal(inst(lit.atom), lit.negated) for lit in cl.body)
                if any(not lit.negated and lit.atom not in possible for lit in body):
                    continue
                heads = tuple((inst(a), p) for a, p in cl.heads)
                if (cl.clause_id, heads, body) not in kept:
                    kept.add((cl.clause_id, heads, body))
                    changed = True
                for a, _ in heads:
                    if a not in possible:
                        possible.add(a)
                        changed = True
    return kept, possible


def test_ground_matches_brute_force_fixpoint():
    chained = 0
    for seed in range(300):
        program = parse_program(random_first_order_src(seed))
        gp = ground(program)
        got = [(gc.clause_id, gc.heads, gc.body) for gc in gp.ground_clauses]
        want, possible = _brute_force_ground(program)
        assert len(got) == len(set(got)), seed
        assert set(got) == want, seed
        assert len(gp.atoms) == len(set(gp.atoms))
        assert set(gp.atoms) == possible, seed
        ids = {}
        for gc in gp.ground_clauses:
            assert gc.grounding_id == ids.get(gc.clause_id, 0)
            ids[gc.clause_id] = gc.grounding_id + 1
        derived = {a for gc in gp.ground_clauses if gc.body for a, _ in gc.heads}
        chained += any(
            not lit.negated and lit.atom in derived
            for gc in gp.ground_clauses
            for lit in gc.body
        )
    assert chained > 100  # rules often join against what rules derived


def _variables(program):
    return [cl.variables() for cl in program.clauses]


def _key(gc):
    return gc.clause_id, gc.heads, gc.body


def test_demand_grounds_exactly_the_cone():
    rewritten = plain = ruleless = 0
    for seed in range(300):
        program = parse_program(random_first_order_src(seed))
        full = ground(program)
        demand = random_demand(program, full, seed)
        gp = ground(program, demand)
        kept, reached = backward_cone(full, demand)
        # the cone's clauses, in the whole program's relative order
        assert [_key(gc) for gc in gp.ground_clauses] == [_key(gc) for gc in kept], seed
        assert set(gp.atoms) == {a for gc in kept for a, _ in gc.heads}, seed
        assert len(gp.atoms) == len(set(gp.atoms)), seed
        assert [a for a in gp.atoms if a in reached] == [
            a for a in full.atoms if a in reached
        ], seed
        # dense numbering: choice variables in clause order, grounding ids
        # from 0 within each clause
        assert [cv.index for cv in gp.choice_vars] == list(range(len(gp.choice_vars)))
        assert [gc.cv_index for gc in gp.ground_clauses if gc.cv_index is not None] == [
            cv.index for cv in gp.choice_vars
        ]
        ids = {}
        for gc in gp.ground_clauses:
            assert gc.grounding_id == ids.get(gc.clause_id, 0), seed
            ids[gc.clause_id] = gc.grounding_id + 1
        assert format_ground(ground(program, demand)) == format_ground(gp), seed
        ruleless += demand[-1] not in full.rules_by_head
        if grounder._demand_program(program, tuple(demand), _variables(program)) is None:
            plain += 1
        else:
            rewritten += 1
    assert ruleless == 300
    assert rewritten > 100 and plain > 100, (rewritten, plain)


def test_choices_demand_keeps_the_whole_programs_choice_variables():
    # MPE and MAP ground the evidence's cone plus every probabilistic
    # clause: the part is the backward cone of the demand and of every
    # probabilistic instance's heads, and its choice variables are the whole
    # program's, with the same numbers
    smaller = rewritten = 0
    for seed in range(300):
        program = parse_program(random_first_order_src(seed))
        full = ground(program)
        demand = random_demand(program, full, seed) if seed % 3 else []
        gp = ground(program, demand, choices=True)
        assert [_cv_key(cv) for cv in gp.choice_vars] == [
            _cv_key(cv) for cv in full.choice_vars
        ], seed
        _check_one_record(program, full)
        _check_one_record(program, gp)
        heads = [a for gc in full.ground_clauses if gc.cv_index is not None
                 for a, _ in gc.heads]
        kept, reached = backward_cone(full, demand + heads)
        assert [_key(gc) for gc in gp.ground_clauses] == [_key(gc) for gc in kept], seed
        assert [a for a in gp.atoms if a in reached] == [
            a for a in full.atoms if a in reached
        ], seed
        assert gp.choices and gp.demand == tuple(demand)
        smaller += len(gp.ground_clauses) < len(full.ground_clauses)
        patterns = tuple(a for cl in program.clauses if not cl.is_deterministic
                         for a, _ in cl.heads)
        rewritten += grounder._demand_program(program, tuple(demand) + patterns,
                                                _variables(program)) is not None
    assert smaller > 150 and rewritten > 150, (smaller, rewritten)


def _check_one_record(program, gp):
    """A choice variable is its ground clause: choice_vars[i] is the i-th
    probabilistic element of ground_clauses itself, has cv_index i, and has
    its null value last exactly when its source clause has null mass."""
    null_mass = {cl.clause_id: cl.has_null for cl in program.clauses}
    assert [id(cv) for cv in gp.choice_vars] == [
        id(gc) for gc in gp.ground_clauses if gc.cv_index is not None]
    for i, cv in enumerate(gp.choice_vars):
        assert cv.cv_index == i
        assert (cv.values()[-1][0] is NULL) == null_mass[cv.clause_id]


def _cv_key(cv):
    return cv.cv_index, cv.clause_id, cv.grounding_id, cv.probs, cv.values()


def test_demand_grounding_takes_the_rewrite_only_for_free_calls():
    # graph calls path with its second argument free; gh has no variables
    # and blood binds every argument of every call
    for family, size, rewrite in (("graph", 30, True), ("gh", 9, False),
                                  ("blood", 2, False)):
        program = benchgen.generate(family, size, 0)
        chosen = grounder._demand_program(program, program.queries, _variables(program))
        assert (chosen is not None) == rewrite, family


def test_demand_grounding_is_independent_of_hash_seed():
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    code = (
        "from lpadc import benchgen; from lpadc.grounder import format_ground, ground; "
        "p = benchgen.generate('graph', 30, 0); print(format_ground(ground(p, p.queries)))"
    )
    out = []
    for seed in ("1", "2"):
        env["PYTHONHASHSEED"] = seed
        out.append(subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                  capture_output=True, text=True).stdout)
    assert out[0] == out[1]
    program = benchgen.generate("graph", 30, 0)
    assert out[0] == format_ground(ground(program, program.queries)) + "\n"


def test_benchmark_references_agree_with_oracle():
    # perfbench/check.py compares the benchmark's engine-independent
    # references with the oracle, which runs on this grounder
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "check.py")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "references agree with the oracle" in proc.stdout
