import itertools
import os
import random
import subprocess
import sys

import pytest

from lpadc.grounder import (
    GroundingError,
    StratificationError,
    format_ground,
    ground,
)
from lpadc.parser import parse_atom, parse_program


def gp_of(src):
    return ground(parse_program(src))


def test_propositional_choice_vars(ex1):
    gp = gp_of(ex1)
    assert len(gp.choice_vars) == 2
    cv0, cv1 = gp.choice_vars
    assert (cv0.clause_id, cv0.grounding_id) == (0, 0)
    assert not cv0.has_null  # 0.6+0.3+0.1 covers the mass
    assert [str(a) for a in cv1.ground_heads] == ["pick(b1)", "no_pick(b1)"]


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
    got = {cv.ground_heads[-1].args for cv in gp.choice_vars}
    assert got == expect


def test_relevance_skips_underivable_bodies():
    gp = gp_of("p:0.5 :- q.\nr:0.5.")
    # q has no rules, so the p clause gets no grounding
    assert [cv.clause_id for cv in gp.choice_vars] == [1]


def test_negative_literals_do_not_bind():
    gp = gp_of("q(a).\np(X):0.5 :- q(X), \\+ r(X).")
    assert len(gp.choice_vars) == 1
    assert str(gp.choice_vars[0].ground_body[1].atom) == "r(a)"


def test_duplicate_instances_merged():
    gp = gp_of("q. q.\np:0.5 :- q.")
    assert sum(1 for cv in gp.choice_vars if cv.clause_id == 2) == 1


def test_value_index_shifts_for_null():
    gp = gp_of("a:0.3; b:0.2.\nc:0.6; d:0.4.")
    with_null = gp.ground_clauses[0]
    without = gp.ground_clauses[1]
    assert with_null.value_index(0) == 1
    assert without.value_index(0) == 0


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


def test_stratify_chain_deeper_than_recursion_limit():
    # listed from the fact upward, so grounding finishes in two rounds
    n = 3 * sys.getrecursionlimit()
    src = "p0:0.5.\n" + "".join("p%d :- p%d.\n" % (i, i - 1) for i in range(1, n + 1))
    strata = gp_of(src).strata()
    assert len(strata.levels) == n + 1
    assert not any(strata.cyclic)
    assert [strata.index[parse_atom("p%d" % i)] for i in (0, n)] == [0, n]


def test_import_does_not_load_networkx():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    code = "import lpadc, sys; sys.exit('networkx' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


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
