"""Boolean encodings of ground programs and formula compilation."""

import math

import pytest

from lpadc.compiler import (
    CompileError,
    compile_atom,
    compile_program,
    compile_query,
)
from lpadc.grounder import ground
from lpadc.model import Literal
from lpadc.oracle import exact_prob
from lpadc.parser import parse_program

from randprog import map_subset, random_case

THREE = """
a:0.2; b:0.3; c:0.5.
d:0.4; e:0.1.
"""


def _gp(text):
    return ground(parse_program(text))


def probs_of(gp, ci):
    return gp.choice_vars[ci].probs


# ---------------------------------------------------------------------------
# mode policy


def test_prob_task_uses_order_everywhere(kernel):
    cp = compile_program(_gp(THREE), task="prob", kernel=kernel)
    assert cp.query_cvs == frozenset()
    m = cp.manager
    assert not any(m.var_info(v).is_query for v in m.level_order())


def test_max_tasks_put_query_groups_on_top(kernel):
    # the same order encoding for every task; MPE and MAP only create the
    # query chains first, keeping creation order inside both partitions
    gp = _gp(THREE + "f:0.5.\n")
    for task, query_cvs, creation_order, want in (
        ("mpe", None, None, [0, 1, 2]),
        ("map", [2], None, [2, 0, 1]),
        ("map", [0, 2], [2, 1, 0], [2, 0, 1]),
    ):
        cp = compile_program(gp, task=task, query_cvs=query_cvs,
                             creation_order=creation_order, kernel=kernel)
        m = cp.manager
        levels = [m.var_info(v) for v in m.level_order()]
        assert [info.group for info in levels] == [
            ci for ci in want for _ in cp.encoding.group_vars(ci)
        ]
        assert [info.is_query for info in levels] == [
            ci in cp.query_cvs for ci in want for _ in cp.encoding.group_vars(ci)
        ]
        assert [info.index for info in levels if info.group == 0] == [0, 1]


def test_map_defaults_to_flagged_clauses(kernel):
    gp = _gp("map_query a:0.2; b:0.3; c:0.5.\nd:0.4; e:0.1.\n")
    cp = compile_program(gp, task="map", kernel=kernel)
    assert cp.query_cvs == frozenset({0})


def test_map_without_query_clauses_rejected(kernel):
    with pytest.raises(CompileError):
        compile_program(_gp(THREE), task="map", kernel=kernel)


def test_query_cvs_out_of_range(kernel):
    with pytest.raises(CompileError):
        compile_program(_gp(THREE), task="map", query_cvs=[5], kernel=kernel)


def test_unknown_task_rejected(kernel):
    with pytest.raises(CompileError):
        compile_program(_gp(THREE), task="marginal", kernel=kernel)


# ---------------------------------------------------------------------------
# block shapes


def test_block_sizes(kernel):
    gp = _gp(THREE)
    # THREE: cv0 has 3 values (no null), cv1 has 3 (null + 2 heads)
    for task in ("prob", "mpe"):
        enc = compile_program(gp, task=task, kernel=kernel).encoding
        assert [len(enc.group_vars(ci)) for ci in (0, 1)] == [2, 2]


def test_order_value_probabilities(kernel):
    gp = _gp(THREE)
    for task in ("prob", "mpe"):
        cp = compile_program(gp, task=task, kernel=kernel)
        for ci in (0, 1):
            got = [
                cp.manager.prob(cp.encoding.value_bdd(ci, k))
                for k in range(len(probs_of(gp, ci)))
            ]
            assert got == pytest.approx(probs_of(gp, ci), abs=1e-12)
            assert math.fsum(got) == pytest.approx(1.0, abs=1e-12)


def test_order_values_partition(kernel):
    cp = compile_program(_gp(THREE), task="prob", kernel=kernel)
    m, enc = cp.manager, cp.encoding
    values = [enc.value_bdd(0, k) for k in range(3)]
    for i in range(3):
        for j in range(i + 1, 3):
            assert (values[i] & values[j]).is_false
    union = m.false
    for f in values:
        union = union | f
    assert union.is_true


def test_order_chain_weights_have_unit_sum(kernel):
    # The order trick: per-variable weights sum to 1, so assignments that
    # differ only below the first true chain variable pool into the head
    # probability instead of double counting.
    cp = compile_program(_gp(THREE), task="prob", kernel=kernel)
    m = cp.manager
    for ci in (0, 1):
        for v in cp.encoding.group_vars(ci):
            info = m.var_info(v)
            assert info.weight + info.zero_weight == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# formula compilation


def test_deterministic_fact_compiles_to_true(kernel):
    gp = _gp("f.\na:0.5 :- f.\n")
    cp = compile_program(gp, kernel=kernel)
    f = next(a for a in gp.atoms if a.pred == "f")
    assert compile_atom(cp, f).is_true


def test_unknown_atom_compiles_to_false(kernel):
    from lpadc.model import Atom

    gp = _gp("a:0.5.\n")
    cp = compile_program(gp, kernel=kernel)
    assert compile_atom(cp, Atom("nope")).is_false


def test_formulas_cached(kernel):
    gp = _gp(THREE)
    cp = compile_program(gp, kernel=kernel)
    a = gp.atoms[0]
    first = compile_atom(cp, a)
    strata_after = cp.stats.strata_processed
    assert compile_atom(cp, a).ref == first.ref
    assert cp.stats.strata_processed == strata_after


def test_recursive_program_reaches_fixpoint(kernel):
    text = """
edge(a, b):0.5.
edge(b, c):0.5.
edge(a, c):0.5.
path(X, Y) :- edge(X, Y).
path(X, Y) :- edge(X, Z), path(Z, Y).
"""
    gp = _gp(text)
    cp = compile_program(gp, kernel=kernel)
    from lpadc.parser import parse_atom

    q = parse_atom("path(a, c)")
    got = cp.manager.prob(compile_atom(cp, q))
    want = exact_prob(gp, [Literal(q)])
    assert got == pytest.approx(want, abs=1e-12)
    assert cp.stats.fixpoint_iterations > 1


def test_stratified_negation_compiles(kernel, ex4):
    gp = ground(parse_program(ex4))
    cp = compile_program(gp, kernel=kernel)
    from lpadc.parser import parse_atom

    q = parse_atom("positive")
    got = cp.manager.prob(compile_atom(cp, q))
    want = exact_prob(gp, [Literal(q)])
    assert got == pytest.approx(want, abs=1e-12)


def test_compile_query_conjoins_literals(kernel, ex1):
    gp = ground(parse_program(ex1))
    cp = compile_program(gp, kernel=kernel)
    from lpadc.parser import parse_literal

    lits = [parse_literal("red(b1)"), parse_literal(r"\+blue(b1)")]
    f = compile_query(cp, lits)
    want = exact_prob(gp, lits)
    assert cp.manager.prob(f) == pytest.approx(want, abs=1e-12)


def test_creation_order_does_not_change_probabilities(kernel):
    gp = _gp(THREE)
    base = compile_program(gp, kernel=kernel)
    flipped = compile_program(gp, kernel=kernel, creation_order=[1, 0])
    a = gp.atoms[0]
    assert flipped.manager.prob(compile_atom(flipped, a)) == pytest.approx(
        base.manager.prob(compile_atom(base, a)), abs=1e-12
    )


def test_node_cap_threads_through(kernel):
    from lpadc.bdd import NodeLimitError

    text = "\n".join("x%d:0.5.\ny%d :- x%d." % (i, i, i) for i in range(12))
    gp = _gp(text)
    cp = compile_program(gp, kernel=kernel, node_cap=8)
    with pytest.raises(NodeLimitError):
        for a in gp.atoms:
            compile_atom(cp, a)


# ---------------------------------------------------------------------------
# the query-first layout is only a variable order


def test_encodings_agree_on_random_programs(kernel):
    for seed in range(40):
        case = random_case(seed)
        query_cvs = map_subset(case)
        if not query_cvs:
            continue
        lits = [Literal(case.query)] + list(case.evidence)
        default = compile_program(case.gp, task="prob", kernel=kernel)
        p_default = default.manager.prob(compile_query(default, lits))
        reverse = list(reversed(range(len(case.gp.choice_vars))))
        first = compile_program(case.gp, task="map", query_cvs=query_cvs,
                                creation_order=reverse, kernel=kernel)
        f = compile_query(first, lits)
        p_first = first.manager.prob(f)
        assert p_first == pytest.approx(p_default, abs=1e-9), case.src
        assert first.manager.wmc(f) == pytest.approx(p_first, abs=1e-12), case.src
