"""Boolean encodings of ground programs and formula compilation."""

import math
import sys

import pytest

from lpadc.bdd import BddError
from lpadc.compiler import (
    CompileError,
    compile_program,
    compile_query,
    cone_order,
    post_order,
)
from lpadc.grounder import ground
from lpadc.model import Literal
from lpadc.oracle import exact_prob
from lpadc.parser import parse_atom, parse_program

from randprog import map_subset, random_case, untied

THREE = """
a:0.2; b:0.3; c:0.5.
d:0.4; e:0.1.
"""


def _gp(text):
    return ground(parse_program(text))


def probs_of(gp, ci):
    return gp.choice_vars[ci].probs


def formula(cp, atom):
    return compile_query(cp, [Literal(atom)])


# ---------------------------------------------------------------------------
# mode policy


def test_prob_task_uses_order_everywhere(kernel):
    cp = compile_program(_gp(THREE), task="prob")
    assert cp.query_cvs == frozenset()
    # no query chain: a max-product pass over the compile's query chains
    # picks nothing and reads the weighted count
    m = cp.manager
    f = formula(cp, parse_atom("a"))
    log_value, choices = m.map_best(f, {ci: cp.var_ids[ci] for ci in cp.query_cvs})
    assert choices == {} and log_value == math.log(m.prob(f))


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
                             creation_order=creation_order)
        m = cp.manager
        levels = [m.var_info(v) for v in m.level_order()]
        assert [info.group for info in levels] == [
            ci for ci in want for _ in cp.var_ids[ci]
        ]
        # the top levels hold exactly the query chains
        n_query = sum(len(cp.var_ids[ci]) for ci in cp.query_cvs)
        assert {info.group for info in levels[:n_query]} == cp.query_cvs
        assert [info.index for info in levels if info.group == 0] == [0, 1]


def test_map_defaults_to_flagged_clauses(kernel):
    gp = _gp("map_query a:0.2; b:0.3; c:0.5.\nd:0.4; e:0.1.\n")
    cp = compile_program(gp, task="map")
    assert cp.query_cvs == frozenset({0})


def test_map_without_query_clauses_rejected(kernel):
    with pytest.raises(CompileError):
        compile_program(_gp(THREE), task="map")


def test_query_cvs_out_of_range(kernel):
    with pytest.raises(CompileError):
        compile_program(_gp(THREE), task="map", query_cvs=[5])


def test_unknown_task_rejected(kernel):
    with pytest.raises(CompileError):
        compile_program(_gp(THREE), task="marginal")


# ---------------------------------------------------------------------------
# block shapes


def test_block_sizes(kernel):
    gp = _gp(THREE)
    # THREE: cv0 has 3 values (no null), cv1 has 3 (null + 2 heads)
    for task in ("prob", "mpe"):
        cp = compile_program(gp, task=task)
        assert [len(cp.var_ids[ci]) for ci in (0, 1)] == [2, 2]


def test_order_value_probabilities(kernel):
    gp = _gp(THREE)
    for task in ("prob", "mpe"):
        cp = compile_program(gp, task=task)
        for ci in (0, 1):
            got = [
                cp.manager.prob(cp.value_bdd(ci, k))
                for k in range(len(probs_of(gp, ci)))
            ]
            assert got == pytest.approx(probs_of(gp, ci), abs=1e-12)
            assert math.fsum(got) == pytest.approx(1.0, abs=1e-12)


def test_order_values_partition(kernel):
    cp = compile_program(_gp(THREE), task="prob")
    m = cp.manager
    values = [cp.value_bdd(0, k) for k in range(3)]
    for i in range(3):
        for j in range(i + 1, 3):
            assert (values[i] & values[j]).is_false
    union = m.false
    for f in values:
        union = union | f
    assert union.is_true


def test_value_cube_is_the_conjunction_of_its_bits(kernel):
    # value k of a chain is "bits 0..k-1 clear, bit k set", built as one
    # cube; it is the same canonical node as the conjunction of the bits
    gp = _gp("a:0.1; b:0.2; c:0.3; d:0.4.\n")
    cp = compile_program(gp, task="prob")
    m = cp.manager
    ids = cp.var_ids[0]
    assert len(ids) == 3
    for k in range(4):
        got = cp.value_bdd(0, k)
        want = m.true
        for v in ids[:k]:
            want = want & m.nvar(v)
        if k < len(ids):
            want = want & m.var(ids[k])
        assert got.ref == want.ref, k
    with pytest.raises(BddError):
        m.cube([(ids[0], True), (ids[0], False)])


def test_order_chain_weights_have_unit_sum(kernel):
    # The order trick: per-variable weights sum to 1, so assignments that
    # differ only below the first true chain variable pool into the head
    # probability instead of double counting.
    cp = compile_program(_gp(THREE), task="prob")
    m = cp.manager
    for ci in (0, 1):
        for v in cp.var_ids[ci]:
            info = m.var_info(v)
            assert info.weight + info.zero_weight == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# formula compilation


def test_clause_operands_conjoin_deepest_first(kernel):
    # gnb's body variables lie above its clause's chain; conjoined in body
    # order, each literal rebuilt the growing term (45,451 live nodes at 300)
    from lpadc.benchgen import generate

    program = generate("gnb", 300, 0)
    query = program.queries[0]
    cp = compile_program(ground(program, [query]), roots=[query])
    assert compile_query(cp, [Literal(query)]).node_count() == 301
    assert cp.manager.live_nodes() <= 3 * 301


def test_deterministic_fact_compiles_to_true(kernel):
    gp = _gp("f.\na:0.5 :- f.\n")
    cp = compile_program(gp)
    f = next(a for a in gp.atoms if a.pred == "f")
    assert formula(cp, f).is_true


def test_unknown_atom_compiles_to_false(kernel):
    from lpadc.model import Atom

    gp = _gp("a:0.5.\n")
    cp = compile_program(gp)
    assert formula(cp, Atom("nope")).is_false


def test_formulas_cached(kernel):
    # a second read rebuilds nothing: a rebuilt cyclic component would add
    # its passes to fixpoint_iterations
    cp = compile_program(_gp("a:0.5.\nb:0.4.\np :- a.\np :- q.\nq :- p.\nq :- b."))
    p = parse_atom("p")
    first = formula(cp, p)
    formulas, passes = dict(cp.formulas), cp.fixpoint_iterations
    assert passes > 0
    assert formula(cp, p).ref == first.ref
    assert cp.formulas == formulas
    assert cp.fixpoint_iterations == passes


def test_recursive_program_reaches_fixpoint(kernel):
    text = """
edge(a, b):0.5.
edge(b, c):0.5.
edge(a, c):0.5.
path(X, Y) :- edge(X, Y).
path(X, Y) :- edge(X, Z), path(Z, Y).
"""
    gp = _gp(text)
    cp = compile_program(gp)
    from lpadc.parser import parse_atom

    q = parse_atom("path(a, c)")
    got = cp.manager.prob(formula(cp, q))
    want = exact_prob(gp, [Literal(q)])
    assert got == pytest.approx(want, abs=1e-12)
    # path's ground instances form no cycle here: no fixpoint pass
    assert cp.fixpoint_iterations == 0


def test_cyclic_component_iterates_to_fixpoint(kernel):
    gp = _gp("a:0.5.\nb:0.4.\np :- a.\np :- q.\nq :- p.\nq :- b.")
    cp = compile_program(gp)
    from lpadc.parser import parse_atom

    p = parse_atom("p")
    got = cp.manager.prob(formula(cp, p))
    assert got == pytest.approx(0.7, abs=1e-12)
    assert got == pytest.approx(exact_prob(gp, [Literal(p)]), abs=1e-12)
    # two passes change p or q, and a third confirms the fixpoint
    assert cp.fixpoint_iterations == 3


def test_acyclic_atoms_take_one_pass_each(kernel):
    from lpadc.benchgen import gen_gh
    from lpadc.parser import parse_atom

    cp = compile_program(ground(gen_gh(6, 0)))
    formula(cp, parse_atom("a0"))
    assert len(cp.formulas) == 7
    assert cp.fixpoint_iterations == 0  # only cyclic components count


def test_stratified_negation_compiles(kernel, ex4):
    gp = ground(parse_program(ex4))
    cp = compile_program(gp)
    from lpadc.parser import parse_atom

    q = parse_atom("positive")
    got = cp.manager.prob(formula(cp, q))
    want = exact_prob(gp, [Literal(q)])
    assert got == pytest.approx(want, abs=1e-12)


def test_compile_query_conjoins_literals(kernel, ex1):
    gp = ground(parse_program(ex1))
    cp = compile_program(gp)
    from lpadc.parser import parse_literal

    lits = [parse_literal("red(b1)"), parse_literal(r"\+blue(b1)")]
    f = compile_query(cp, lits)
    want = exact_prob(gp, lits)
    assert cp.manager.prob(f) == pytest.approx(want, abs=1e-12)


def test_creation_order_does_not_change_probabilities(kernel):
    gp = _gp(THREE)
    base = compile_program(gp)
    flipped = compile_program(gp, creation_order=[1, 0])
    a = gp.atoms[0]
    assert flipped.manager.prob(formula(flipped, a)) == pytest.approx(
        base.manager.prob(formula(base, a)), abs=1e-12
    )


def test_node_cap_threads_through(kernel):
    from lpadc.bdd import NodeLimitError

    text = "\n".join("x%d:0.5.\ny%d :- x%d." % (i, i, i) for i in range(12))
    gp = _gp(text)
    cp = compile_program(gp, node_cap=8)
    with pytest.raises(NodeLimitError):
        for a in gp.atoms:
            formula(cp, a)


# ---------------------------------------------------------------------------
# the query-first layout is only a variable order


def test_encodings_agree_on_random_programs(kernel):
    for seed in range(40):
        case = random_case(seed)
        query_cvs = map_subset(case)
        if not query_cvs:
            continue
        lits = [Literal(case.query)] + list(case.evidence)
        default = compile_program(case.gp, task="prob")
        p_default = default.manager.prob(compile_query(default, lits))
        reverse = list(reversed(range(len(case.gp.choice_vars))))
        first = compile_program(case.gp, task="map", query_cvs=query_cvs,
                                creation_order=reverse)
        f = compile_query(first, lits)
        p_first = first.manager.prob(f)
        assert p_first == pytest.approx(p_default, abs=1e-9), case.src
        assert first.manager.wmc(f) == pytest.approx(p_first, abs=1e-12), case.src


# ---------------------------------------------------------------------------
# post-order creation of the non-query chains


def _reached_cvs(gp, atoms):
    """Choice variables of the clauses deriving any atom reachable from atoms."""
    seen, stack, cvs = set(), list(atoms), set()
    while stack:
        a = stack.pop()
        if a in seen:
            continue
        seen.add(a)
        for gi, _ in gp.rules_by_head.get(a, ()):
            gc = gp.ground_clauses[gi]
            if gc.cv_index is not None:
                cvs.add(gc.cv_index)
            stack.extend(lit.atom for lit in gc.body)
    return cvs


def _layered_src(seed, n=12):
    """An acyclic program whose annotated rules have bodies: a_i's clauses
    use atoms a_j with j < i, listed in shuffled order."""
    import random

    rng = random.Random(seed)
    lines = []
    for i in range(n):
        for _ in range(rng.randint(1, 2)):
            k = min(i, rng.randint(0, 2))
            body = ", ".join("a%d" % j for j in rng.sample(range(i), k))
            lines.append("a%d:%.2f%s." % (i, rng.uniform(0.1, 0.9), " :- " + body if body else ""))
    rng.shuffle(lines)
    return "\n".join(lines) + "\n"


def _order_cases():
    from lpadc.benchgen import gen_blood, gen_gh, gen_graph
    from lpadc.parser import parse_atom

    for seed in range(200):
        case = random_case(seed)
        yield case.gp, [case.query] + [lit.atom for lit in case.evidence]
    for seed in range(50):
        yield _gp(_layered_src(seed)), [parse_atom("a11")]
    for program in (gen_gh(6, 0), gen_blood(2, 0), gen_graph(12, 0)):
        yield ground(program), list(program.queries)


def test_post_order_reached_prefix_then_index_order():
    for gp, roots in _order_cases():
        order = post_order(gp, roots)
        n = len(gp.choice_vars)
        assert sorted(order) == list(range(n))
        reached = _reached_cvs(gp, roots)
        assert set(order[: len(reached)]) == reached
        assert order[len(reached):] == sorted(set(range(n)) - reached)
        assert cone_order(gp, roots) == order[: len(reached)]
    gp = _gp("a:0.5.\nb:0.5.\nc :- b.\nd:0.5 :- c.\ne:0.5.\n")
    from lpadc.parser import parse_atom

    assert post_order(gp, [parse_atom("d")]) == [1, 2, 0, 3]
    assert post_order(gp, []) == [0, 1, 2, 3]


def test_a_partial_creation_order_is_completed_in_index_order(kernel):
    # every choice variable gets a chain, also one the order leaves out
    gp = _gp("a:0.5.\nb:0.5.\nc :- b.\nd:0.5.\n")
    cp = compile_program(gp, task="mpe", creation_order=cone_order(gp, [parse_atom("b")]))
    m = cp.manager
    assert [m.var_info(v).group for v in m.level_order()] == [1, 0, 2]
    assert cp.manager.prob(compile_query(cp, [Literal(parse_atom("c"))])) == 0.5
    for bad in ([0, 0], [3], [-1]):
        with pytest.raises(CompileError):
            compile_program(gp, creation_order=bad)


def test_post_order_puts_body_variables_first():
    # on acyclic programs a clause's variable follows every variable that
    # derives an atom reachable through its body
    checked = 0
    for gp, roots in _order_cases():
        if any(gp.strata().cyclic):
            continue
        position = {ci: i for i, ci in enumerate(post_order(gp, roots))}
        reached = _reached_cvs(gp, roots)
        for gc in gp.ground_clauses:
            if gc.cv_index not in reached:
                continue
            below = _reached_cvs(gp, [lit.atom for lit in gc.body])
            assert all(position[cj] < position[gc.cv_index] for cj in below)
            checked += len(below)
    assert checked > 800


def test_post_order_chain_deeper_than_recursion_limit():
    n = 3 * sys.getrecursionlimit()
    rules = "".join("p%d:0.5 :- p%d.\n" % (i, i - 1) for i in range(1, n + 1))
    gp = _gp("p0:0.5.\n" + rules)
    from lpadc.parser import parse_atom

    assert post_order(gp, [parse_atom("p%d" % n)]) == list(range(n + 1))


def test_max_tasks_put_query_chains_in_post_order(monkeypatch):
    # MPE and MAP create the query chains first and then the rest, each part
    # in post-order from the evidence atoms
    import lpadc.infer
    from lpadc.benchgen import gen_gh
    from lpadc.infer import map_query, mpe

    compiled = []

    def recording(*args, **kwargs):
        compiled.append(compile_program(*args, **kwargs))
        return compiled[-1]

    monkeypatch.setattr(lpadc.infer, "compile_program", recording)
    program = untied(gen_gh(6, 0))
    gp = ground(program)
    n = len(gp.choice_vars)
    order = post_order(gp, [lit.atom for lit in program.evidence])
    assert order != list(range(n))  # the post-order is a real reordering here
    query_cvs = list(range(0, n, 2))
    first = [ci for ci in order if ci in query_cvs]
    assert first != query_cvs
    results = [mpe(program, gp=gp), map_query(program, query_cvs=query_cvs, gp=gp)]
    wants = (order, first + [ci for ci in order if ci not in query_cvs])
    assert len(compiled) == len(wants)
    for cp, want in zip(compiled, wants):
        m = cp.manager
        assert [m.var_info(v).group for v in m.level_order()] == [
            ci for ci in want for _ in cp.var_ids[ci]
        ]
