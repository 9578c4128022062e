import math
import random

import pytest

import bddcases
from lpadc.bdd import BddError, BddManager, NodeLimitError


def test_terminal_constants(kernel):
    m = BddManager()
    assert m.true.ref == 0
    assert m.false.ref == 1
    assert (~m.true).ref == 1


def test_var_and_negation(kernel):
    m = BddManager()
    v = m.new_var(0, 0, 0.6)
    x = m.var(v)
    assert m.eval(x, [True]) and not m.eval(x, [False])
    assert m.eval(~x, [False])
    assert (~~x).ref == x.ref


def test_apply_basic_identities(kernel):
    m = BddManager()
    m.new_var(0, 0, 0.5)
    m.new_var(1, 0, 0.5)
    x, y = m.var(0), m.var(1)
    assert (x & m.true).ref == x.ref
    assert (x & m.false).ref == m.false.ref
    assert (x | m.false).ref == x.ref
    assert (x | ~x).ref == m.true.ref
    assert (x & ~x).ref == m.false.ref
    assert (x & y).ref == (y & x).ref


def test_formulas_match_reference_evaluator(kernel):
    for seed in range(60):
        m, tree, nv, _ = bddcases.random_case(seed, max_vars=8)
        ref = bddcases.build(m, tree)
        assert bddcases.exhaustive_equal(m, ref, tree, nv), "seed %d" % seed


def test_canonicity_equivalent_builds_share_ref(kernel):
    for seed in range(60):
        m, tree, nv, rng = bddcases.random_case(seed, max_vars=8)
        a = bddcases.build(m, tree)
        b = bddcases.build(m, bddcases.restructure(tree, rng))
        assert a.ref == b.ref, "seed %d" % seed


def test_canonicity_minterm_rebuild(kernel):
    for seed in range(25):
        m, tree, nv, _ = bddcases.random_case(seed, max_vars=6)
        a = bddcases.build(m, tree)
        b = m.false
        for vals in bddcases.assignments(nv):
            if bddcases.evaluate(tree, vals):
                term = m.true
                for i, bit in enumerate(vals):
                    term = term & (m.var(i) if bit else m.nvar(i))
                b = b | term
        assert a.ref == b.ref, "seed %d" % seed


def test_structure_invariants(kernel):
    for seed in range(60):
        m, tree, nv, _ = bddcases.random_case(seed, max_vars=10)
        ref = bddcases.build(m, tree)
        assert bddcases.check_structure(m, ref) == [], "seed %d" % seed


def test_prob_matches_brute_force(kernel):
    for seed in range(40):
        m, tree, nv, _ = bddcases.random_case(seed, max_vars=8)
        ref = bddcases.build(m, tree)
        want = bddcases.brute_wmc(m, ref, nv)
        assert math.isclose(m.prob(ref), want, rel_tol=1e-12, abs_tol=1e-300)


def test_wmc_counts_onehot_selections(kernel):
    # engine shape: one variable per head with weight 1 on the 0-branch and
    # an exactly-one constraint per group; the count must equal the sum over
    # head selections of the selected weights
    import itertools

    for seed in range(40):
        rng = random.Random(seed)
        groups = [rng.randint(2, 3) for _ in range(rng.randint(1, 3))]
        m = BddManager()
        by_group = []
        for g, size in enumerate(groups):
            ids = [m.new_var(g, j, rng.uniform(0.1, 0.9), zero_weight=1.0)
                   for j in range(size)]
            by_group.append(ids)
        nv = sum(groups)
        tree = bddcases.gen_tree(rng, nv, depth=3)
        f = bddcases.build(m, tree)
        for ids in by_group:
            at_least = m.false
            for v in ids:
                at_least = at_least | m.var(v)
            f = f & at_least
            for a, b in itertools.combinations(ids, 2):
                f = f & ~(m.var(a) & m.var(b))
        want = 0.0
        for pick in itertools.product(*by_group):
            vals = [False] * nv
            w = 1.0
            for v in pick:
                vals[v] = True
                w *= m.var_info(v).weight
            if bddcases.evaluate(tree, vals):
                want += w
        assert math.isclose(m.wmc(f), want, rel_tol=1e-12, abs_tol=1e-300), (
            "seed %d" % seed
        )


def _big_or(m, n):
    """x1 | ... | xn over n fresh variables of weight 0.5."""
    big = m.false
    for i in range(n):
        big = big | m.var(m.new_var(i + 1, 0, 0.5))
    return big


def test_prob_of_a_complement_near_zero_keeps_its_digits(kernel):
    # P(~big) = 2^-60 sits below the rounding of 1 - P(big)
    m = BddManager()
    big = _big_or(m, 60)
    assert math.isclose(m.prob(~big), 2.0 ** -60, rel_tol=1e-12)
    assert m.prob(big) + m.prob(~big) == 1.0
    assert m.wmc(~big) == m.prob(~big)


def test_map_best_boundary_keeps_a_complement_near_zero(kernel):
    m = BddManager()
    q = m.new_var(0, 0, 0.7)
    big = _big_or(m, 60)
    log_value, choices = m.map_best(m.var(q) & ~big, {0: [q]})
    assert math.isclose(log_value, math.log(0.7) - 60 * math.log(2), rel_tol=1e-12)
    assert choices == {0: 0}


def _check_map_best(ties):
    """Compare map_best with enumeration on 150 chain cases: the value, and
    the pick against the first of the maximisers in group order.  The order
    of the chains' keys changes neither.  Returns how many cases have
    several maximisers."""
    tied = 0
    for seed in range(150):
        m = BddManager()
        groups, tree, ref = bddcases.chain_case(seed, m, ties=ties)
        want, score = bddcases.brute_map(groups, tree)
        chains = {g: ids for g, (_, ids, q) in enumerate(groups) if q}
        log_value, choices = m.map_best(ref, chains)
        assert m.map_best(ref, dict(reversed(chains.items()))) == (log_value, choices)
        assert math.isclose(math.exp(log_value), want, rel_tol=1e-12,
                            abs_tol=1e-300), "seed %d" % seed
        if want == 0.0:
            continue
        # the query groups are created first, so their ids are 0, 1, ...
        n_query = sum(q for _, _, q in groups)
        assert set(choices) == set(range(n_query)), "seed %d" % seed
        pick = tuple(choices[g] for g in range(n_query))
        best = [q for q in bddcases.query_values(groups)
                if math.isclose(score(q), want, rel_tol=1e-9)]
        assert pick == min(best), "seed %d" % seed
        tied += len(best) > 1
    return tied


def test_map_best_matches_brute_force(kernel):
    # formulas over order-encoded chains that depend only on the selected
    # values, with query and summed-out groups and complemented edges
    assert _check_map_best(ties=False) == 0


def test_map_best_reports_ties(kernel):
    # probabilities from a two-value set make tied maximisers common
    assert _check_map_best(ties=True) > 20


def test_map_best_picks_the_first_of_a_tie_between_groups(kernel):
    # each group's best value is unique, but two selections score 0.24
    m = BddManager()
    chains = {0: [m.new_var(0, 0, 0.6)], 1: [m.new_var(1, 0, 0.4)]}
    a, b = m.var(chains[0][0]), m.var(chains[1][0])
    assert m.map_best((a & b) | (~a & ~b), chains)[1] == {0: 0, 1: 0}
    assert m.map_best(~a & ~b, chains)[1] == {0: 1, 1: 1}
    # a summed-out group splits the tie
    c = m.var(m.new_var(2, 0, 0.5))
    assert m.map_best((~a & ~b) | (a & b & c), chains)[1] == {0: 1, 1: 1}
    # group 1 sits above group 0; of the two selections scoring 0.25 the
    # first in group order, not in level order, sets group 0 first
    m = BddManager()
    chains = {1: [m.new_var(1, 0, 0.5)], 0: [m.new_var(0, 0, 0.5)]}
    a, b = m.var(chains[0][0]), m.var(chains[1][0])
    log_value, choices = m.map_best((a & ~b) | (~a & b), chains)
    assert math.isclose(log_value, math.log(0.25), rel_tol=1e-12)
    assert choices == {0: 0, 1: 1}


def test_map_best_picks_the_first_of_a_groups_remaining_values(kernel):
    # one group with values 0.5, 0.25 and 0.25; ruling out the first leaves
    # two equal maximisers, the first of which is chain position 1
    m = BddManager()
    chain = [m.new_var(0, 0, 0.5), m.new_var(0, 1, 0.5)]
    log_value, choices = m.map_best(~m.var(chain[0]), {0: chain})
    assert math.isclose(log_value, math.log(0.25), rel_tol=1e-12)
    assert choices == {0: 1}


def test_map_best_rejects_query_vars_below_others(kernel):
    m = BddManager()
    m.new_var(0, 0, 0.5)
    q = m.new_var(1, 0, 0.5)
    with pytest.raises(BddError):
        m.map_best(m.var(q), {1: [q]})


def test_map_best_rejects_chains_off_the_top_levels(kernel):
    # groups 0 and 2 are query chains of two bits; group 1 is summed out
    m = BddManager()
    q0 = [m.new_var(0, 0, 0.5), m.new_var(0, 1, 0.5)]
    q2 = [m.new_var(2, 0, 0.5), m.new_var(2, 1, 0.5)]
    r = m.new_var(1, 0, 0.5)
    f = m.var(q0[1]) & m.var(q2[0]) & m.var(r)
    assert m.map_best(f, {0: q0, 2: q2})[1] == {0: 1, 2: 0}
    # a chain's bits given out of chain order
    with pytest.raises(BddError):
        m.map_best(f, {0: q0[::-1], 2: q2})
    # a non-query group above the query chains
    m.reorder_groups_front([1])
    with pytest.raises(BddError):
        m.map_best(f, {0: q0, 2: q2})
    # a non-query variable between two query chains
    m.reorder_groups_front([0])
    assert [m.var_info(v).group for v in m.level_order()] == [0, 0, 1, 2, 2]
    with pytest.raises(BddError):
        m.map_best(f, {0: q0, 2: q2})


def test_reorder_preserves_eval(kernel):
    for seed in range(40):
        m, tree, nv, rng = bddcases.random_case(seed, max_vars=8)
        ref = bddcases.build(m, tree)
        table = {vals: m.eval(ref, vals) for vals in bddcases.assignments(nv)}
        groups = list(range(nv))
        rng.shuffle(groups)
        m.reorder_groups_front(groups[: rng.randint(1, nv)])
        for vals, want in table.items():
            assert m.eval(ref, vals) == want, "seed %d" % seed
        assert bddcases.check_structure(m, ref) == [], "seed %d" % seed


def test_swap_levels_is_local_and_sound(kernel):
    for seed in range(40):
        m, tree, nv, rng = bddcases.random_case(seed, max_vars=6)
        ref = bddcases.build(m, tree)
        table = {vals: m.eval(ref, vals) for vals in bddcases.assignments(nv)}
        for _ in range(6):
            m.swap_levels(rng.randrange(nv - 1))
            for vals, want in table.items():
                assert m.eval(ref, vals) == want
        assert bddcases.check_structure(m, ref) == []


def test_node_cap_raises(kernel):
    m = BddManager(node_cap=4)
    for i in range(8):
        m.new_var(i, 0, 0.5)
    with pytest.raises(NodeLimitError):
        f = m.true
        for i in range(8):
            f = f & (m.var(i) | m.var((i + 1) % 8))


def test_node_cap_below_one_rejected(kernel):
    for cap in (0, -5):
        with pytest.raises(ValueError):
            BddManager(node_cap=cap)
    from lpadc.infer import prob_result
    from lpadc.parser import parse_atom, parse_program

    with pytest.raises(ValueError):
        prob_result(parse_program("a:0.5.\n"), parse_atom("a"), node_cap=-5)


def test_gc_reclaims_unpinned_nodes(kernel):
    m = BddManager()
    for i in range(8):
        m.new_var(i, 0, 0.5)
    keep = m.var(0) & m.var(1)
    junk = []
    for i in range(2, 8):
        junk.append(m.var(i - 1) | ~m.var(i))
    before = m.live_nodes()
    table = {vals: m.eval(keep, vals) for vals in bddcases.assignments(2)}
    del junk
    m.gc()
    assert m.live_nodes() < before
    for vals, want in table.items():
        assert m.eval(keep, tuple(vals) + (False,) * 6) == want


def test_node_count_on_example_shapes(kernel):
    m = BddManager()
    for i in range(3):
        m.new_var(i, 0, 0.5)
    x, y, z = m.var(0), m.var(1), m.var(2)
    assert (x & y & z).node_count() == 3
    assert m.true.node_count() == 0

