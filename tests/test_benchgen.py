"""Benchmark program generators and the timing harness."""

import csv
import io
import math
import os
import random

import pytest

from lpadc import benchgen
from lpadc.benchgen import (
    BENCH_FAMILIES,
    CSV_FIELDS,
    BenchSpec,
    _blood_persons,
    gen_blood,
    gen_gh,
    gen_gnb,
    gen_graph,
    generate,
    run_bench,
    write_rows,
)
from lpadc.grounder import ground
from lpadc.infer import map_query, prob_result
from lpadc.model import Literal
from lpadc.oracle import exact_prob
from lpadc.parser import format_program


def edge_facts(program):
    return [
        cl for cl in program.clauses if cl.heads and cl.heads[0][0].pred == "edge"
    ]


# ---------------------------------------------------------------------------
# spec validation


def test_spec_validation():
    BenchSpec("graph", 50, 0, "prob")
    with pytest.raises(ValueError):
        BenchSpec("grid", 50, 0, "prob")
    with pytest.raises(ValueError):
        BenchSpec("graph", 50, 0, "viterbi")
    with pytest.raises(ValueError):
        BenchSpec("graph", 0, 0, "prob")
    with pytest.raises(ValueError):
        BenchSpec("graph", 50, 0, "prob", map_fraction=0.5)
    with pytest.raises(ValueError):
        BenchSpec("graph", 50, 0, "map")
    for fraction in (0.0, -1.0, 1.5, 5.0, math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError):
            BenchSpec("graph", 50, 0, "map", map_fraction=fraction)
    BenchSpec("graph", 50, 0, "map", map_fraction=0.5)
    BenchSpec("graph", 50, 0, "map", map_fraction=1.0)


def test_generate_covers_every_family():
    for family in BENCH_FAMILIES:
        program = generate(family, 3, 0)
        assert program.queries and program.evidence


# ---------------------------------------------------------------------------
# the random digraph family


def test_graph_edge_counts():
    for n, want in ((50, 96), (100, 196), (500, 996)):
        assert len(edge_facts(gen_graph(n, seed=0))) == want


def test_graph_edge_probabilities_are_open_interval():
    for cl in edge_facts(gen_graph(60, seed=3)):
        ((_, p),) = cl.heads
        assert 0.0 < p < 1.0


def test_graph_incoming_edges_distinct():
    for seed in range(5):
        incoming = {}
        for cl in edge_facts(gen_graph(40, seed=seed)):
            u, v = cl.heads[0][0].args
            incoming.setdefault(v, []).append(u)
        for v, us in incoming.items():
            assert len(us) == 2 and len(set(us)) == 2, (v, us)


def test_graph_target_reachable_when_all_edges_hold():
    for seed in range(5):
        n = 30
        adj = {}
        for cl in edge_facts(gen_graph(n, seed=seed)):
            u, v = cl.heads[0][0].args
            adj.setdefault(u, []).append(v)
        seen, stack = {0}, [0]
        while stack:
            for v in adj.get(stack.pop(), ()):
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        assert n - 1 in seen


def test_graph_determinism():
    a = format_program(gen_graph(25, seed=7))
    b = format_program(gen_graph(25, seed=7))
    c = format_program(gen_graph(25, seed=8))
    assert a == b
    assert a != c


def test_graph_small_instance_matches_oracle():
    program = gen_graph(6, seed=1)
    gp = ground(program)
    got = prob_result(program, program.queries[0], evidence=[], gp=gp).value
    assert got == pytest.approx(exact_prob(gp, [Literal(program.queries[0])]), abs=1e-9)


# ---------------------------------------------------------------------------
# the head-chain and negated-body families


def test_gh_structure():
    program = gen_gh(3)
    sizes = sorted(len(cl.heads) for cl in program.clauses if len(cl.heads) > 1)
    assert sizes == [2, 3, 4]
    for cl in program.clauses:
        if len(cl.heads) > 1:
            assert math.fsum(p for _, p in cl.heads) == pytest.approx(1.0, abs=1e-9)


def test_gh_matches_oracle():
    program = gen_gh(4)
    gp = ground(program)
    got = prob_result(program, program.queries[0], evidence=[], gp=gp).value
    assert got == pytest.approx(exact_prob(gp, [Literal(program.queries[0])]),
                                 rel=1e-12, abs=1e-12)


def test_gnb_matches_oracle():
    program = gen_gnb(5)
    gp = ground(program)
    got = prob_result(program, program.queries[0], evidence=[], gp=gp).value
    assert got == pytest.approx(exact_prob(gp, [Literal(program.queries[0])]),
                                 rel=1e-12, abs=1e-12)
    # all size negated facts must come out false, each 0.5
    assert got == pytest.approx(0.5 ** 6, abs=1e-12)


# ---------------------------------------------------------------------------
# the blood type family


def test_blood_person_tree():
    assert _blood_persons(2) == [["p"], ["pm", "pf"], ["pmm", "pmf", "pfm", "pff"]]


def test_blood_closed_form():
    # P(bloodtype = a) with allele frequencies a=0.3, o=0.4 under random
    # mating: 0.3^2 + 2 * 0.3 * 0.4 = 0.33, independent of tree depth
    for depth in (1, 2):
        program = gen_blood(depth)
        got = prob_result(program, program.queries[0], evidence=[]).value
        assert got == pytest.approx(0.33, abs=1e-9)


def test_blood_matches_oracle():
    program = gen_blood(1)
    gp = ground(program)
    got = prob_result(program, program.queries[0], evidence=[], gp=gp).value
    assert got == pytest.approx(exact_prob(gp, [Literal(program.queries[0])]),
                                 rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------------------
# the timing harness


def test_run_bench_ok_row():
    row = run_bench(BenchSpec("gh", 3, 0, "prob"))
    assert row.status == "ok"
    assert row.value is not None and row.value > 0
    assert row.time_s >= 0.0
    assert (row.family, row.size, row.seed, row.task) == ("gh", 3, 0, "prob")


def test_run_bench_map_uses_fraction():
    spec = BenchSpec("gh", 3, 0, "map", map_fraction=0.3)
    row = run_bench(spec)
    assert row.status == "ok"
    program = gen_gh(3)
    n = len(ground(program).choice_vars)
    # a seeded random ceil(0.3 n) of the choice variables, not the first
    query_cvs = random.Random(0).sample(range(n), math.ceil(0.3 * n))
    want = map_query(program, query_cvs=query_cvs).value
    assert row.value == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_run_bench_same_spec_same_value():
    a = run_bench(BenchSpec("graph", 8, 2, "mpe"))
    b = run_bench(BenchSpec("graph", 8, 2, "mpe"))
    assert a.status == b.status == "ok"
    assert a.value == b.value


def test_run_bench_reports_errors():
    row = run_bench(BenchSpec("graph", 1, 0, "prob"))
    assert row.status.startswith("error:")
    assert row.value is None


def test_bench_spec_rejects_unusable_limits():
    for limits in (dict(timeout=-1), dict(timeout=0), dict(timeout=math.inf),
                   dict(timeout=math.nan), dict(node_cap=0), dict(node_cap=-5)):
        with pytest.raises(ValueError):
            BenchSpec("gh", 2, 0, "prob", **limits)


def test_run_bench_tied_blood_mpe_fits_the_cap():
    # benchgen's blood heads tie on every MPE; the tie is settled on the
    # post-ordered diagram of 61 nodes
    row = run_bench(BenchSpec("blood", 3, 0, "mpe", node_cap=200_000))
    assert row.status == "ok"
    assert row.value > 0.0


def test_run_bench_keeps_the_log_of_an_underflowing_mpe():
    # the gnb MPE probability is 2^-(n+1), below the smallest float from
    # n = 1,074 on; the row keeps its log
    row = run_bench(BenchSpec("gnb", 1280, 0, "mpe"))
    assert row.status == "ok"
    assert row.value == 0.0
    assert row.log_value == pytest.approx(-1281 * math.log(2), rel=1e-12)
    assert float(row.to_csv_dict()["log_value"]) == row.log_value


def test_run_bench_memcap():
    # graph 20 fits in 16 nodes under the post-order; graph 40 does not
    row = run_bench(BenchSpec("graph", 40, 0, "prob", node_cap=16))
    assert row.status == "memcap"
    assert row.value is None and row.log_value is None


def test_run_bench_timeout():
    # generating graph 3000 alone takes over a second, however fast the
    # engine answers
    spec = BenchSpec("graph", 3000, 0, "prob", timeout=0.2)
    row = run_bench(spec)
    assert row.status == "timeout"
    assert row.value is None
    assert row.time_s >= 0.2


def _exit_without_reply(spec):
    os._exit(1)


def test_run_bench_reports_crash(monkeypatch):
    # the worker is forked, so it runs the patched task
    monkeypatch.setattr(benchgen, "_run_task", _exit_without_reply)
    row = run_bench(BenchSpec("gh", 2, 0, "prob", timeout=30.0))
    assert row.status == "crash"
    assert row.value is None
    assert row.time_s < 30.0


def test_write_rows_round_trip():
    rows = [
        run_bench(BenchSpec("gh", 2, 0, "prob")),
        run_bench(BenchSpec("gh", 2, 0, "map", map_fraction=0.5)),
    ]
    buf = io.StringIO()
    write_rows(rows, buf)
    got = list(csv.DictReader(io.StringIO(buf.getvalue())))
    assert list(got[0]) == list(CSV_FIELDS)
    assert [r["task"] for r in got] == ["prob", "map"]
    assert got[0]["fraction"] == "" and got[1]["fraction"] == "0.5"
    assert float(got[0]["value"]) == pytest.approx(rows[0].value)
    assert got[0]["status"] == "ok"
