"""The lpadc command line, run in process."""

import csv
import io
import json

import pytest

from lpadc.benchgen import gen_graph
from lpadc.cli import main
from lpadc.parser import format_program

COLORS = "programs/colors.lpad"
COLORS_MPE = "programs/colors_mpe.lpad"
COLORS_MAP = "programs/colors_map.lpad"
DIAGNOSIS = "programs/diagnosis.lpad"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def first_value(out):
    line = out.splitlines()[0]
    assert line.startswith("value: ")
    return float(line.split(": ", 1)[1])


# ---------------------------------------------------------------------------
# the main tasks


def test_prob_text(capsys):
    code, out, err = run(capsys, "prob", COLORS)
    assert code == 0 and err == ""
    assert first_value(out) == pytest.approx(0.94, abs=1e-12)


def test_prob_json(capsys):
    code, out, _ = run(capsys, "prob", COLORS, "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["task"] == "prob"
    assert doc["value"] == pytest.approx(0.94, abs=1e-12)
    assert doc["normalized"] is True
    assert doc["assignment"] is None
    assert doc["stats"]["bool_vars"] == 3


def test_prob_query_flag(capsys, tmp_path):
    path = tmp_path / "p.lpad"
    path.write_text("a:0.3.\nb:0.5 :- a.\n")
    code, out, _ = run(capsys, "prob", str(path), "--query", "b")
    assert code == 0
    assert first_value(out) == pytest.approx(0.15, abs=1e-12)


@pytest.mark.parametrize("command", [["prob"], ["oracle", "prob"]])
def test_prob_warns_of_unanswered_query_directives(capsys, tmp_path, command):
    path = tmp_path / "p.lpad"
    path.write_text("a:0.3.\nb:0.6 :- a.\nc:0.5.\nquery(a).\nquery(b).\nquery(c).\n")
    code, out, err = run(capsys, *command, str(path))
    assert code == 0 and out == "value: 0.3\n"
    assert err == ("warning: only the first query directive is answered, not "
                   "query(b), query(c); pass --query to ask for another\n")
    # --query picks the atom, so no directive goes unanswered
    code, out, err = run(capsys, *command, str(path), "--query", "b")
    assert code == 0 and first_value(out) == pytest.approx(0.18, abs=1e-12)
    assert err == ""


def test_prob_needs_some_query(capsys, tmp_path):
    path = tmp_path / "p.lpad"
    path.write_text("a:0.3.\n")
    code, _, err = run(capsys, "prob", str(path))
    assert code == 1
    assert "no query" in err


def test_prob_evidence_flag(capsys):
    code, out, _ = run(capsys, "prob", COLORS, "--query", "pick(b1)",
                       "--evidence", "ev")
    assert code == 0
    # P(pick | not blue) = (0.6 - 0.6*0.1) / 0.94
    assert first_value(out) == pytest.approx(0.54 / 0.94, abs=1e-12)


def test_mpe_text(capsys):
    code, out, _ = run(capsys, "mpe", COLORS_MPE)
    assert code == 0
    lines = out.splitlines()
    assert float(lines[0].split(": ")[1]) == pytest.approx(0.36, abs=1e-12)
    assert lines[1].startswith("rule(0, red(b1),")
    assert lines[2].startswith("rule(1, pick(b1),")


def test_mpe_normalize(capsys):
    _, joint, _ = run(capsys, "mpe", COLORS_MPE)
    code, norm, _ = run(capsys, "mpe", COLORS_MPE, "--normalize")
    assert code == 0
    assert first_value(norm) == pytest.approx(first_value(joint) / 0.94, abs=1e-12)


def test_map_text(capsys):
    code, out, _ = run(capsys, "map", COLORS_MAP)
    assert code == 0
    lines = out.splitlines()
    assert float(lines[0].split(": ")[1]) == pytest.approx(0.54, abs=1e-12)
    assert lines[1].startswith("rule(1, pick(b1),")
    assert len(lines) == 2


def test_diagnosis_mpe(capsys):
    code, out, _ = run(capsys, "mpe", DIAGNOSIS)
    assert code == 0
    assert first_value(out) == pytest.approx(0.05 * 0.95 * 0.999 * 0.9999, abs=1e-12)
    assert "rule(0, disease," in out


def test_stats_flag(capsys):
    code, out, _ = run(capsys, "prob", COLORS, "--stats")
    assert code == 0
    assert "stat bool_vars: 3" in out
    assert "stat kernel" not in out


def test_stats_of_a_tied_mpe_print_the_first_pick_and_no_tie_count(capsys):
    # the diagnosis MPE has two maximisers, disease alone and malfunction
    # alone; the max-product pass picks the first in index order itself
    code, out, _ = run(capsys, "mpe", DIAGNOSIS, "--stats")
    assert code == 0
    assert out.splitlines()[1:5] == [
        "rule(0, disease, [disease:0.05, '':0.95], true)",
        "rule(1, '', [malfunction:0.05, '':0.95], true)",
        "rule(3, positive, [positive:0.999, '':0.0010000000000000009], disease)",
        "rule(4, '', [positive:0.0001, '':0.9999], (\\+malfunction,\\+disease))",
    ]
    assert "stat bool_vars: 4" in out
    assert "tie_groups" not in out
    code, out, _ = run(capsys, "mpe", DIAGNOSIS, "--json")
    assert code == 0
    assert "tie_groups" not in json.loads(out)["stats"]


def test_dump_ground_goes_to_stderr(capsys):
    code, out, err = run(capsys, "prob", COLORS, "--dump-ground")
    assert code == 0
    assert "pick(b1)" in err
    assert "pick(b1)" not in out


GRAPH = (
    "map_query edge(0,1):0.6.\nedge(1,2):0.7.\nedge(2,3):0.8.\n"
    "path(X,Y) :- edge(X,Y).\npath(X,Y) :- path(X,Z), edge(Z,Y).\n"
    "evidence(path(1,3)).\n"
)


def test_max_tasks_ground_the_evidence_cone(capsys, tmp_path, monkeypatch):
    # like the Python API, mpe, map and dot --task mpe|map ground what the
    # evidence and every probabilistic clause depend on; ground shows all
    import lpadc.cli

    src = tmp_path / "graph.lpad"
    src.write_text(GRAPH)
    code, out, _ = run(capsys, "ground", str(src))
    assert code == 0 and "path(0,3)" in out
    for task, value in (("mpe", 0.6 * 0.7 * 0.8), ("map", 0.6 * 0.7 * 0.8)):
        code, out, err = run(capsys, task, str(src), "--dump-ground", "--stats")
        assert code == 0
        assert first_value(out) == pytest.approx(value, abs=1e-12)
        assert "edge(0,1):0.6" in err and "path(1,3)" in err
        assert "path(0," not in err
        assert "stat ground_atoms: 5" in out  # of 9 in the whole program
    grounded = []
    real_ground = lpadc.cli.ground

    def recording(*args, **kwargs):
        grounded.append(real_ground(*args, **kwargs))
        return grounded[-1]

    monkeypatch.setattr(lpadc.cli, "ground", recording)
    for task in ("mpe", "map"):
        code, out, _ = run(capsys, "dot", "--task", task, str(src))
        assert code == 0 and out.startswith("digraph")
        assert len(grounded[-1].atoms) == 5


# ---------------------------------------------------------------------------
# oracle mode


def test_oracle_prob_agrees(capsys):
    _, engine, _ = run(capsys, "prob", COLORS)
    code, brute, _ = run(capsys, "oracle", "prob", COLORS)
    assert code == 0
    assert first_value(brute) == pytest.approx(first_value(engine), abs=1e-12)


def test_oracle_mpe_agrees(capsys):
    _, engine, _ = run(capsys, "mpe", COLORS_MPE)
    code, brute, _ = run(capsys, "oracle", "mpe", COLORS_MPE)
    assert code == 0
    assert brute == engine


def test_oracle_map_agrees(capsys):
    _, engine, _ = run(capsys, "map", COLORS_MAP)
    code, brute, _ = run(capsys, "oracle", "map", COLORS_MAP)
    assert code == 0
    # summation order differs, so the values agree to round-off only
    assert first_value(brute) == pytest.approx(first_value(engine), abs=1e-12)
    assert brute.splitlines()[1:] == engine.splitlines()[1:]


def test_oracle_reports_the_engines_pick_among_ties(capsys):
    # the diagnosis MPE has two maximisers; both report disease
    _, engine, _ = run(capsys, "mpe", DIAGNOSIS)
    code, brute, _ = run(capsys, "oracle", "mpe", DIAGNOSIS)
    assert code == 0
    assert first_value(brute) == pytest.approx(first_value(engine), abs=1e-12)
    assert brute.splitlines()[1:] == engine.splitlines()[1:]
    assert "rule(0, disease," in brute


def test_oracle_json(capsys):
    code, out, _ = run(capsys, "oracle", "mpe", COLORS_MPE, "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["task"] == "mpe"
    assert doc["value"] == pytest.approx(0.36, abs=1e-12)
    assert [r["head"] for r in doc["assignment"]] == ["red(b1)", "pick(b1)"]


# ---------------------------------------------------------------------------
# ground and dot


def test_ground_output(capsys):
    code, out, err = run(capsys, "ground", COLORS)
    assert code == 0 and err == ""
    assert "red(b1):0.6" in out
    assert "pick(b1)" in out


def test_dot_to_file(capsys, tmp_path):
    target = tmp_path / "q.dot"
    code, out, _ = run(capsys, "dot", COLORS, "-o", str(target))
    assert code == 0 and out == ""
    text = target.read_text()
    assert text.startswith("digraph") and "->" in text


def test_dot_to_stdout(capsys):
    code, out, _ = run(capsys, "dot", COLORS)
    assert code == 0
    assert out.startswith("digraph")


def test_prob_dot_side_output(capsys, tmp_path):
    target = tmp_path / "q.dot"
    code, _, _ = run(capsys, "prob", COLORS, "--dot", str(target))
    assert code == 0
    assert target.read_text().startswith("digraph")


def test_prob_dot_draws_the_query_and_evidence_diagram(capsys, tmp_path):
    # dot --task prob and prob --dot draw the diagram whose size bdd_nodes
    # reports: the query's without evidence, the query and evidence's with it
    query = ("--query", "pick(b1)")
    texts = {}
    for evidence in ((), ("--evidence", "blue(b1)")):
        drawn, side = tmp_path / "drawn.dot", tmp_path / "side.dot"
        code, _, _ = run(capsys, "dot", COLORS, *query, *evidence, "-o", str(drawn))
        assert code == 0
        code, out, _ = run(capsys, "prob", COLORS, *query, *evidence,
                           "--dot", str(side), "--stats")
        assert code == 0
        assert drawn.read_text() == side.read_text()
        texts[evidence] = drawn.read_text()
        nodes = int(out.split("stat bdd_nodes: ")[1].split()[0])
        assert texts[evidence].count("[label=\"x") == nodes
    assert texts[()] != texts[("--evidence", "blue(b1)")]


# ---------------------------------------------------------------------------
# failure modes and exit codes


def test_parse_error_is_exit_1(capsys, tmp_path):
    path = tmp_path / "bad.lpad"
    path.write_text("a:0.5\n")  # missing period
    code, _, err = run(capsys, "prob", str(path), "--query", "a")
    assert code == 1
    assert err.startswith("error:")


def test_missing_file_is_exit_1(capsys):
    code, _, err = run(capsys, "prob", "no_such_file.lpad")
    assert code == 1
    assert err.startswith("error:")


def test_impossible_evidence_is_exit_1(capsys):
    for argv in (("prob", COLORS, "--query", "ev",
                  "--evidence", "blue(b1)", "--evidence", r"\+pick(b1)"),
                 ("oracle", "prob", COLORS, "--evidence", "nosuch"),
                 ("oracle", "mpe", COLORS_MPE, "--evidence", "nosuch"),
                 ("oracle", "map", COLORS_MAP, "--evidence", "nosuch")):
        code, _, err = run(capsys, *argv)
        assert code == 1, argv
        assert "error: evidence has probability zero" in err, argv


def test_map_without_query_clauses_has_one_message(capsys, tmp_path):
    path = tmp_path / "p.lpad"
    path.write_text("a:0.5.\nevidence(a).\n")
    errs = set()
    for argv in (("map", str(path)), ("oracle", "map", str(path))):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, ""), argv
        errs.add(err)
    assert errs == {"error: map needs at least one query choice variable "
                    "(a map_query clause)\n"}


def test_unsafe_variable_gets_the_validator_diagnostic(capsys, tmp_path):
    path = tmp_path / "unsafe.lpad"
    path.write_text("p(X):0.5 :- q(Y).\nq(a).\n")
    for argv in (("prob", str(path), "--query", "q(a)"), ("mpe", str(path)),
                 ("ground", str(path))):
        code, _, err = run(capsys, *argv)
        assert code == 1, argv
        assert "unsafe variables X" in err and "unbound" not in err, argv
    # extra --evidence literals go through the same validator
    for argv in (("prob", COLORS, "--evidence", "pick(X)"),
                 ("oracle", "prob", COLORS, "--evidence", "pick(X)"),
                 ("dot", COLORS, "--evidence", "pick(X)")):
        code, _, err = run(capsys, *argv)
        assert code == 1, argv
        assert "evidence literal pick(X) is not ground" in err, argv


def test_authored_null_head_gets_the_validator_diagnostic(capsys, tmp_path):
    path = tmp_path / "null_head.lpad"
    path.write_text("b:0.3; null:0.3.\nevidence(b).\n")
    code, out, err = run(capsys, "mpe", str(path))
    assert (code, out) == (1, "")
    assert "clause 0: the null atom may not be a head" in err


def test_node_cap_is_exit_2(capsys, tmp_path):
    path = tmp_path / "wide.lpad"
    # graph 20 fits in 16 nodes under the post-order; graph 40 does not
    path.write_text(format_program(gen_graph(40, seed=0)))
    code, _, err = run(capsys, "prob", str(path), "--node-cap", "16")
    assert code == 2
    assert err.startswith("error:")


def test_timeout_is_exit_2(capsys, tmp_path):
    path = tmp_path / "big.lpad"
    # reachability over the 900 edges of a complete graph: its diagram is
    # far too large for 0.2 s however little of the program is grounded
    path.write_text(
        "".join("n(%d).\n" % i for i in range(30))
        + "e(X, Y):0.5 :- n(X), n(Y).\n"
        "path(X, Y) :- e(X, Y).\n"
        "path(X, Y) :- path(X, Z), e(Z, Y).\n"
    )
    code, _, err = run(capsys, "prob", str(path), "--query", "path(0, 29)",
                       "--timeout", "0.2")
    assert code == 2
    assert "timed out" in err


def test_timeout_survives_a_lost_alarm(capsys, monkeypatch):
    # an alarm that lands in a finalizer is dropped, as if caught here
    import time

    from lpadc import cli

    def busy(args):
        deadline = time.monotonic() + 5.0
        try:
            while time.monotonic() < deadline:
                pass
        except Exception:
            pass
        while time.monotonic() < deadline:
            pass
        return 0

    monkeypatch.setitem(cli._COMMANDS, "prob", busy)
    start = time.monotonic()
    code, _, err = run(capsys, "prob", COLORS, "--timeout", "0.1")
    assert code == 2 and "timed out" in err
    assert time.monotonic() - start < 1.0


BENCH = ("bench", "--family", "gh", "--size", "2", "--task", "prob")


@pytest.mark.parametrize("argv", [
    ("prob", COLORS, "--timeout", "-1"),
    ("prob", COLORS, "--timeout", "nan"),
    ("prob", COLORS, "--timeout", "0"),
    ("prob", COLORS, "--node-cap", "-5"),
    ("mpe", COLORS_MPE, "--timeout", "inf"),
    ("oracle", "prob", COLORS, "--timeout", "0"),
    ("ground", COLORS, "--timeout", "-1"),
    ("dot", COLORS, "--node-cap", "0"),
    BENCH + ("--timeout", "-1"),
    BENCH + ("--node-cap", "-5"),
])
def test_unusable_limits_are_exit_1(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: --") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ("ground", COLORS, "--json"),
    ("ground", COLORS, "--evidence", "ev"),
    ("oracle", "prob", COLORS, "--node-cap", "5"),
    ("oracle", "prob", COLORS, "--stats"),
    ("dot", COLORS, "--json"),
    ("dot", COLORS, "--dump-ground"),
    ("oracle", "mpe", COLORS, "--normalize"),
])
def test_flags_a_subcommand_ignores_are_rejected(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 1
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("mpe",),
    ("solve", COLORS),
    ("prob", COLORS, "--node-cap", "many"),
])
def test_usage_errors_exit_1_not_the_limit_code(capsys, argv):
    # 2 is the code of a timeout or the node cap
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 1
    assert "error: " in capsys.readouterr().err


# ---------------------------------------------------------------------------
# bench front end


def test_bench_stdout_csv(capsys):
    code, out, err = run(capsys, "bench", "--family", "gh", "--size", "2",
                         "--task", "prob")
    assert code == 0 and err == ""
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 1
    assert rows[0]["status"] == "ok"
    assert rows[0]["family"] == "gh"


def test_bench_to_file_with_map(capsys, tmp_path):
    target = tmp_path / "rows.csv"
    code, out, _ = run(capsys, "bench", "--family", "gh", "--size", "2",
                       "--task", "prob", "--task", "map",
                       "--fraction", "0.5", "--seeds", "2",
                       "--out", str(target))
    assert code == 0 and out == ""
    with target.open() as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 4  # 2 seeds x (prob + map)
    assert {r["task"] for r in rows} == {"prob", "map"}
    assert all(r["status"] == "ok" for r in rows)


@pytest.mark.parametrize("fraction", ["-2", "0", "5", "nan"])
def test_bench_map_fraction_outside_unit_interval_is_exit_1(capsys, fraction):
    code, out, err = run(capsys, "bench", "--family", "gh", "--size", "2",
                         "--task", "prob", "--task", "map",
                         "--fraction", fraction)
    assert code == 1 and out == ""
    assert "map_fraction" in err


@pytest.mark.parametrize("flags,named", [
    (("--task", "prob", "--fraction", "0.5"), "--fraction"),
    (("--task", "prob", "--task", "mpe", "--fraction", "0.5"), "--fraction"),
    (("--task", "prob", "--seeds", "0"), "--seeds"),
    (("--task", "map", "--fraction", "0.5", "--seeds", "-1"), "--seeds"),
])
def test_bench_rejects_flags_it_would_ignore(capsys, flags, named):
    code, out, err = run(capsys, "bench", "--family", "gh", "--size", "2", *flags)
    assert code == 1 and out == ""
    assert named in err


def test_bench_map_requires_fraction(capsys):
    code, _, err = run(capsys, "bench", "--family", "gh", "--size", "2",
                       "--task", "map")
    assert code == 1
    assert "--fraction" in err


# ---------------------------------------------------------------------------
# determinism


def test_prob_json_is_deterministic(capsys):
    docs = []
    for _ in range(2):
        _, out, _ = run(capsys, "prob", COLORS, "--json")
        doc = json.loads(out)
        doc["stats"]["wall_time_s"] = None
        docs.append(doc)
    assert docs[0] == docs[1]


def test_mpe_json_is_deterministic(capsys):
    docs = []
    for _ in range(2):
        _, out, _ = run(capsys, "mpe", DIAGNOSIS, "--json")
        doc = json.loads(out)
        doc["stats"]["wall_time_s"] = None
        docs.append(doc)
    assert docs[0] == docs[1]


def test_ground_is_byte_identical(capsys):
    _, a, _ = run(capsys, "ground", COLORS)
    _, b, _ = run(capsys, "ground", COLORS)
    assert a == b


def test_dot_is_byte_identical(capsys):
    _, a, _ = run(capsys, "dot", COLORS)
    _, b, _ = run(capsys, "dot", COLORS)
    assert a == b
