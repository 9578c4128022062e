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
    assert "stat kernel: " in out
    assert "stat bool_vars: 3" in out


def test_dump_ground_goes_to_stderr(capsys):
    code, out, err = run(capsys, "prob", COLORS, "--dump-ground")
    assert code == 0
    assert "pick(b1)" in err
    assert "pick(b1)" not in out


def test_kernel_flag_matches_default(capsys):
    from lpadc.bdd import available_kernels

    values = []
    for kernel in available_kernels():
        code, out, _ = run(capsys, "prob", COLORS, "--kernel", kernel)
        assert code == 0
        values.append(first_value(out))
    assert len(set(values)) == 1


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
    code, _, err = run(capsys, "prob", COLORS, "--query", "ev",
                       "--evidence", "blue(b1)", "--evidence", r"\+pick(b1)")
    assert code == 1
    assert "probability zero" in err


def test_unsafe_variable_gets_the_validator_diagnostic(capsys, tmp_path):
    path = tmp_path / "unsafe.lpad"
    path.write_text("p(X):0.5 :- q(Y).\nq(a).\n")
    for argv in (("prob", str(path), "--query", "q(a)"), ("mpe", str(path)),
                 ("ground", str(path))):
        code, _, err = run(capsys, *argv)
        assert code == 1, argv
        assert "unsafe variables X" in err and "unbound" not in err, argv


def test_node_cap_is_exit_2(capsys, tmp_path):
    path = tmp_path / "wide.lpad"
    path.write_text(format_program(gen_graph(20, seed=0)))
    code, _, err = run(capsys, "prob", str(path), "--node-cap", "16")
    assert code == 2
    assert err.startswith("error:")


def test_timeout_is_exit_2(capsys, tmp_path):
    path = tmp_path / "big.lpad"
    path.write_text(format_program(gen_graph(400, seed=0)))
    code, _, err = run(capsys, "prob", str(path), "--timeout", "0.2")
    assert code == 2
    assert "timed out" in err


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
    rows = list(csv.DictReader(target.open()))
    assert len(rows) == 4  # 2 seeds x (prob + map)
    assert {r["task"] for r in rows} == {"prob", "map"}
    assert all(r["status"] == "ok" for r in rows)


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
