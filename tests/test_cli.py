import json
import tracemalloc

import pytest

from gentledef.cli import main

LAM0_DSL = """\
vertices: 1 2
arrows: a: 1 -> 1 ; c: 1 -> 2 ; d: 2 -> 1 ; b: 2 -> 2
relations: a*a ; b*b ; d*c ; c*d
"""


def _run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_validate_catalog_passes(capsys):
    code, out = _run_json(capsys, ["validate", "--catalog", "qviii.1"])
    assert code == 0
    assert out["ok"] is True
    assert out["violations"] == []


def test_validate_reads_dsl_file(tmp_path, capsys):
    path = tmp_path / "lam0.txt"
    path.write_text(LAM0_DSL)
    code, out = _run_json(capsys, ["validate", str(path)])
    assert code == 0
    assert out["ok"] is True


def test_validate_flags_non_gentle_input(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("vertices: 1 2\n"
                    "arrows: a: 1 -> 1 ; c: 1 -> 2 ; d: 2 -> 1 ; "
                    "b: 2 -> 2\n"
                    "relations:\n")
    code, out = _run_json(capsys, ["validate", str(path)])
    assert code == 1
    assert out["ok"] is False
    assert out["violations"]


def test_parse_error_exits_with_usage_code(tmp_path, capsys):
    path = tmp_path / "broken.txt"
    path.write_text("vertices: 1 2\narrows: a: 1 ->\n")
    code = main(["validate", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "error:" in err
    assert "line 2" in err


NON_COMPOSABLE = ("vertices: 1 2\n"
                  "arrows: a: 1 -> 1 ; c: 1 -> 2 ; d: 2 -> 1 ; b: 2 -> 2\n"
                  "relations: a*a ; b*b ; d*c ; c*d ; c*b\n")
NOT_COMPOSABLE = "relation c*b: not composable (source(c) != target(b))"


@pytest.mark.parametrize("fmt", ["json", "md"])
def test_validation_of_a_non_composable_relation_exits_with_usage_code(
        tmp_path, capsys, fmt):
    path = tmp_path / "noncomp.txt"
    path.write_text(NON_COMPOSABLE)
    code = main(["validate", str(path), "--format", fmt])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {NOT_COMPOSABLE}\n"


def test_requires_exactly_one_source(capsys):
    code = main(["validate"])
    assert code == 2
    code = main(["validate", "somefile", "--catalog", "qviii.1"])
    assert code == 2


def test_udr_simple_module(capsys):
    code, out = _run_json(capsys, ["udr", "--catalog", "qviii.1",
                                   "simple 1"])
    assert code == 0
    assert out["ring"] == "k[[t]]/(t^2)"
    assert out["tangent_dim"] == 1
    assert out["paper_agreement"] == "agrees"
    assert out["evidence"]["census"]["census"] == [[1, 1], [2, 2], [3, 2]]


def test_udr_disagreement_still_exits_zero(capsys):
    code, out = _run_json(capsys, ["udr", "--catalog", "qviii.1", "c*a"])
    assert code == 0
    assert out["paper_agreement"] == "disagrees"


def test_udr_word_error(capsys):
    code = main(["udr", "--catalog", "qviii.1", "c*~c"])
    err = capsys.readouterr().err
    assert code == 2
    assert "error:" in err


def test_udr_nontrivial_end_is_rejected(capsys):
    code = main(["udr", "--catalog", "qviii.1", "a"])
    err = capsys.readouterr().err
    assert code == 2
    assert "End(V) != k" in err


def test_hom_and_ext_pair_commands(capsys):
    code, out = _run_json(capsys, ["hom", "--catalog", "qviii.1",
                                   "a", "simple 1"])
    assert code == 0
    assert out["hom_dim"] == 1
    code, out = _run_json(capsys, ["ext", "--catalog", "qviii.1",
                                   "a", "simple 1"])
    assert code == 0
    assert out["ext1_dim"] == 0


def test_tangent_with_oracle_check(capsys):
    code, out = _run_json(capsys, ["tangent", "--catalog", "qviii.1",
                                   "b*c*a", "--check"])
    assert code == 0
    assert out["tangent_dim"] == 2
    assert out["tangent_dim_brute"] == 2


def test_census_command(capsys):
    code, out = _run_json(capsys, ["census", "--catalog", "qviii.1", "c"])
    assert code == 0
    assert out["census"] == [[1, 1], [2, 4], [3, 4]]
    assert out["matches"] == []


def test_radical_command(capsys):
    code, out = _run_json(capsys, ["radical", "--catalog", "qviii.1",
                                   "1", "8"])
    assert code == 0
    arms = {arm["first_arrow"]: arm["targets"] for arm in out["arms"]}
    assert arms["c"] == ["S2", "S2", "S1", "S1", "S2", "S2", "S1", "S1"]
    assert arms["a"] == ["S1", "S2", "S2", "S1", "S1", "S2", "S2", "S1"]
    assert out["layers"][0] == ["S1"]
    assert out["layers"][1] == ["S1", "S2"]
    assert out["layers"][2] == ["S2", "S2"]


def test_sweep_subset_json(capsys):
    code, out = _run_json(capsys, ["sweep", "--only", "qviii.1",
                                   "--max-len", "3"])
    assert code == 0
    assert out["summary"]["rows"] == 10
    assert out["summary"]["disagreements"] == 8
    assert len(out["ledger"]) == 8


def test_sweep_markdown_renders_tables(capsys):
    code = main(["sweep", "--only", "qviii.1", "--max-len", "2",
                 "--format", "md"])
    out = capsys.readouterr().out
    assert code == 0
    assert "| algebra | word |" in out
    assert "## disagreement ledger" in out


def test_output_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code = main(["census", "--catalog", "qviii.1", "simple 1",
                 "--output", str(target)])
    assert code == 0
    data = json.loads(target.read_text())
    assert data["census"] == [[1, 1], [2, 2], [3, 2]]


def test_non_prime_q_is_rejected(capsys):
    code = main(["tangent", "--catalog", "qviii.1", "c", "--q", "4"])
    err = capsys.readouterr().err
    assert code == 2
    assert "prime" in err


def test_sweep_only_strips_spaces_around_names(capsys):
    code, out = _run_json(capsys, ["sweep", "--only", "qi.1, qvi.1",
                                   "--max-len", "1"])
    assert code == 0
    assert {row["algebra"] for row in out["rows"]} == {"qi.1", "qvi.1"}


def test_sweep_only_quotes_an_empty_name(capsys):
    code = main(["sweep", "--only", ",qi.1", "--max-len", "1"])
    err = capsys.readouterr().err
    assert code == 2
    assert "unknown catalog algebras: ''" in err


def test_sweep_only_an_empty_list_is_an_empty_name(capsys):
    code = main(["sweep", "--only", "", "--max-len", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert "unknown catalog algebras: ''" in captured.err
    assert captured.out == ""


def test_unknown_catalog_name_exits_with_usage_code(capsys):
    code = main(["udr", "--catalog", "nope", "a"])
    err = capsys.readouterr().err
    assert code == 2
    assert "error: no catalog entry named 'nope'" in err


@pytest.mark.parametrize("argv, head", [
    (["validate", "--catalog", "qviii.1"],
     ["# validation of qviii.1", "ok: True"]),
    (["udr", "--catalog", "qviii.1", "c*a"],
     ["# universal deformation ring over qviii.1", "word: c*a",
      "ring: k[[t]]/(t^2)", "tangent dim: 1",
      "census: 1 -> 1, 2 -> 2, 3 -> 2 (matches: k[[t]]/(t^2))",
      "published agreement: disagrees"]),
    (["hom", "--catalog", "qviii.1", "a", "simple 1"],
     ["hom(a, simple 1) = 1"]),
    (["ext", "--catalog", "qviii.1", "a", "simple 1"],
     ["ext1(a, simple 1) = 0"]),
    (["tangent", "--catalog", "qviii.1", "b*c*a", "--check"],
     ["tangent dim of b*c*a = 2 (oracle 2)"]),
    (["tangent", "--catalog", "qviii.1", "c"],
     ["tangent dim of c = 2"]),
    (["census", "--catalog", "qviii.1", "b*c*a"],
     ["census of b*c*a: 1 -> 1, 2 -> 4, 3 -> 12 (matches: none)"]),
    (["radical", "--catalog", "qvi.3", "2", "4"],
     ["# radical series of the projective at 2", "rad^0: S2", "rad^1: S1",
      "rad^2: S2", "rad^3: (zero)", "rad^4: (zero)", "arm via c: S1 S2"]),
])
def test_markdown_reports(capsys, argv, head):
    code = main(argv + ["--format", "md"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines() == head


@pytest.mark.parametrize("argv", [
    ["validate"], ["udr", "b"], ["ext", "a", "b"], ["tangent", "b"],
    ["census", "b"], ["radical", "1", "2"]])
@pytest.mark.parametrize("text, message", [
    ("vertices: 1\narrows: a: 1 -> 1 ; b: 1 -> 1\nrelations: b*x\n",
     "relation b*x names an undeclared arrow"),
    (NON_COMPOSABLE, NOT_COMPOSABLE)])
def test_rejected_relation_exits_with_usage_code(tmp_path, capsys, argv,
                                                 text, message):
    path = tmp_path / "rejected.txt"
    path.write_text(text)
    code = main(argv[:1] + [str(path)] + argv[1:])
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("argv", [
    ["validate"], ["udr", "b"], ["ext", "b", "b"], ["tangent", "b"],
    ["census", "b"], ["radical", "1", "2"]])
@pytest.mark.parametrize("arrows, name", [
    ("~a: 1 -> 2 ; b: 2 -> 1\nrelations: b*~a", "~a"),
    ("a*c: 1 -> 2 ; b: 2 -> 1", "a*c")])
def test_arrow_name_a_word_cannot_spell_exits_with_usage_code(
        tmp_path, capsys, argv, arrows, name):
    path = tmp_path / "unspellable.txt"
    path.write_text(f"vertices: 1 2\narrows: {arrows}\n")
    code = main(argv[:1] + [str(path)] + argv[1:])
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"error: arrow name {name!r} cannot be spelled in a word\n"


def test_tangent_of_an_arrow_named_like_a_simple_exits_with_usage_code(
        tmp_path, capsys):
    # Else the word "simple x" would name the simple at vertex x.
    path = tmp_path / "simple_x.txt"
    path.write_text("vertices: 1 x\narrows: simple x: 1 -> x\n")
    code = main(["tangent", str(path), "simple x"])
    err = capsys.readouterr().err
    assert code == 2
    assert err == "error: arrow name 'simple x' cannot be spelled in a word\n"


def test_tangent_of_a_word_that_begins_with_simple(tmp_path, capsys):
    path = tmp_path / "simplex.txt"
    path.write_text("vertices: 1 2\narrows: simplex: 1 -> 2\n")
    code, out = _run_json(capsys, ["tangent", str(path), "simplex"])
    assert code == 0
    assert out["tangent_dim"] == 0


def test_radical_rejects_two_free_loops_without_growing(tmp_path, capsys):
    # Without relations both loops continue every path, so the number
    # of nonzero paths doubles per level; the arm walk stops at once.
    path = tmp_path / "free.txt"
    path.write_text("vertices: 1\narrows: a: 1 -> 1 ; b: 1 -> 1\n")
    tracemalloc.start()
    try:
        code = main(["radical", str(path), "1", "20"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert code == 2
    assert "ambiguous continuation" in err
    assert peak < 2**20
