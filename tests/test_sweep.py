import json
from pathlib import Path

import pytest

from gentledef.presentation import LAMBDA0
from gentledef.sweep import sweep_catalog

# json.dumps(sweep_catalog(**kwargs).as_dict()) plus a newline.  A speedup
# counts only if the sweep stays byte-identical to these; a change that
# alters rows on purpose rewrites them and says which rows moved and why.
GOLDEN = [("sweep_q2_len6_n3.json", dict(q=2, max_len=6, n_max=3)),
          ("sweep_q3_len3_n4.json", dict(q=3, max_len=3, n_max=4))]


@pytest.fixture(scope="module")
def lam0_report():
    return sweep_catalog(max_len=3, names=[LAMBDA0])


def test_worked_example_has_ten_rows(lam0_report):
    assert len(lam0_report.rows) == 10
    words = [row.word for row in lam0_report.rows]
    assert words == ["simple 1", "simple 2", "c", "d", "c*a", "d*b",
                     "b*c", "a*d", "b*c*a", "a*d*b"]


def test_every_row_reports_both_ext_engines(lam0_report):
    for row in lam0_report.rows:
        assert row.ext_brute == row.ext_linear
        assert row.tangent_dim == row.ext_linear
    assert lam0_report.internal_errors == []


def test_rigid_string_rows_land_in_the_ledger(lam0_report):
    ledger = lam0_report.ledger
    by_word = {item["word"]: item for item in ledger}
    for word in ("c", "d", "c*a", "a*d", "d*b", "b*c"):
        assert by_word[word]["published"] == "k"
        assert by_word[word]["computed"] != "k"
    for word in ("b*c*a", "a*d*b"):
        assert by_word[word]["published"] == "k[[t]]"
        assert "census" in by_word[word]["computed"]


def test_undetermined_rows_carry_their_census(lam0_report):
    for row in lam0_report.rows:
        if row.ring == "undetermined" and row.error is None:
            assert row.census
            assert row.census[0] == [1, 1]


def test_summary_counts(lam0_report):
    summary = lam0_report.summary
    assert summary["rows"] == 10
    assert summary["rings"]["k[[t]]/(t^2)"] == 6
    assert summary["rings"]["undetermined"] == 4
    assert summary["disagreements"] == 8
    assert summary["internal_errors"] == 0


def test_empty_filter_gives_empty_report():
    report = sweep_catalog(max_len=3, names=[])
    assert report.rows == []
    assert report.summary["rows"] == 0
    assert report.ledger == []


def test_unknown_algebra_is_rejected():
    with pytest.raises(ValueError):
        sweep_catalog(max_len=2, names=["nope.7"])


def test_rows_only_list_trivial_end_modules():
    report = sweep_catalog(max_len=1, names=[LAMBDA0])
    words = [row.word for row in report.rows]
    assert words == ["simple 1", "simple 2", "c", "d"]


def test_report_round_trips_to_plain_data(lam0_report):
    d = lam0_report.as_dict()
    assert d["q"] == 2
    assert d["max_len"] == 3
    assert len(d["rows"]) == 10
    assert d["summary"]["disagreements"] == 8
    assert len(d["ledger"]) == 8
    assert all(set(item) == {"algebra", "word", "computed", "published"}
               for item in d["ledger"])


def test_other_catalog_algebras_report_trichotomy_agreement():
    report = sweep_catalog(max_len=2, names=["qiv.1"])
    assert report.rows
    for row in report.rows:
        assert row.published is None
        if row.ring != "undetermined":
            assert row.agreement == "agrees"


def test_sweeps_match_golden_json():
    """C5 and the q = 3 sweep, row for row and then byte for byte."""
    for filename, kwargs in GOLDEN:
        golden = (Path(__file__).parent / "data" / filename).read_text()
        text = json.dumps(sweep_catalog(**kwargs).as_dict()) + "\n"
        want, got = json.loads(golden), json.loads(text)
        assert len(got["rows"]) == len(want["rows"]), filename
        for old, new in zip(want["rows"], got["rows"]):
            assert new == old, (filename, old["algebra"], old["word"])
        assert text == golden, filename
