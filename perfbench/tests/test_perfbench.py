"""Self-tests of the benchmark harness (not of gentledef itself).

    python3 -m pytest perfbench/tests -q
"""

import copy
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import gentledef  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from workloads import (  # noqa: E402
    PairsWorkload,
    ReferenceMismatch,
    WORKLOADS,
    SweepWorkload,
    load_reference,
)


def _bindings():
    """Every function-like attribute of every gentledef module and class."""
    out = {}
    for key, module in list(sys.modules.items()):
        if key != "gentledef" and not key.startswith("gentledef."):
            continue
        for attr, held in vars(module).items():
            out[(key, attr)] = held
            if isinstance(held, type) and held.__module__ == key:
                for name, member in vars(held).items():
                    out[(key, attr, name)] = member
    return out


@pytest.fixture(scope="module")
def pairs_ref():
    return load_reference("homext-pairs")


def test_a_seed_always_yields_the_same_pair_sample():
    first, again, other = PairsWorkload(), PairsWorkload(), PairsWorkload()
    first.setup(11)
    again.setup(11)
    other.setup(12)
    for _ in range(3):
        assert first.sample(3000) == again.sample(3000)
    assert first.sample(500) != other.sample(500)


def test_the_pair_stream_uses_the_whole_pool_before_repeating():
    wl = PairsWorkload()
    wl.setup(5)
    picks = wl.sample(len(wl.pairs.pool))
    assert sorted(picks) == sorted(wl.pairs.pool)


def test_reference_check_rejects_a_perturbed_sweep_row():
    ref = load_reference("sweep-q2-len3")
    wl = WORKLOADS["sweep-q2-len3"]()
    out = {"report": copy.deepcopy(ref["report"])}
    wl.check_pass(ref, out)
    row = next(r for r in out["report"]["rows"] if r["word"] == "b*c*a")
    row["census"][2][1] = 4
    with pytest.raises(ReferenceMismatch, match="b\\*c\\*a"):
        wl.check_pass(ref, out)
    out = {"report": copy.deepcopy(ref["report"])}
    out["report"]["ledger"].pop()
    with pytest.raises(ReferenceMismatch, match="ledger"):
        wl.check_pass(ref, out)


def test_reference_check_rejects_a_perturbed_pair(pairs_ref):
    wl = PairsWorkload()
    alg = pairs_ref["pairs"]["algebras"][12]
    n = len(alg["words"])
    picks = [(12, i, j) for i in range(3) for j in range(n)]
    outputs = [list(alg["hom_ext"][i * n + j]) for _, i, j in picks]
    wl.check_pass(pairs_ref, {"picks": picks, "outputs": outputs})
    outputs[7][1] += 1
    with pytest.raises(ReferenceMismatch):
        wl.check_pass(pairs_ref, {"picks": picks, "outputs": outputs})
    outputs[7] = None  # a pair that raised
    with pytest.raises(ReferenceMismatch):
        wl.check_pass(pairs_ref, {"picks": picks, "outputs": outputs})


def test_traced_untraced_and_single_call_sweeps_agree(pairs_ref):
    sweep = SweepWorkload("small", q=2, max_len=3)
    sweep.setup(0)
    sweep.names = ["qi.1", "qvi.2", "qviii.1"]
    pairs = PairsWorkload()
    pairs.setup(3)
    picks = pairs.sample(200)
    untraced = (sweep.run_pass()["report"],
                pairs.pairs.time(picks)["outputs"])
    tracer = spans.Tracer()
    with tracer.installed():
        traced = (sweep.run_pass()["report"],
                  pairs.pairs.time(picks)["outputs"])
    assert traced == untraced
    whole = gentledef.sweep_catalog(q=2, max_len=3, names=sweep.names)
    assert untraced[0] == json.loads(json.dumps(whole.as_dict()))
    pairs.check_pass(pairs_ref, {"picks": picks, "outputs": traced[1]})
    names = {s[spans.NAME] for s in tracer.spans}
    assert {"sweep.sweep_catalog", "lifts.fingerprint", "linalg.rref",
            "homext.hom_dim", "claims.paper_agreement"} <= names


def test_wrappers_rebind_every_import_and_restore_the_originals():
    before = _bindings()
    tracer = spans.Tracer()
    with tracer.installed():
        during = _bindings()
        for module, attr in [("gentledef.lifts", "fingerprint"),
                             ("gentledef.udr", "fingerprint"),
                             ("gentledef.linalg", "rref"),
                             ("gentledef.lifts", "rref"),
                             ("gentledef.udr", "rref"),
                             ("gentledef", "sweep_catalog")]:
            assert during[(module, attr)] is not before[(module, attr)]
            assert during[(module, attr)].__wrapped__ is before[(module, attr)]
        cls = ("gentledef.linalg", "LinearSystem", "add_equation")
        assert during[cls] is not before[cls]
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_a_pass_on_the_pairs_workload_runs_no_lifts_code():
    wl = PairsWorkload()
    wl.setup(9)
    tracer = spans.Tracer()
    with tracer.installed():
        wl.pairs.time(wl.sample(100))
    names = {s[spans.NAME] for s in tracer.spans}
    assert "homext.hom_system" in names
    assert not any(n.startswith(("lifts.", "udr.")) for n in names)


def test_self_time_subtracts_traced_children():
    def span(name, start, end, parent, error=None):
        return [name, start, end, parent, "pass", error, None, False]

    recorded = [span("lifts.fingerprint", 0.0, 10.0, -1),
                span("lifts.count_deformations", 1.0, 4.0, 0),
                span("linalg.rref", 2.0, 3.0, 1),
                span("lifts.count_deformations", 5.0, 6.0, 0,
                     "BudgetExceededError")]
    recorded[2][spans.VALUE] = 12
    m = spans.layer_metrics(recorded)
    assert m["lifts.fingerprint.s"] == 10.0
    assert m["lifts.fingerprint.self_s"] == 6.0
    assert m["lifts.count_deformations.s"] == 4.0
    assert m["lifts.count_deformations.calls"] == 2
    assert m["lifts.budget_errors"] == 1
    assert m["linalg.rref.cells"] == 12


def test_a_span_costs_time():
    assert 0 < spans.span_cost(calls=2000, repeats=2) < 1e-3


def test_printed_metrics_match_the_benchmark_definition():
    bench = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench["end_to_end"]] == list(run.E2E_UNITS)
    layer = list(spans.layer_metrics([])) + ["trace.overhead_s"]
    assert [m["name"] for m in bench["per_layer"]] == layer
    for m in bench["end_to_end"]:
        assert m["unit"] == run.E2E_UNITS[m["name"]]
    for m in bench["per_layer"]:
        assert m["unit"] == spans.layer_unit(m["name"])
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOAD_NAMES)
