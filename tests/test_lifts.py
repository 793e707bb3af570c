import tracemalloc

import pytest

from gentledef.homext import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    end_is_trivial,
)
from gentledef.lifts import (
    CoeffRing,
    count_deformations,
    count_deformations_by_orbits,
    count_ring_morphisms,
    enumerate_lifts,
    fingerprint,
    tangent_dim_via_lifts,
)
from gentledef.presentation import catalog_presentation, table1_catalog
from gentledef.strings import (
    enumerate_strings,
    make_string,
    simple_module,
    string_module,
)
from gentledef.sweep import sweep_catalog


@pytest.fixture(scope="module")
def lam0():
    return catalog_presentation("qviii.1")


def _mod(p, text, q=2):
    return string_module(p, make_string(p, text), q=q)


def test_coeff_ring_validation():
    assert CoeffRing(2, 3).label() == "F_2[t]/(t^3)"
    with pytest.raises(ValueError):
        CoeffRing(4, 2)
    with pytest.raises(ValueError):
        CoeffRing(2, 0)


def test_single_lift_at_level_one(lam0):
    m = _mod(lam0, "b*c*a")
    lifts = enumerate_lifts(lam0, m, CoeffRing(2, 1))
    assert len(lifts) == 1
    assert lifts[0].validate() == []
    assert all(not c[1:].any() if c.shape[0] > 1 else True
               for c in lifts[0].coeffs.values())


def test_simple_lifts_dual_numbers(lam0):
    s1 = simple_module(lam0, "1")
    lifts = enumerate_lifts(lam0, s1, CoeffRing(2, 2))
    assert len(lifts) == 2
    values = sorted(int(l.coeffs["a"][1, 0, 0]) for l in lifts)
    assert values == [0, 1]
    for l in lifts:
        assert l.validate() == []


def test_simple_lifts_level_three_kill_linear_term(lam0):
    s1 = simple_module(lam0, "1")
    lifts = enumerate_lifts(lam0, s1, CoeffRing(2, 3))
    assert len(lifts) == 2
    for l in lifts:
        assert l.coeffs["a"][1, 0, 0] == 0
        assert l.validate() == []


def test_lift_validate_flags_broken_relation(lam0):
    s1 = simple_module(lam0, "1")
    lift = enumerate_lifts(lam0, s1, CoeffRing(2, 3))[0]
    lift.coeffs["a"][1, 0, 0] = 1
    assert any("relation" in msg for msg in lift.validate())


def test_truncation_stays_enumerated(lam0):
    m = _mod(lam0, "c")
    level3 = enumerate_lifts(lam0, m, CoeffRing(2, 3))
    assert len(level3) == 16
    level2 = enumerate_lifts(lam0, m, CoeffRing(2, 2))
    keys = {tuple(int(x) for l in sorted(l2.coeffs) for x in
                  l2.coeffs[l].reshape(-1)) for l2 in level2}

    def truncate_key(lift):
        return tuple(int(x) for a in sorted(lift.coeffs) for x in
                     lift.coeffs[a][:2].reshape(-1))

    for lift in level3:
        assert truncate_key(lift) in keys


def test_count_deformations_simple(lam0):
    s1 = simple_module(lam0, "1")
    assert count_deformations(lam0, s1, CoeffRing(2, 2)) == 2
    assert count_deformations(lam0, s1, CoeffRing(2, 3)) == 2
    assert count_deformations_by_orbits(lam0, s1, CoeffRing(2, 3)) == 2


def test_count_deformations_needs_trivial_end(lam0):
    with pytest.raises(ValueError):
        count_deformations(lam0, _mod(lam0, "a"), CoeffRing(2, 2))


def test_count_deformations_c_both_routes(lam0):
    m = _mod(lam0, "c")
    assert count_deformations(lam0, m, CoeffRing(2, 2)) == 4
    by_orbit = count_deformations_by_orbits(lam0, m, CoeffRing(2, 3))
    by_tree = count_deformations(lam0, m, CoeffRing(2, 3))
    assert by_orbit == by_tree == 4


def test_count_deformations_ca_both_routes(lam0):
    m = _mod(lam0, "c*a")
    assert count_deformations(lam0, m, CoeffRing(2, 2)) == 2
    by_orbit = count_deformations_by_orbits(lam0, m, CoeffRing(2, 3))
    by_tree = count_deformations(lam0, m, CoeffRing(2, 3))
    assert by_orbit == by_tree == 2


def test_level2_linear_route_agrees(lam0):
    s1 = simple_module(lam0, "1")
    for m in [s1, _mod(lam0, "c"), _mod(lam0, "c*a"), _mod(lam0, "b*c*a")]:
        by_orbit = count_deformations_by_orbits(lam0, m, CoeffRing(2, 2))
        by_tree = count_deformations(lam0, m, CoeffRing(2, 2))
        assert by_orbit == by_tree


def test_count_deformations_bca(lam0):
    m = _mod(lam0, "b*c*a")
    assert count_deformations(lam0, m, CoeffRing(2, 2)) == 4
    assert count_deformations(lam0, m, CoeffRing(2, 3)) == 12


def test_bca_level3_routes_agree(lam0):
    # The obstruction tree's count is cross-checked by the full orbit
    # partition of all 196608 lifts; this is the slowest test here.
    m = _mod(lam0, "b*c*a")
    by_orbit = count_deformations_by_orbits(lam0, m, CoeffRing(2, 3),
                                            budget=2 ** 23)
    assert by_orbit == count_deformations(lam0, m, CoeffRing(2, 3)) == 12


def test_tangent_dims(lam0):
    assert tangent_dim_via_lifts(lam0, simple_module(lam0, "1"), 2) == 1
    assert tangent_dim_via_lifts(lam0, _mod(lam0, "b*c*a"), 2) == 2
    assert tangent_dim_via_lifts(lam0, _mod(lam0, "c*a"), 2) == 1
    p = catalog_presentation("qi.1")
    assert tangent_dim_via_lifts(p, simple_module(p, "1"), 2) == 0


def test_count_ring_morphisms_table():
    table = {
        "k": [1, 1, 1, 1],
        "k[[t]]/(t^2)": [1, 2, 2, 4],
        "k[[t]]/(t^3)": [1, 2, 4, 4],
        "k[[t]]": [1, 2, 4, 8],
    }
    for label, want in table.items():
        got = [count_ring_morphisms(label, CoeffRing(2, n))
               for n in range(1, 5)]
        assert got == want, label


def test_count_ring_morphisms_rejects_unknown():
    with pytest.raises(ValueError):
        count_ring_morphisms("undetermined", CoeffRing(2, 2))
    with pytest.raises(ValueError):
        count_ring_morphisms("k[x,y]/(x,y)^2", CoeffRing(2, 2))


def test_fingerprint_simple(lam0):
    fp = fingerprint(lam0, simple_module(lam0, "1"), 2, 3)
    assert fp.census == [(1, 1), (2, 2), (3, 2)]
    assert fp.matches == ["k[[t]]/(t^2)"]
    assert fp.reduction_surjective == {2: True, 3: False}
    d = fp.as_dict()
    assert d["q"] == 2
    assert d["census"] == [[1, 1], [2, 2], [3, 2]]
    assert d["matches"] == ["k[[t]]/(t^2)"]
    assert d["reduction_surjective"] == {"2": True, "3": False}


def test_fingerprint_c_matches_nothing(lam0):
    fp = fingerprint(lam0, _mod(lam0, "c"), 2, 3)
    assert fp.census == [(1, 1), (2, 4), (3, 4)]
    assert fp.matches == []


def test_fingerprint_ca(lam0):
    fp = fingerprint(lam0, _mod(lam0, "c*a"), 2, 3)
    assert fp.census == [(1, 1), (2, 2), (3, 2)]
    assert fp.matches == ["k[[t]]/(t^2)"]


def test_fingerprint_bca(lam0):
    fp = fingerprint(lam0, _mod(lam0, "b*c*a"), 2, 3)
    assert fp.census == [(1, 1), (2, 4), (3, 12)]
    assert fp.matches == []
    # 12 = 3 extendable level-2 classes times 2^2 lifts of each.
    assert fp.reduction_surjective == {2: True, 3: False}


def test_fingerprint_power_series_case():
    p = catalog_presentation("qiv.1")
    fp = fingerprint(p, simple_module(p, "1"), 2, 3)
    assert fp.census == [(1, 1), (2, 2), (3, 4)]
    assert fp.matches == ["k[[t]]"]
    assert fp.reduction_surjective == {2: True, 3: True}


def test_fingerprint_field_case():
    p = catalog_presentation("qiv.1")
    fp = fingerprint(p, simple_module(p, "2"), 2, 3)
    assert fp.census == [(1, 1), (2, 1), (3, 1)]
    assert fp.matches == ["k"]


def test_fingerprint_indistinguishable_extra_candidate():
    p = catalog_presentation("qiv.1")
    fp = fingerprint(p, simple_module(p, "1"), 2, 3,
                     extra_candidates=("k[[t]]/(t^3)",))
    assert fp.matches == ["k[[t]]", "k[[t]]/(t^3)"]


def test_budget_errors(lam0):
    s1 = simple_module(lam0, "1")
    with pytest.raises(BudgetExceededError):
        count_deformations_by_orbits(lam0, s1, CoeffRing(2, 2), budget=1)
    with pytest.raises(BudgetExceededError):
        count_deformations(lam0, s1, CoeffRing(2, 4), budget=1)
    with pytest.raises(BudgetExceededError):
        enumerate_lifts(lam0, _mod(lam0, "b*c*a"), CoeffRing(2, 2), budget=4)


def test_orbit_oracle_above_q_256(lam0):
    # Coefficients up to q - 1 = 256 must key the orbit lookup exactly.
    s1 = simple_module(lam0, "1", q=257)
    ring = CoeffRing(257, 2)
    assert count_deformations_by_orbits(lam0, s1, ring) == 257
    assert count_deformations(lam0, s1, ring) == 257


@pytest.mark.parametrize("q, max_len, levels, expected", [
    (2, 2, (2, 3), 160),
    (3, 2, (2,), 80),
    (3, 1, (3,), 60),
    (5, 1, (2,), 60),
], ids=["q2-len2-n23", "q3-len2-n2", "q3-len1-n3", "q5-len1-n2"])
def test_tree_matches_orbits_across_catalog(q, max_len, levels, expected):
    compared = 0
    for name, p in table1_catalog():
        for w in enumerate_strings(p, max_len):
            V = string_module(p, w, q=q)
            if not end_is_trivial(V):
                continue
            for n in levels:
                ring = CoeffRing(q, n)
                assert count_deformations(p, V, ring) == \
                    count_deformations_by_orbits(p, V, ring), \
                    f"{name} {w.display()} q={q} n={n}"
                compared += 1
    assert compared == expected


def test_deep_sweep_census_confirms_certified_rings():
    report = sweep_catalog(q=2, max_len=3, n_max=6)
    certified = [r for r in report.rows if r.ring != "undetermined"]
    assert len(report.rows) == 86
    assert len(certified) == 77
    for row in certified:
        assert row.error is None
        assert row.ring in row.matches, f"{row.algebra} {row.word}"


def test_deep_fingerprint_fails_loudly_within_budget(lam0):
    m = _mod(lam0, "b*c*a")
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError):
            fingerprint(lam0, m, 2, 20)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8 * DEFAULT_BUDGET
