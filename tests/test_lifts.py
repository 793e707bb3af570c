import tracemalloc

import numpy as np
import pytest

import oracles
from gentledef import lifts, linalg, udr
from gentledef.homext import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    _mixed_radix,
    end_is_trivial,
    ext1_dim,
    ext_system,
    hom_system,
)
from gentledef.lifts import (
    _tangent_line_reps,
    count_deformations,
    count_ring_morphisms,
    fingerprint,
)
from gentledef.presentation import catalog_presentation, table1_catalog
from gentledef.strings import (
    FinModule,
    enumerate_strings,
    make_string,
    simple_module,
    string_module,
)
from gentledef.sweep import sweep_catalog
from gentledef.udr import universal_deformation_ring
from oracles import (
    _conjugate,
    _poly_matmul,
    _unit_generators,
    count_deformations_by_orbits,
    enumerate_lifts,
)
from test_linalg import _gauss_jordan, _nullspace


@pytest.fixture(scope="module")
def lam0():
    return catalog_presentation("qviii.1")


def _mod(p, text, q=2):
    return string_module(p, make_string(p, text), q=q)


@pytest.mark.parametrize("call, value", [
    *[("string_module", q) for q in (0, 1, 4)],
    *[(call, n) for call in ("enumerate_lifts", "count_deformations",
                             "count_deformations_by_orbits", "fingerprint",
                             "universal_deformation_ring")
      for n in (0, -1)],
    ("count_ring_morphisms", (4, 2)), ("count_ring_morphisms", (2, 0)),
    ("universal_deformation_ring", "no word")])
def test_bad_field_size_or_level_is_rejected(lam0, call, value):
    # A non-prime q is rejected where the module is built, a level n < 1
    # by the lift walk behind every census entry point, and both by
    # count_ring_morphisms, which takes no module.  The classifier also
    # rejects a module that has no word.
    w = make_string(lam0, "c")
    V = string_module(lam0, w)
    if call == "string_module":
        with pytest.raises(ValueError, match="prime"):
            string_module(lam0, w, q=value)
    elif call == "count_ring_morphisms":
        q, n = value
        with pytest.raises(ValueError,
                           match="n must be positive" if n < 1 else "prime"):
            count_ring_morphisms("k", q, n)
    elif value == "no word":
        raw = FinModule(presentation=lam0, q=2, dims=V.dims, action=V.action)
        with pytest.raises(ValueError, match="string module"):
            universal_deformation_ring(raw)
    else:
        module = {"count_deformations": lifts, "fingerprint": lifts,
                  "universal_deformation_ring": udr}.get(call, oracles)
        with pytest.raises(ValueError, match="n must be positive"):
            getattr(module, call)(V, value)


def test_single_lift_at_level_one(lam0):
    m = _mod(lam0, "b*c*a")
    lifts = enumerate_lifts(m, 1)
    assert len(lifts) == 1
    assert lifts[0].validate() == []
    assert all(not c[1:].any() if c.shape[0] > 1 else True
               for c in lifts[0].coeffs.values())


def test_simple_lifts_dual_numbers(lam0):
    s1 = simple_module(lam0, "1")
    lifts = enumerate_lifts(s1, 2)
    assert len(lifts) == 2
    values = sorted(int(l.coeffs["a"][1, 0, 0]) for l in lifts)
    assert values == [0, 1]
    for l in lifts:
        assert l.validate() == []


def test_simple_lifts_level_three_kill_linear_term(lam0):
    s1 = simple_module(lam0, "1")
    lifts = enumerate_lifts(s1, 3)
    assert len(lifts) == 2
    for l in lifts:
        assert l.coeffs["a"][1, 0, 0] == 0
        assert l.validate() == []


def test_lift_validate_flags_broken_relation(lam0):
    s1 = simple_module(lam0, "1")
    lift = enumerate_lifts(s1, 3)[0]
    lift.coeffs["a"][1, 0, 0] = 1
    assert any("relation" in msg for msg in lift.validate())


def test_truncation_stays_enumerated(lam0):
    m = _mod(lam0, "c")
    level3 = enumerate_lifts(m, 3)
    assert len(level3) == 16
    level2 = enumerate_lifts(m, 2)
    keys = {tuple(int(x) for l in sorted(l2.coeffs) for x in
                  l2.coeffs[l].reshape(-1)) for l2 in level2}

    def truncate_key(lift):
        return tuple(int(x) for a in sorted(lift.coeffs) for x in
                     lift.coeffs[a][:2].reshape(-1))

    for lift in level3:
        assert truncate_key(lift) in keys


def test_count_deformations_simple(lam0):
    s1 = simple_module(lam0, "1")
    assert count_deformations(s1, 2) == 2
    assert count_deformations(s1, 3) == 2
    assert count_deformations_by_orbits(s1, 3) == 2


def test_count_deformations_needs_trivial_end(lam0):
    with pytest.raises(ValueError):
        count_deformations(_mod(lam0, "a"), 2)


def test_count_deformations_c_both_routes(lam0):
    m = _mod(lam0, "c")
    assert count_deformations(m, 2) == 4
    by_orbit = count_deformations_by_orbits(m, 3)
    by_tree = count_deformations(m, 3)
    assert by_orbit == by_tree == 4


def test_count_deformations_ca_both_routes(lam0):
    m = _mod(lam0, "c*a")
    assert count_deformations(m, 2) == 2
    by_orbit = count_deformations_by_orbits(m, 3)
    by_tree = count_deformations(m, 3)
    assert by_orbit == by_tree == 2


def test_level2_linear_route_agrees(lam0):
    s1 = simple_module(lam0, "1")
    for m in [s1, _mod(lam0, "c"), _mod(lam0, "c*a"), _mod(lam0, "b*c*a")]:
        by_orbit = count_deformations_by_orbits(m, 2)
        by_tree = count_deformations(m, 2)
        assert by_orbit == by_tree


def test_count_deformations_bca(lam0):
    m = _mod(lam0, "b*c*a")
    assert count_deformations(m, 2) == 4
    assert count_deformations(m, 3) == 12


def test_bca_level3_routes_agree(lam0):
    # The obstruction tree's count is cross-checked by the orbit oracle,
    # which conjugates all 196608 lifts by each of 16 unit generators and
    # merges their classes; this is the slowest test here.  The lift walk
    # holds about 9.5 M entries (75 MB), over the default budget, and the
    # oracle conjugates it in small blocks rather than in a second copy.
    m = _mod(lam0, "b*c*a")
    tracemalloc.start()
    try:
        by_orbit = count_deformations_by_orbits(m, 3, budget=2 ** 24)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert by_orbit == count_deformations(m, 3) == 12
    assert peak < 120 * 2 ** 20, peak


def test_one_reduction_of_the_cocycle_system(lam0, monkeypatch):
    # End = k costs one reduction and the cocycle system one more, which
    # both solves every level and gives the fan its cocycle basis; the
    # tree's fan adds the rref that picks the coset representatives.
    # A module whose End = k was already decided reads it from its Hom
    # memo and skips the first.
    calls = []
    reduce = linalg._reduce

    def counted(rows, q):
        calls.append(q)
        return reduce(rows, q)

    monkeypatch.setattr(linalg, "_reduce", counted)
    m = _mod(lam0, "b*c*a")
    assert count_deformations_by_orbits(m, 2) == 4
    assert len(calls) == 2
    calls.clear()
    assert fingerprint(m, 3).census == [(1, 1), (2, 4), (3, 12)]
    assert len(calls) == 2
    calls.clear()
    assert fingerprint(_mod(lam0, "b*c*a"), 3).census == [
        (1, 1), (2, 4), (3, 12)]
    assert len(calls) == 3


def test_count_ring_morphisms_table():
    table = {
        "k": [1, 1, 1, 1],
        "k[[t]]/(t^2)": [1, 2, 2, 4],
        "k[[t]]/(t^3)": [1, 2, 4, 4],
        "k[[t]]": [1, 2, 4, 8],
    }
    for label, want in table.items():
        got = [count_ring_morphisms(label, 2, n) for n in range(1, 5)]
        assert got == want, label


def test_count_ring_morphisms_rejects_unknown():
    # The zero ring (t^0) and unbalanced brackets are rejected too, and
    # a second call rejects them again.
    for descriptor in ["undetermined", "k[x,y]/(x,y)^2", "k[[t]]/(t^0)",
                       "k[t]/(t^0)", "k[[t]/(t^2)", "k[t]]/(t^2)",
                       "k[[t]]/(t^)", "k[[t]]/(t^-1)"]:
        for _ in range(2):
            with pytest.raises(ValueError):
                count_ring_morphisms(descriptor, 2, 2)


def test_count_ring_morphisms_accepts_both_truncation_spellings():
    for e in (1, 2, 3):
        for n in (1, 2, 3, 4):
            # t -> u with u^e = 0: u in (t^ceil(n/e)), so q^(n - ceil(n/e)).
            want = 3 ** (n - -(-n // e))
            assert count_ring_morphisms(f"k[[t]]/(t^{e})", 3, n) == want
            assert count_ring_morphisms(f"k[t]/(t^{e})", 3, n) == want


@pytest.mark.parametrize("q", [2, 3, 5])
def test_candidate_censuses_are_the_ring_morphism_counts(q):
    for n_max in range(1, 5):
        want = tuple(
            (label, tuple(count_ring_morphisms(label, q, n)
                          for n in range(1, n_max + 1)))
            for label in lifts.CANDIDATE_RINGS)
        table = lifts._candidate_censuses(q, n_max)
        assert table == want
        assert lifts._candidate_censuses(q, n_max) is table


def _ring_morphisms_by_enumeration(q, n, e):
    """Local morphisms from k[[t]]/(t^e) (k[[t]] for e = None) into
    F_q[t]/(t^n), counted over every image u of t in the maximal ideal
    by testing u^e = 0 with `_poly_matmul`."""
    free = n - 1
    # Each image of t is a 1x1 matrix polynomial with zero constant term.
    images = np.zeros((q ** free, n, 1, 1), dtype=np.int64)
    if free:
        images[:, 1:, 0, 0] = _mixed_radix(q ** free, free, q)
    if e is None:
        return images.shape[0]
    acc = images
    for _ in range(e - 1):
        acc = _poly_matmul(acc, images, q)
    return int((~acc.any(axis=(1, 2, 3))).sum())


def test_ring_morphism_closed_form_matches_enumeration():
    descriptors = ([("k", 1), ("k[[t]]", None)]
                   + [(f"k[[t]]/(t^{e})", e) for e in range(1, 5)]
                   + [(f"k[t]/(t^{e})", e) for e in range(1, 4)])
    for q in (2, 3, 5, 7):
        for n in range(1, 7):
            for descriptor, e in descriptors:
                want = _ring_morphisms_by_enumeration(q, n, e)
                got = count_ring_morphisms(descriptor, q, n)
                assert got == want, (q, n, descriptor)


def test_candidate_censuses_stay_within_the_walk_budget():
    # The candidates' censuses are closed forms: a level the walk can
    # afford allocates nothing further, however many images t has.
    assert count_ring_morphisms("k[[t]]", 2, 64) == 2 ** 63
    V = simple_module(catalog_presentation("qi.1"), "1")
    tracemalloc.start()
    try:
        fp = fingerprint(V, 16, budget=64)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert fp.census == [(n, 1) for n in range(1, 17)]
    assert fp.matches == ["k"]
    assert peak < 64 * 1024


def test_fingerprint_simple(lam0):
    fp = fingerprint(simple_module(lam0, "1"), 3)
    assert fp.census == [(1, 1), (2, 2), (3, 2)]
    assert fp.matches == ["k[[t]]/(t^2)"]
    assert fp.reduction_surjective == {2: True, 3: False}
    d = fp.as_dict()
    assert d["q"] == 2
    assert d["census"] == [[1, 1], [2, 2], [3, 2]]
    assert d["matches"] == ["k[[t]]/(t^2)"]
    assert d["reduction_surjective"] == {"2": True, "3": False}


def test_fingerprint_c_matches_nothing(lam0):
    fp = fingerprint(_mod(lam0, "c"), 3)
    assert fp.census == [(1, 1), (2, 4), (3, 4)]
    assert fp.matches == []


def test_fingerprint_ca(lam0):
    fp = fingerprint(_mod(lam0, "c*a"), 3)
    assert fp.census == [(1, 1), (2, 2), (3, 2)]
    assert fp.matches == ["k[[t]]/(t^2)"]


def test_fingerprint_bca(lam0):
    fp = fingerprint(_mod(lam0, "b*c*a"), 3)
    assert fp.census == [(1, 1), (2, 4), (3, 12)]
    assert fp.matches == []
    # 12 = 3 extendable level-2 classes times 2^2 lifts of each.
    assert fp.reduction_surjective == {2: True, 3: False}


def test_fingerprint_power_series_case():
    p = catalog_presentation("qiv.1")
    fp = fingerprint(simple_module(p, "1"), 3)
    assert fp.census == [(1, 1), (2, 2), (3, 4)]
    assert fp.matches == ["k[[t]]"]
    assert fp.reduction_surjective == {2: True, 3: True}


def test_fingerprint_field_case():
    p = catalog_presentation("qiv.1")
    fp = fingerprint(simple_module(p, "2"), 3)
    assert fp.census == [(1, 1), (2, 1), (3, 1)]
    assert fp.matches == ["k"]


def test_budget_errors(lam0):
    s1 = simple_module(lam0, "1")
    with pytest.raises(BudgetExceededError):
        count_deformations_by_orbits(s1, 2, budget=1)
    with pytest.raises(BudgetExceededError):
        count_deformations(s1, 4, budget=1)
    with pytest.raises(BudgetExceededError):
        enumerate_lifts(_mod(lam0, "b*c*a"), 2, budget=4)


def test_orbit_oracle_above_q_256(lam0):
    # Coefficients up to q - 1 = 256 must key the orbit lookup exactly.
    s1 = simple_module(lam0, "1", q=257)
    assert count_deformations_by_orbits(s1, 2) == 257
    assert count_deformations(s1, 2) == 257


@pytest.mark.parametrize("q, bits", [(2, 1), (3, 2), (7, 3), (257, 9)])
def test_packed_keys_tell_rows_apart(q, bits):
    # Widths 0, 1 and two or more words.  Rows repeat, or differ from a
    # repeat in one entry; row 0 is q - 1 throughout, the largest key.
    assert oracles._field_bits(q) == bits
    per_word = 63 // bits
    rng = np.random.default_rng(q)
    for width, words in ((0, 1), (1, 1), (per_word + 1, 2),
                         (2 * per_word + 3, 3)):
        rows = rng.integers(0, q, size=(8, width))[rng.integers(0, 8, 80)]
        if width:
            at = rng.integers(0, width, 40)
            rows[::2][np.arange(40), at] = rng.integers(0, q, 40)
        rows[0] = q - 1
        keys = oracles._pack_keys(rows, q)
        assert keys.shape == (80, words) and (keys >= 0).all()
        same_rows = (rows[:, None] == rows[None]).all(axis=-1)
        same_keys = (keys[:, None] == keys[None]).all(axis=-1)
        assert (same_rows == same_keys).all()
        assert same_rows.sum() > 80


def _poly_inverse(U, q):
    """Inverses of matrix polynomials whose constant term is the identity.

    The level is axis -3 and the axes before it are a batch.
    """
    n, d = U.shape[-3], U.shape[-1]
    X = np.zeros_like(U)
    X[..., 0, :, :] = np.eye(d, dtype=np.int64)
    for k in range(1, n):
        acc = sum(U[..., i, :, :] @ X[..., k - i, :, :]
                  for i in range(1, k + 1))
        X[..., k, :, :] = -acc % q
    return X


def test_conjugate_matches_matrix_polynomial_products():
    # _conjugate's row and column operations against U A U^-1 built from
    # dense matrix polynomials, for every unit generator of every word.
    rng = np.random.default_rng(12)
    seen = {"i = j": False, "loop arrow": False, "zero-size block": False}
    cases = 0
    for _, p in table1_catalog():
        for w in enumerate_strings(p, 2):
            for q in (2, 3, 5):
                V = string_module(p, w, q=q)
                system = ext_system(V, V)
                for n in (2, 3, 4):
                    C = rng.integers(0, q, (3, n, system.width))
                    gens = list(_unit_generators(V, n))
                    got = np.repeat(C[None], len(gens), axis=0)
                    for g, gen in enumerate(gens):
                        _conjugate(V, system.unpack(got[g]), gen, q)
                    want = np.repeat(C[None], len(gens), axis=0)
                    want_blocks = system.unpack(want)
                    for v in p.quiver.vertices:
                        at_v = [g for g, gen in enumerate(gens) if gen[0] == v]
                        if not at_v:
                            continue
                        d = V.dims[v]
                        U = np.zeros((len(at_v), n, d, d), dtype=np.int64)
                        U[:, 0] = np.eye(d, dtype=np.int64)
                        for u, g in enumerate(at_v):
                            _, i, j, k, c = gens[g]
                            U[u, k, i, j] = c
                            seen["i = j"] |= i == j
                        U = U[:, None]
                        for a, A in system.unpack(C).items():
                            if v not in (p.source(a), p.target(a)):
                                continue
                            seen["loop arrow"] |= \
                                p.source(a) == p.target(a) and A.size > 0
                            seen["zero-size block"] |= A.size == 0
                            if p.target(a) == v:
                                A = _poly_matmul(U, A, q)
                            if p.source(a) == v:
                                A = _poly_matmul(A, _poly_inverse(U, q), q)
                            want_blocks[a][at_v] = A
                    assert (got == want).all(), (w.display(), q, n)
                    cases += len(gens)
    assert all(seen.values()), seen
    assert cases == 24444


def _rank(A, q):
    return len(_gauss_jordan(A, q)[1])


@pytest.mark.parametrize("q", [2, 3])
def test_tangent_fan_complements_the_coboundaries(q):
    checked = 0
    for name, p in table1_catalog():
        for w in enumerate_strings(p, 3):
            V = string_module(p, w, q=q)
            if not end_is_trivial(V):
                continue
            e = ext1_dim(V, V)
            M = ext_system(V, V).matrix()
            reps = _tangent_line_reps(V, _nullspace(M, q), DEFAULT_BUDGET)
            B = hom_system(V, V).matrix().T
            assert reps.shape[0] == q ** e, f"{name} {w.display()}"
            assert not (M @ reps.T % q).any(), f"{name} {w.display()}"
            assert _rank(np.concatenate([reps, B]), q) == _rank(B, q) + e, \
                f"{name} {w.display()}"
            checked += 1
    assert checked == 86


@pytest.mark.parametrize("q", [2, 3])
def test_coboundary_rows_share_the_cocycle_layout(q):
    """`_tangent_line_reps` reads the columns of hom_system(V, V).matrix()
    as cocycle rows: the equation of arrow a must fill the rows where
    ext_system(V, V) keeps its unknown a, in the same shape."""
    checked = 0
    for name, p in table1_catalog():
        for w in enumerate_strings(p, 3):
            V = string_module(p, w, q=q)
            hom, ext = hom_system(V, V), ext_system(V, V)
            ends = hom.unpack(np.zeros(hom.width, dtype=np.int64))
            blocks = ext.unpack(np.arange(ext.width))
            assert hom.height == ext.width, (name, w.display())
            assert len(hom.equations) == len(blocks), (name, w.display())
            for (first, x, y), (a, block) in zip(hom.equations,
                                                 blocks.items()):
                context = (name, w.display(), a)
                assert (x, y) == (p.source(a), p.target(a)), context
                assert (ends[y].shape[0], ends[x].shape[1]) == block.shape, \
                    context
                if block.size:
                    assert first == block[0, 0], context
            checked += 1
    assert checked == 280


def _reference_walk(V, n, fan, budget):
    """`lifts._lift_walk` with `_level_rhs` and a solve at every level,
    level 1 included."""
    system = ext_system(V, V)
    width = system.width
    C = np.zeros((1, n, width), dtype=np.int64)
    for a, block in system.unpack(C[0, 0]).items():
        block[...] = V.action[a]
    counts, extended = [1], {}
    if n == 1:
        return C, counts, extended
    pre = linalg.Presolved(system)
    reps = fan(V, pre.nullspace, budget)
    for k in range(1, n):
        X, ok = pre.solve_many(lifts._level_rhs(system, C, k))
        extended[k + 1] = bool(ok.all())
        C = np.repeat(C, np.where(ok, reps.shape[0], 0), axis=0)
        level = C.reshape(int(ok.sum()), reps.shape[0], n, width)[:, :, k]
        level[...] = (X.T[ok][:, None] + reps) % V.q
        counts.append(C.shape[0])
    return C, counts, extended


@pytest.mark.parametrize("q, expected", [(2, 549), (3, 516)])
def test_lift_walk_skips_only_the_zero_level_one_solve(q, expected):
    """The walk, which takes X = 0 at level 1 without a solve, gives the
    rows, counts and `extended` of solving level 1 too, obstructed
    walks included."""
    walks = obstructed = 0
    for name, p in table1_catalog():
        for w in enumerate_strings(p, 3):
            V = string_module(p, w, q=q)
            for n, fan in ((3, _tangent_line_reps),
                           (2, oracles._every_cocycle)):
                try:
                    got = lifts._lift_walk(V, n, fan, DEFAULT_BUDGET)
                except BudgetExceededError:
                    continue
                want = _reference_walk(V, n, fan, DEFAULT_BUDGET)
                context = (name, w.display(), n)
                assert np.array_equal(got[0], want[0]), context
                assert got[1:] == want[1:], context
                walks += 1
                obstructed += not all(got[2].values())
    assert walks == expected and obstructed > 0


CATALOG_CASES = pytest.mark.parametrize("q, max_len, levels, expected", [
    (2, 2, (2, 3), 160),
    (3, 2, (2,), 80),
    (3, 1, (3,), 60),
    (5, 1, (2,), 60),
], ids=["q2-len2-n23", "q3-len2-n2", "q3-len1-n3", "q5-len1-n2"])


def _tree_matches_orbits(q, max_len, levels):
    compared = 0
    for name, p in table1_catalog():
        for w in enumerate_strings(p, max_len):
            V = string_module(p, w, q=q)
            if not end_is_trivial(V):
                continue
            for n in levels:
                assert count_deformations(V, n) == \
                    count_deformations_by_orbits(V, n), \
                    f"{name} {w.display()} q={q} n={n}"
                compared += 1
    return compared


@CATALOG_CASES
def test_tree_matches_orbits_across_catalog(q, max_len, levels, expected):
    assert _tree_matches_orbits(q, max_len, levels) == expected


@CATALOG_CASES
def test_tree_matches_orbits_in_small_blocks(monkeypatch, q, max_len, levels,
                                             expected):
    # Blocks of at most 100 entries hold a few lifts each, so the oracle
    # conjugates most walks in several blocks, the last often shorter.
    monkeypatch.setattr(oracles, "_ORBIT_BLOCK", 100)
    lengths = []
    orbit_count, conjugate = oracles._orbit_count, oracles._conjugate

    def counted(V, C):
        lengths.append(set())
        return orbit_count(V, C)

    def spied(V, blocks, gen, q):
        lengths[-1].add(len(next(iter(blocks.values()))))
        conjugate(V, blocks, gen, q)

    monkeypatch.setattr(oracles, "_orbit_count", counted)
    monkeypatch.setattr(oracles, "_conjugate", spied)
    assert _tree_matches_orbits(q, max_len, levels) == expected
    assert any(len(seen) > 1 for seen in lengths)


def test_deep_sweep_census_confirms_certified_rings():
    report = sweep_catalog(q=2, max_len=3, n_max=6)
    certified = [r for r in report.rows if r.ring != "undetermined"]
    assert len(report.rows) == 86
    assert len(certified) == 77
    for row in certified:
        assert row.error is None
        assert row.ring in row.matches, f"{row.algebra} {row.word}"


def test_deep_fingerprint_fails_loudly_within_budget(lam0):
    # Both counters share one lift walk, whose budget bounds held entries:
    # the orbit oracle's 196608 lifts at n = 3 are 9.5 M entries, over 2^20.
    m = _mod(lam0, "b*c*a")
    for count in (lambda: fingerprint(m, 20),
                  lambda: count_deformations_by_orbits(m, 3)):
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceededError):
                count()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 8 * DEFAULT_BUDGET
