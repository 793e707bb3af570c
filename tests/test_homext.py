import gc
import itertools
import math
import random
import types

import numpy as np
import pytest

import oracles
from gentledef import homext, lifts
from gentledef.homext import (
    BudgetExceededError,
    brute_force_ext,
    classify_trivial_end,
    coboundary_dim,
    cocycle_dim,
    end_is_trivial,
    ext1_dim,
    ext_system,
    hom_basis,
    hom_dim,
    hom_system,
    modules_isomorphic,
)
from gentledef.presentation import catalog_presentation, table1_catalog
from gentledef.strings import (
    FinModule,
    enumerate_strings,
    make_string,
    simple_module,
    string_module,
)


@pytest.fixture(scope="module")
def lam0():
    return catalog_presentation("qviii.1")


def _mod(p, text, q=2):
    return string_module(p, make_string(p, text), q=q)


def test_hom_distinct_simples(lam0):
    assert hom_dim(simple_module(lam0, "1"), simple_module(lam0, "2")) == 0


def test_hom_collapse_onto_simple(lam0):
    m = _mod(lam0, "a")
    s1 = simple_module(lam0, "1")
    assert hom_dim(m, s1) == 1
    (g,) = hom_basis(m, s1)
    assert g["1"].shape == (1, 2)
    assert g["1"].any()


def test_end_dims(lam0):
    assert hom_dim(_mod(lam0, "b*c*a"), _mod(lam0, "b*c*a")) == 1
    assert end_is_trivial(_mod(lam0, "c*a"))
    assert not end_is_trivial(_mod(lam0, "a"))
    assert not end_is_trivial(_mod(lam0, "~d*a"))


def test_ext_simple_loop(lam0):
    s1 = simple_module(lam0, "1")
    assert cocycle_dim(s1, s1) == 1
    assert coboundary_dim(s1, s1) == 0
    assert ext1_dim(s1, s1) == 1
    assert brute_force_ext(s1, s1) == 1


def test_ext_arrow_onto_simple(lam0):
    m = _mod(lam0, "a")
    s1 = simple_module(lam0, "1")
    assert cocycle_dim(m, s1) == 1
    assert coboundary_dim(m, s1) == 1
    assert ext1_dim(m, s1) == 0
    assert brute_force_ext(m, s1) == 0


def test_ext_self_c(lam0):
    m = _mod(lam0, "c")
    assert cocycle_dim(m, m) == 3
    assert coboundary_dim(m, m) == 1
    assert ext1_dim(m, m) == 2
    assert brute_force_ext(m, m) == 2


def test_ext_self_ca(lam0):
    m = _mod(lam0, "c*a")
    assert cocycle_dim(m, m) == 5
    assert coboundary_dim(m, m) == 4
    assert ext1_dim(m, m) == 1
    assert brute_force_ext(m, m) == 1


def test_ext_self_bca(lam0):
    m = _mod(lam0, "b*c*a")
    assert cocycle_dim(m, m) == 9
    assert coboundary_dim(m, m) == 7
    assert ext1_dim(m, m) == 2
    assert brute_force_ext(m, m) == 2


def test_ext_six_short_strings(lam0):
    want = {"c": 2, "d": 2, "c*a": 1, "a*d": 1, "d*b": 1, "b*c": 1}
    for text, value in want.items():
        m = _mod(lam0, text)
        assert ext1_dim(m, m) == value, text


def test_hom_ext_for_reflected_companion_of_ca(lam0):
    v = _mod(lam0, "c*a")
    v1 = _mod(lam0, "~a*~c*b*c*a")
    assert v1.dims == {"1": 4, "2": 2}
    assert hom_dim(v1, v) == 1
    assert ext1_dim(v1, v) == 0


def test_classify_trivial_end_lambda0(lam0):
    got = [w.display() for w in classify_trivial_end(lam0, 3)]
    assert got == ["simple 1", "simple 2", "c", "d",
                   "c*a", "d*b", "b*c", "a*d", "b*c*a", "a*d*b"]


def test_field_independence(lam0):
    for text in ["c", "c*a", "b*c*a"]:
        dims_hom = {hom_dim(_mod(lam0, text, q), _mod(lam0, text, q))
                    for q in (2, 3, 5)}
        dims_ext = {ext1_dim(_mod(lam0, text, q), _mod(lam0, text, q))
                    for q in (2, 3, 5)}
        assert len(dims_hom) == 1
        assert len(dims_ext) == 1


def test_hom_invariant_under_reverse_inverse(lam0):
    words = [make_string(lam0, t) for t in ["c*a", "b*c*a", "~d*a", "c"]]
    for w1, w2 in itertools.product(words, repeat=2):
        a = hom_dim(string_module(lam0, w1), string_module(lam0, w2))
        b = hom_dim(string_module(lam0, w1.reverse_inverse()),
                    string_module(lam0, w2.reverse_inverse()))
        assert a == b


def _all_pairs_agree(p, max_len, q=2):
    from gentledef.strings import enumerate_strings
    mods = [string_module(p, w, q=q) for w in enumerate_strings(p, max_len)]
    for m, n in itertools.product(mods, repeat=2):
        assert ext1_dim(m, n) == brute_force_ext(m, n), (
            m.word, n.word)


def test_engines_agree_lambda0(lam0):
    _all_pairs_agree(lam0, 2)


def test_engines_agree_one_loop_algebra():
    _all_pairs_agree(catalog_presentation("qvi.1"), 2)


def test_budget_guard(lam0):
    s1 = simple_module(lam0, "1")
    with pytest.raises(BudgetExceededError):
        brute_force_ext(s1, s1, budget=1)


@pytest.mark.parametrize("q, max_len", [(3, 2), (5, 1)])
@pytest.mark.parametrize("name", ["qviii.1", "qvi.1"])
def test_engines_agree_off_q2(name, q, max_len):
    # Both algebras have a loop relation a*a, whose table is over one code.
    _all_pairs_agree(catalog_presentation(name), max_len, q)


def test_budget_boundary(lam0):
    # M[c*a]: 9 cocycle entries, 5 coboundary sources.
    m = _mod(lam0, "c*a")
    with pytest.raises(BudgetExceededError):
        brute_force_ext(m, m, budget=2 ** 9 - 1)
    assert brute_force_ext(m, m, budget=2 ** 9) == 1


def _blocks(digits, shapes):
    out, pos = {}, 0
    for key, (rows, cols) in shapes.items():
        out[key] = np.array(digits[pos:pos + rows * cols],
                            dtype=np.int64).reshape(rows, cols)
        pos += rows * cols
    return out


def _reference_ext(m, n):
    """dim Ext^1(m, n) one tuple at a time, orbits counted in a set."""
    p, q = m.presentation, m.q
    arrows = p.quiver.arrow_names
    blocks = {a: (n.dims[p.target(a)], m.dims[p.source(a)]) for a in arrows}
    spots = {v: (n.dims[v], m.dims[v]) for v in p.quiver.vertices}
    cocycles = []
    width = sum(r * c for r, c in blocks.values())
    for digits in itertools.product(range(q), repeat=width):
        f = _blocks(digits, blocks)
        if all(not ((n.action[b] @ f[a] + f[b] @ m.action[a]) % q).any()
               for b, a in p.relations):
            cocycles.append(digits)
    bounds = set()
    gwidth = sum(r * c for r, c in spots.values())
    for digits in itertools.product(range(q), repeat=gwidth):
        g = _blocks(digits, spots)
        bounds.add(tuple(
            int(x) for a in arrows for x in (
                (n.action[a] @ g[p.source(a)] - g[p.target(a)] @ m.action[a])
                % q).ravel()))
    orbits = {min(tuple((z + b) % q for z, b in zip(cocycle, bound))
                  for bound in bounds)
              for cocycle in cocycles}
    dim = round(math.log(len(orbits), q))
    assert q ** dim == len(orbits)
    return dim


@pytest.mark.parametrize("q, max_width", [(2, 8), (3, 5)])
def test_oracle_matches_per_tuple_reference(q, max_width):
    from gentledef.strings import enumerate_strings
    # A relation b*a's table is transposed into the grid when b's block
    # precedes a's in the arrow layout, and broadcast as is when it follows.
    seen = {"m != n": False, "loop relation": False, "0 x k block": False,
            "b block before a": False, "b block after a": False}
    for name in ["qviii.1", "qvi.1", "qiii.1"]:
        p = catalog_presentation(name)
        order = {a: i for i, a in enumerate(p.quiver.arrow_names)}
        mods = [string_module(p, w, q=q) for w in enumerate_strings(p, 2)]
        for m, n in itertools.product(mods, repeat=2):
            shapes = [(n.dims[p.target(a)], m.dims[p.source(a)])
                      for a in p.quiver.arrow_names]
            if sum(r * c for r, c in shapes) > max_width:
                continue
            assert brute_force_ext(m, n) == _reference_ext(m, n), (
                name, m.word, n.word)
            seen["m != n"] |= m is not n
            seen["loop relation"] |= any(b == a for b, a in p.relations)
            seen["0 x k block"] |= any(r == 0 < c for r, c in shapes)
            for b, a in p.relations:
                if b != a and n.dims[p.target(b)] * m.dims[p.source(a)]:
                    seen["b block before a"] |= order[b] < order[a]
                    seen["b block after a"] |= order[b] > order[a]
    assert all(seen.values()), seen


def test_oracle_peak_memory_on_bca(lam0):
    """The candidate grid holds one bool per candidate, no int64 index,
    and the closure check holds one index per cocycle, not the 512
    cocycles' rows of entries."""
    import tracemalloc
    m = _mod(lam0, "b*c*a")
    brute_force_ext(m, m)
    tracemalloc.start()
    try:
        assert brute_force_ext(m, m) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 512 * 2 ** 10, peak


def test_oracle_raises_where_a_coboundary_is_no_cocycle(lam0):
    """A second module whose action breaks a relation (a*a, or c*d and
    d*c) has coboundaries that are no cocycles, which the closure check
    catches."""
    m = _mod(lam0, "c")
    one = np.ones((1, 1), dtype=np.int64)
    bad = FinModule(presentation=lam0, q=2, dims={"1": 1, "2": 0},
                    action={"a": one,
                            "c": np.zeros((0, 1), dtype=np.int64),
                            "d": np.zeros((1, 0), dtype=np.int64),
                            "b": np.zeros((0, 0), dtype=np.int64)})
    split = FinModule(presentation=lam0, q=2, dims={"1": 1, "2": 1},
                      action={"a": np.zeros((1, 1), dtype=np.int64),
                              "c": one, "d": one,
                              "b": np.zeros((1, 1), dtype=np.int64)})
    for n in (bad, split):
        with pytest.raises(AssertionError):
            brute_force_ext(m, n)


def test_oracle_spans_two_key_words():
    """Width 22 at q = 2: 2^22 candidates, over the default budget, of
    which 2048 are cocycles, closed under 1024 coboundaries."""
    p = catalog_presentation("qvi.2")
    m, n = _mod(p, "~c*a*a*a"), _mod(p, "b*c*b*c")
    assert ext_system(m, n).width == 22
    assert brute_force_ext(m, n, budget=2 ** 23) == 1 == ext1_dim(m, n)


@pytest.mark.parametrize("q", [2, 3])
def test_oracle_matches_linear_engine_to_length_4(q):
    # Every catalog string of length <= 4 whose candidates fit the budget.
    checked = 0
    for name, p in table1_catalog():
        for w in enumerate_strings(p, 4):
            V = string_module(p, w, q=q)
            try:
                got = brute_force_ext(V, V)
            except BudgetExceededError:
                continue
            assert got == ext1_dim(V, V), (name, w.display())
            checked += 1
    assert checked == {2: 303, 3: 178}[q]


@pytest.mark.parametrize("q, max_total", [(7, 8), (257, 2)])
def test_oracle_matches_linear_engine_with_wide_fields(q, max_total):
    # max_total bounds cocycle plus coboundary width, so that both
    # enumerations stay inside the default budget.
    from gentledef.presentation import table1_catalog
    from gentledef.strings import enumerate_strings
    values = set()
    for _, p in table1_catalog():
        mods = [string_module(p, w, q=q) for w in enumerate_strings(p, 1)]
        for m, n in itertools.product(mods, repeat=2):
            width = ext_system(m, n).width
            gwidth = sum(n.dims[v] * m.dims[v] for v in p.quiver.vertices)
            if width + gwidth > max_total:
                continue
            got = brute_force_ext(m, n)
            assert got == ext1_dim(m, n), (m.word, n.word)
            values.add(got)
    assert {0, 1} <= values, values


def _digit_reference(count, width, q):
    """The first count q-ary tuples of the given width, least digit
    first, one per row, counted out by itertools."""
    rows = itertools.islice(itertools.product(range(q), repeat=width), count)
    return np.array([row[::-1] for row in rows],
                    dtype=np.int64).reshape(count, width)


def test_kept_digit_tables_equal_fresh_ones(monkeypatch):
    # Every table the oracle and the census ask for on C5 at q = 2 and on
    # sweeps at q = 3 and 5 is read-only, equals the reference, and is
    # kept exactly when it has at most _TABLE_ROWS rows.
    from gentledef.sweep import sweep_catalog
    asked = set()
    build = homext._mixed_radix

    def recorded(count, width, q):
        asked.add((count, width, q))
        return build(count, width, q)

    monkeypatch.setattr(homext, "_mixed_radix", recorded)
    monkeypatch.setattr(lifts, "_mixed_radix", recorded)
    for q, max_len in ((2, 6), (3, 3), (5, 3)):
        sweep_catalog(q=q, max_len=max_len, n_max=3)
    assert {q for _, _, q in asked} == {2, 3, 5}
    assert any(count > homext._TABLE_ROWS for count, _, _ in asked)
    for count, width, q in asked:
        table = build(count, width, q)
        assert not table.flags.writeable
        kept = homext._TABLES.get((count, width, q))
        if count <= homext._TABLE_ROWS:
            assert kept is table
            assert np.array_equal(table, _digit_reference(count, width, q))
        else:
            assert kept is None
            assert table is not build(count, width, q)


def test_kept_tables_are_read_only():
    table = homext._mixed_radix(8, 3, 2)
    assert homext._TABLES[8, 3, 2] is table
    blocks = homext._block_table((1, 3), 2)
    assert np.array_equal(blocks.reshape(8, 3), table)
    oracles._pack_keys(table, 2)
    for kept in (table, blocks, oracles._KEY_WEIGHTS[3, 2]):
        with pytest.raises(ValueError):
            kept[0, 0] = 1


def test_a_table_over_the_cap_is_not_kept():
    width = homext._TABLE_ROWS.bit_length()
    count = 2 ** width
    assert count > homext._TABLE_ROWS
    table = homext._mixed_radix(count, width, 2)
    assert (count, width, 2) not in homext._TABLES
    assert not table.flags.writeable
    assert np.array_equal(table, _digit_reference(count, width, 2))
    assert homext._mixed_radix(count, width, 2) is not table


def test_oracle_shares_no_code_with_linear_engine():
    """brute_force_ext and every helper it reaches stay off linalg."""
    from gentledef import homext
    forbidden = {"LinearSystem", "rank", "rref", "nullspace", "Presolved",
                 "solve", "ext_system", "hom_system"}
    names, seen = set(), set()
    stack = [homext.brute_force_ext.__code__]
    while stack:
        code = stack.pop()
        if code in seen:
            continue
        seen.add(code)
        names.update(code.co_names)
        stack.extend(c for c in code.co_consts
                     if isinstance(c, types.CodeType))
        for name in code.co_names:
            target = vars(homext).get(name)
            if isinstance(target, types.FunctionType):
                stack.append(target.__code__)
            assert getattr(target, "__module__", None) != "gentledef.linalg", \
                name
    assert homext._mixed_radix.__code__ in seen
    assert not names & forbidden, names & forbidden


def _with(m, q=None, **action):
    """A module built directly from m's dims and action, with the given
    arrows' matrices in place of m's and, if given, another q."""
    return FinModule(presentation=m.presentation, q=q or m.q, dims=m.dims,
                     action={**m.action, **action})


def test_hom_dim_reads_each_modules_own_action(lam0):
    m = _mod(lam0, "c")
    # With c acting by zero, the direct sum of the two simples.
    split = _with(m, c=np.zeros((1, 1), dtype=np.int64))
    for _ in range(2):
        assert hom_dim(m, m) == 1 and hom_dim(split, split) == 2
    built = _mod(lam0, "b*c*a")
    assert hom_dim(built, built) == 1


def _memo_free(m, n):
    """(dim Hom, dim Ext^1) of the pair from freshly built systems."""
    hom = hom_system(m, n).nullspace_dim()
    total = sum(n.dims[v] * m.dims[v] for v in m.presentation.quiver.vertices)
    return hom, ext_system(m, n).nullspace_dim() - (total - hom)


def _counting(monkeypatch, name):
    """Records the arguments of every call to homext.<name>."""
    calls = []
    real = getattr(homext, name)

    def counted(m, n):
        calls.append((m, n))
        return real(m, n)

    monkeypatch.setattr(homext, name, counted)
    return calls


def _counting_hom_reductions(monkeypatch):
    """Records (m, n) each time the dimension of a hom_system(m, n) is
    reduced, that is, each time its nullspace_dim runs."""
    reduced = []
    real = homext.hom_system

    def counted(m, n):
        system = real(m, n)
        dim = system.nullspace_dim

        def nullspace_dim():
            reduced.append((m, n))
            return dim()

        system.nullspace_dim = nullspace_dim
        return system

    monkeypatch.setattr(homext, "hom_system", counted)
    return reduced


def test_hom_memo_keeps_the_two_orders_of_a_pair_apart(lam0):
    m, n = _mod(lam0, "c"), simple_module(lam0, "2")
    want, back = _memo_free(m, n), _memo_free(n, m)
    assert want[0] == 0 and back[0] == 1
    for _ in range(2):
        assert (hom_dim(m, n), ext1_dim(m, n)) == want
        assert (hom_dim(n, m), ext1_dim(n, m)) == back
        assert hom_dim(m, m) == 1 and hom_dim(n, n) == 1
        assert ext1_dim(m, n) == want[1] and ext1_dim(n, m) == back[1]


def test_hom_memo_misses_a_partner_with_other_matrices_on_either_side(lam0):
    # Zeroing c turns M[c] into S1 + S2, which changes each Hom below.
    m, s1, s2 = _mod(lam0, "c"), simple_module(lam0, "1"), \
        simple_module(lam0, "2")
    split = _with(m, c=np.zeros((1, 1), dtype=np.int64))
    for _ in range(2):
        assert hom_dim(m, s2) == 0 and hom_dim(s1, m) == 0
        assert hom_dim(split, s2) == 1 and hom_dim(s1, split) == 1
        assert ext1_dim(split, s2) == _memo_free(split, s2)[1]
        assert ext1_dim(s1, split) == _memo_free(s1, split)[1]


def test_hom_memo_keeps_the_fields_apart(lam0):
    for text in ("c", "b*c*a"):
        m2, m3 = _mod(lam0, text, 2), _mod(lam0, text, 3)
        for m in (m2, m3, m2, m3):
            assert (hom_dim(m, m), ext1_dim(m, m)) == _memo_free(m, m)
    # The entry 2 vanishes over F_2 only: on the same matrices and dims,
    # S1 + S2 at q = 2 and the uniserial M[c] at q = 3.
    m2 = _with(_mod(lam0, "c"), c=np.array([[2]]))
    m3 = _with(m2, q=3)
    assert m3.action["c"] is m2.action["c"]
    for _ in range(2):
        assert hom_dim(m2, m2) == 2 and hom_dim(m3, m3) == 1
        assert ext1_dim(m2, m2) == _memo_free(m2, m2)[1]
        assert ext1_dim(m3, m3) == _memo_free(m3, m3)[1]
    assert not end_is_trivial(m2) and end_is_trivial(m3)


def test_hom_memo_survives_a_partner_whose_dims_do_not_fit(lam0):
    m, n = simple_module(lam0, "1"), _mod(lam0, "c")
    want = _memo_free(m, n)
    assert hom_dim(m, n) == want[0]
    # Each pair has one side with a dims entry one too big for its
    # matrices.
    unfit = ((m, FinModule(presentation=lam0, q=2,
                           dims={**n.dims, "1": 2}, action=n.action)),
             (FinModule(presentation=lam0, q=2, dims={**m.dims, "2": 1},
                        action=m.action), n))
    for left, right in unfit:
        with pytest.raises(ValueError, match="shape mismatch"):
            hom_dim(left, right)
        with pytest.raises(ValueError, match="shape mismatch"):
            ext1_dim(left, right)
        assert (hom_dim(m, n), ext1_dim(m, n)) == want


def test_hom_memo_hits_only_its_own_partner_and_keeps_it_weakly(
        lam0, monkeypatch):
    m, n, twin = _mod(lam0, "c*a"), _mod(lam0, "c"), _mod(lam0, "c")
    builds = _counting(monkeypatch, "hom_system")
    assert hom_dim(m, n) == hom_dim(m, n) == hom_dim(m, twin)
    assert hom_dim(m, twin) == _memo_free(m, n)[0]
    assert builds == [(m, n), (m, twin)]
    ref = m._hom[0]
    assert ref() is twin
    del twin, builds[:]
    gc.collect()
    assert ref() is None


def test_hom_memo_still_rejects_mismatched_pairs(lam0):
    m, n = _mod(lam0, "c*a"), _mod(lam0, "c")
    other = catalog_presentation("qviii.2")
    # Each shares n's dims and matrices, so only the presentation or the
    # field tells it apart from the pair just stored on m.
    mismatched = [
        FinModule(presentation=other, q=2, dims=n.dims, action=n.action),
        FinModule(presentation=lam0, q=3, dims=n.dims, action=n.action),
    ]
    for bad in mismatched:
        assert hom_dim(m, n) == _memo_free(m, n)[0]
        for f in (hom_dim, ext1_dim, coboundary_dim):
            with pytest.raises(ValueError, match="different"):
                f(m, bad)
            with pytest.raises(ValueError, match="different"):
                f(bad, m)


def test_hom_memo_agrees_with_fresh_systems_in_any_order(monkeypatch):
    ops, pairs = [], 0
    for q in (2, 3):
        for _, p in table1_catalog():
            mods = [string_module(p, w, q=q) for w in enumerate_strings(p, 2)]
            for m, n in itertools.product(mods, repeat=2):
                hom, ext = _memo_free(m, n)
                ops += [(hom_dim, m, n, hom), (ext1_dim, m, n, ext)]
                pairs += 1
    # Consecutive pairs share m, so shuffling short windows mixes calls
    # that repeat m's last pair with calls that replace it.
    rng = random.Random(0)
    for i in range(0, len(ops), 8):
        window = ops[i:i + 8]
        rng.shuffle(window)
        ops[i:i + 8] = window
    builds = _counting(monkeypatch, "hom_system")
    for f, m, n, want in ops:
        assert f(m, n) == want, (f.__name__, m.word, n.word)
    assert pairs <= len(builds) < 2 * pairs
    assert pairs > 1000


def test_hom_then_ext_of_a_pair_builds_each_system_once(lam0, monkeypatch):
    m, n = _mod(lam0, "b*c*a"), _mod(lam0, "c")
    want = _memo_free(m, n)
    homs = _counting(monkeypatch, "hom_system")
    exts = _counting(monkeypatch, "ext_system")
    assert (hom_dim(m, n), ext1_dim(m, n)) == want
    assert len(homs) == 1 and len(exts) == 1
    assert end_is_trivial(m) and ext1_dim(m, m) == 2
    assert len(homs) == 2 and len(exts) == 2


def test_hom_system_reads_each_modules_coefficients_once(lam0, monkeypatch):
    # n's side is n.sparse_action[a] and m's side -m_a is
    # m.negated_action[a], the very objects, in every system m enters.
    from gentledef import linalg
    m, n = _mod(lam0, "b*c*a"), _mod(lam0, "~d*a")
    calls = []
    real = linalg.LinearSystem.add_equation

    def recorded(self, A, x, y, B):
        calls.append((A, x, y, B))
        return real(self, A, x, y, B)

    monkeypatch.setattr(linalg.LinearSystem, "add_equation", recorded)
    for other in (n, m):
        calls.clear()
        hom_system(m, other)
        assert [(x, y) for _, x, y, _ in calls] == [
            (s, t) for _, s, t in lam0.quiver.arrows]
        for (A, _, _, B), a in zip(calls, lam0.quiver.arrow_names):
            assert A is other.sparse_action[a]
            assert B is m.negated_action[a]
            shape, entries = m.sparse_action[a]
            assert B == (shape, tuple((i, j, -v) for i, j, v in entries))


def _kron_hom_matrix(m, n):
    """hom_system(m, n).matrix() from the dense actions: each arrow a with
    a nonempty equation gives n_a X_s - X_t m_a, flattened row-major."""
    p, q = m.presentation, m.q
    offsets, width = {}, 0
    for v in p.quiver.vertices:
        offsets[v] = width
        width += n.dims[v] * m.dims[v]
    blocks = []
    for a in p.quiver.arrow_names:
        s, t = p.source(a), p.target(a)
        if n.dims[t] * m.dims[s] == 0:
            continue
        block = np.zeros((n.dims[t] * m.dims[s], width), dtype=np.int64)
        block[:, offsets[s]:offsets[s] + n.dims[s] * m.dims[s]] += np.kron(
            n.action[a], np.eye(m.dims[s], dtype=np.int64))
        block[:, offsets[t]:offsets[t] + n.dims[t] * m.dims[t]] -= np.kron(
            np.eye(n.dims[t], dtype=np.int64), m.action[a].T)
        blocks.append(block)
    return np.concatenate(blocks or [np.zeros((0, width), np.int64)]) % q


def _kron_ext_matrix(m, n):
    """ext_system(m, n).matrix() from the dense actions: each relation
    b*a gives n_b F_a + F_b m_a, flattened row-major."""
    p, q = m.presentation, m.q
    offsets, width = {}, 0
    for a in p.quiver.arrow_names:
        offsets[a] = width
        width += n.dims[p.target(a)] * m.dims[p.source(a)]
    blocks = []
    for b, a in p.relations:
        rows, cols = n.dims[p.target(b)], m.dims[p.source(a)]
        block = np.zeros((rows * cols, width), dtype=np.int64)
        f_a = np.kron(n.action[b], np.eye(cols, dtype=np.int64))
        f_b = np.kron(np.eye(rows, dtype=np.int64), m.action[a].T)
        block[:, offsets[a]:offsets[a] + f_a.shape[1]] += f_a
        block[:, offsets[b]:offsets[b] + f_b.shape[1]] += f_b
        blocks.append(block)
    return np.concatenate(blocks or [np.zeros((0, width), np.int64)]) % q


def test_hom_and_ext_systems_match_kron_reference():
    from gentledef.homext import ext_system, hom_system
    from gentledef.presentation import table1_catalog
    from gentledef.strings import enumerate_strings
    pairs = 0
    for q in (2, 3):
        for _, p in table1_catalog():
            mods = [string_module(p, w, q=q) for w in enumerate_strings(p, 2)]
            for m, n in itertools.product(mods, repeat=2):
                hom, ext = hom_system(m, n).matrix(), ext_system(m, n).matrix()
                assert np.array_equal(hom, _kron_hom_matrix(m, n)), \
                    (m.word, n.word)
                assert np.array_equal(ext, _kron_ext_matrix(m, n)), \
                    (m.word, n.word)
                pairs += 1
    assert pairs > 1000


def test_coboundaries_satisfy_the_cocycle_equations():
    """d^1 d^0 = 0: for every ordered pair of string modules of length at
    most 3 from one catalog algebra, the columns of
    hom_system(m, n).matrix(), the coboundaries of the unit vertex maps
    laid out as ext_system(m, n)'s unknowns (one block per arrow, in
    arrow order, as `lifts._tangent_line_reps` reads them), satisfy
    every cocycle equation."""
    pairs = 0
    for q in (2, 3):
        for _, p in table1_catalog():
            mods = [string_module(p, w, q=q) for w in enumerate_strings(p, 3)]
            for m, n in itertools.product(mods, repeat=2):
                cocycles = ext_system(m, n).matrix()
                coboundaries = hom_system(m, n).matrix()
                assert not (cocycles @ coboundaries % q).any(), (
                    q, m.word.display(), n.word.display())
                pairs += 1
    assert pairs == 12644


def test_hom_and_ext_dimensions_never_go_dense(monkeypatch):
    """hom_dim and ext1_dim reduce sparse rows: no matrix(), no np.eye."""
    from gentledef import linalg
    from gentledef.homext import ext_system, hom_system
    from gentledef.presentation import table1_catalog
    from gentledef.strings import enumerate_strings
    from test_linalg import _gauss_jordan
    cases = []
    for q in (2, 3):
        for _, p in table1_catalog():
            mods = [string_module(p, w, q=q) for w in enumerate_strings(p, 2)]
            for m, n in itertools.product(mods, repeat=2):
                hom, ext = hom_system(m, n), ext_system(m, n)
                hom_rank = len(_gauss_jordan(hom.matrix(), q)[1])
                ext_rank = len(_gauss_jordan(ext.matrix(), q)[1])
                cases.append((m, n, hom.width - hom_rank,
                              ext.width - ext_rank - hom_rank))

    def dense(*args, **kwargs):
        raise AssertionError("the Hom/Ext dimension path went dense")

    monkeypatch.setattr(linalg.LinearSystem, "matrix", dense)
    monkeypatch.setattr(np, "eye", dense)
    for m, n, hom, ext in cases:
        assert hom_dim(m, n) == hom, (m.word, n.word)
        assert ext1_dim(m, n) == ext, (m.word, n.word)
    assert len(cases) > 1000


def test_isomorphic_equal_representations_skip_the_basis_search(
        lam0, monkeypatch):
    def refuse(m, n):
        raise AssertionError("entrywise-equal modules searched a Hom basis")

    monkeypatch.setattr(homext, "hom_basis", refuse)
    for q in (2, 3):
        for text in ("a", "c*a", "b*c*a"):
            assert modules_isomorphic(_mod(lam0, text, q), _mod(lam0, text, q))


@pytest.mark.parametrize("q", [2, 3])
def test_isomorphic_base_change_goes_through_the_basis_search(
        lam0, monkeypatch, q):
    m = _mod(lam0, "b*c*a", q)
    # Invertible over every F_q; g_v M g_v^-1 at vertex v.
    g = {v: np.array([[1, 1], [0, 1]]) for v in ("1", "2")}
    g_inv = {v: np.array([[1, q - 1], [0, 1]]) for v in ("1", "2")}
    action = {a: g[lam0.target(a)] @ mat @ g_inv[lam0.source(a)] % q
              for a, mat in m.action.items()}
    n = FinModule(presentation=lam0, q=q, dims=dict(m.dims), action=action)
    assert not n.validate()
    assert any((n.action[a] != m.action[a]).any() for a in m.action)
    calls = _counting(monkeypatch, "hom_basis")
    assert modules_isomorphic(m, n)
    assert modules_isomorphic(n, m)
    assert len(calls) == 2


@pytest.mark.parametrize("q", [2, 3])
def test_same_dimension_modules_need_not_be_isomorphic(lam0, monkeypatch, q):
    m = _mod(lam0, "c*a", q)
    zero = FinModule(presentation=lam0, q=q, dims=dict(m.dims),
                     action={a: np.zeros_like(mat)
                             for a, mat in m.action.items()})
    calls = _counting(monkeypatch, "hom_basis")
    for other in (_mod(lam0, "a*d", q), zero):
        assert other.dims == m.dims
        assert not modules_isomorphic(m, other)
    assert len(calls) == 2
