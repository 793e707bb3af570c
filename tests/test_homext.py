import itertools
import math
import types

import numpy as np
import pytest

from gentledef.homext import (
    BudgetExceededError,
    brute_force_ext,
    classify_trivial_end,
    coboundary_dim,
    cocycle_dim,
    end_is_trivial,
    ext1_dim,
    hom_basis,
    hom_dim,
)
from gentledef.presentation import catalog_presentation
from gentledef.strings import make_string, simple_module, string_module


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
            m.provenance, n.provenance)


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
    seen = {"m != n": False, "loop relation": False, "0 x k block": False}
    for name in ["qviii.1", "qvi.1", "qiii.1"]:
        p = catalog_presentation(name)
        mods = [string_module(p, w, q=q) for w in enumerate_strings(p, 2)]
        for m, n in itertools.product(mods, repeat=2):
            shapes = [(n.dims[p.target(a)], m.dims[p.source(a)])
                      for a in p.quiver.arrow_names]
            if sum(r * c for r, c in shapes) > max_width:
                continue
            assert brute_force_ext(m, n) == _reference_ext(m, n), (
                name, m.provenance, n.provenance)
            seen["m != n"] |= m is not n
            seen["loop relation"] |= any(b == a for b, a in p.relations)
            seen["0 x k block"] |= any(r == 0 < c for r, c in shapes)
    assert all(seen.values()), seen


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


def test_hom_and_ext_dimensions_never_go_dense(monkeypatch):
    """hom_dim and ext1_dim reduce sparse rows: no matrix(), no np.eye."""
    from gentledef import linalg
    from gentledef.homext import ext_system, hom_system
    from gentledef.presentation import table1_catalog
    from gentledef.strings import enumerate_strings
    cases = []
    for q in (2, 3):
        for _, p in table1_catalog():
            mods = [string_module(p, w, q=q) for w in enumerate_strings(p, 2)]
            for m, n in itertools.product(mods, repeat=2):
                hom, ext = hom_system(m, n), ext_system(m, n)
                hom_rank = linalg.rank(hom.matrix(), q)
                ext_rank = linalg.rank(ext.matrix(), q)
                cases.append((m, n, hom.width - hom_rank,
                              ext.width - ext_rank - hom_rank))

    def dense(*args, **kwargs):
        raise AssertionError("the Hom/Ext dimension path went dense")

    monkeypatch.setattr(linalg.LinearSystem, "matrix", dense)
    monkeypatch.setattr(np, "eye", dense)
    for m, n, hom, ext in cases:
        assert hom_dim(m, n) == hom, (m.provenance, n.provenance)
        assert ext1_dim(m, n) == ext, (m.provenance, n.provenance)
    assert len(cases) > 1000
