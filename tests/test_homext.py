import itertools

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


def _all_pairs_agree(p, max_len):
    from gentledef.strings import enumerate_strings
    mods = [string_module(p, w) for w in enumerate_strings(p, max_len)]
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
