import numpy as np
import pytest

from gentledef.presentation import catalog_presentation, table1_catalog
from gentledef.strings import (
    HitsRelationError,
    Letter,
    NonComposableError,
    NotReducedError,
    StringError,
    StringWord,
    enumerate_strings,
    make_string,
    simple_module,
    string_module,
)


@pytest.fixture(scope="module")
def lam0():
    return catalog_presentation("qviii.1")


def test_parse_display_roundtrip(lam0):
    w = make_string(lam0, "b*c*a")
    assert w.letters == (Letter("a"), Letter("c"), Letter("b"))
    assert w.display() == "b*c*a"
    assert len(w) == 3


def test_simple_word(lam0):
    w = make_string(lam0, "simple 1")
    assert w.is_simple
    assert w.display() == "simple 1"
    assert w.canonical() is w


def test_hits_relation_position(lam0):
    with pytest.raises(HitsRelationError) as exc:
        make_string(lam0, "a*a")
    assert exc.value.position == 1


def test_non_composable_position(lam0):
    with pytest.raises(NonComposableError) as exc:
        make_string(lam0, "c*b")
    assert exc.value.position == 1


def test_not_reduced(lam0):
    with pytest.raises(NotReducedError):
        make_string(lam0, "~a*a")


def test_unknown_arrow_and_vertex(lam0):
    with pytest.raises(StringError):
        make_string(lam0, "z*a")
    with pytest.raises(StringError):
        make_string(lam0, "simple 9")


def test_mixed_pair_carries_no_ideal_condition(lam0):
    # d*c hits the ideal, but the mixed walk ~d then ... c*~a style pairs
    # are only constrained by composability and reduction.
    assert make_string(lam0, "~d*a").display() == "~d*a"
    assert make_string(lam0, "c*~a").display() == "c*~a"


def test_canonical_prefers_direct_letters(lam0):
    w = make_string(lam0, "~a*~c")
    assert w.canonical().display() == "c*a"
    v = make_string(lam0, "b*c*a")
    assert v.canonical() is v
    assert v.reverse_inverse().display() == "~a*~c*~b"


def _displays(p, max_len):
    return [w.display() for w in enumerate_strings(p, max_len)]


def test_enumerate_len0_and_len1(lam0):
    assert _displays(lam0, 0) == ["simple 1", "simple 2"]
    assert _displays(lam0, 1) == ["simple 1", "simple 2", "a", "b", "c", "d"]


def test_enumerate_len2_frozen(lam0):
    got = set(_displays(lam0, 2))
    want = {"simple 1", "simple 2", "a", "b", "c", "d",
            "c*a", "d*b", "b*c", "a*d", "~d*a", "~c*b", "c*~a", "d*~b"}
    assert got == want


def test_enumerate_len3_contains_key_words(lam0):
    got = set(_displays(lam0, 3))
    assert "b*c*a" in got
    assert "a*d*b" in got


def test_enumerate_deterministic(lam0):
    assert _displays(lam0, 4) == _displays(lam0, 4)


def test_enumerate_no_relation_algebra():
    p = catalog_presentation("qi.1")
    assert _displays(p, 1) == ["simple 1", "simple 2", "a", "b"]
    got = set(_displays(p, 2))
    assert "b*a" in got and "a*b" in got


def test_string_module_bca(lam0):
    m = string_module(lam0, make_string(lam0, "b*c*a"))
    assert m.dims == {"1": 2, "2": 2}
    assert m.walk == ["1", "1", "2", "2"]
    assert m.local == [0, 1, 0, 1]
    assert m.action["a"].tolist() == [[0, 0], [1, 0]]
    assert m.action["c"].tolist() == [[0, 1], [0, 0]]
    assert m.action["b"].tolist() == [[0, 0], [1, 0]]
    assert not m.action["d"].any()
    assert m.validate() == []


def test_string_module_single_arrow(lam0):
    m = string_module(lam0, make_string(lam0, "c"))
    assert m.dims == {"1": 1, "2": 1}
    assert m.action["c"].tolist() == [[1]]
    assert m.validate() == []


def test_simple_module_shapes(lam0):
    m = simple_module(lam0, "1")
    assert m.dims == {"1": 1, "2": 0}
    assert m.action["a"].shape == (1, 1) and not m.action["a"].any()
    assert m.action["c"].shape == (0, 1)
    assert m.validate() == []


def test_inverse_letter_module(lam0):
    # ~d*a applies a then the reverse of d: walk visits 1, 1, 2.
    m = string_module(lam0, make_string(lam0, "~d*a"))
    assert m.dims == {"1": 2, "2": 1}
    assert m.action["a"].tolist() == [[0, 0], [1, 0]]
    assert m.action["d"].tolist() == [[0], [1]]
    assert m.validate() == []


def test_module_dim_is_len_plus_one(lam0):
    for w in enumerate_strings(lam0, 4):
        m = string_module(lam0, w)
        assert m.total_dim == len(w) + 1


def test_all_catalog_modules_valid():
    for name, p in table1_catalog():
        for w in enumerate_strings(p, 6):
            m = string_module(p, w, q=2)
            assert m.validate() == [], (name, w.display())


def test_revinv_module_same_dims(lam0):
    w = make_string(lam0, "b*c*a")
    m = string_module(lam0, w)
    n = string_module(lam0, w.reverse_inverse())
    assert m.dims == n.dims


def test_total_action_nilpotent_detects_loop(lam0):
    m = simple_module(lam0, "1")
    m.action["a"] = np.array([[1]], dtype=np.int64)
    assert any("nilpotent" in msg for msg in m.validate())
