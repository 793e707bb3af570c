import itertools
import pickle
import random
import types
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from gentledef import strings
from gentledef.homext import end_is_trivial, ext1_dim, hom_dim
from gentledef.presentation import (
    Presentation,
    Quiver,
    catalog_presentation,
    parse_presentation,
    table1_catalog,
)
from gentledef.strings import (
    FinModule,
    Letter,
    StringError,
    StringWord,
    enumerate_strings,
    make_string,
    simple_module,
    string_entries,
    string_module,
    validate_word,
    word_end_is_trivial,
    word_hom_dim,
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


def test_only_the_first_token_simple_names_a_simple():
    p = parse_presentation(
        "vertices: 1 2\narrows: simplex: 1 -> 2 ; b: 2 -> 1\n")
    assert make_string(p, "simplex").letters == (Letter("simplex"),)
    assert make_string(p, "b*simplex").display() == "b*simplex"
    assert make_string(p, " simple 2 ").basepoint == "2"
    with pytest.raises(StringError, match="expected 'simple <vertex>'"):
        make_string(p, "simple")


def test_hits_relation_position(lam0):
    with pytest.raises(StringError, match="lies in the ideal") as exc:
        make_string(lam0, "a*a")
    assert exc.value.position == 1


def test_non_composable_position(lam0):
    with pytest.raises(StringError, match="do not compose") as exc:
        make_string(lam0, "c*b")
    assert exc.value.position == 1


def test_not_reduced(lam0):
    with pytest.raises(StringError, match="cancels") as exc:
        make_string(lam0, "~a*a")
    assert exc.value.position == 1


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


def test_pair_errors_keep_their_messages_and_positions(lam0):
    cases = [
        ("b*c*a*a", "path a*a lies in the ideal", 1),
        ("b*d*c*a", "path d*c lies in the ideal", 2),
        ("~a*~a", "reversed path a*a lies in the ideal", 1),
        ("a*b*c", "letters b then a do not compose", 2),
        ("b*c*a*~d", "letters ~d then a do not compose", 1),
        ("b*c*~c", "letter c cancels ~c", 1),
        ("z*a", "unknown arrow 'z'", 2),
    ]
    for text, message, position in cases:
        with pytest.raises(StringError) as exc:
            make_string(lam0, text)
        assert type(exc.value) is StringError, text
        assert str(exc.value) == message, text
        assert exc.value.position == position, text


def test_composes_builds_no_error_for_a_rejected_pair(monkeypatch):
    # _composes reads the pair rule's verdict; it neither raises nor
    # builds a StringError, so enumerate_strings builds none either.
    built = []
    real = StringError.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        real(self, *args, **kwargs)

    monkeypatch.setattr(StringError, "__init__", counted)
    rejected = 0
    for _, p in table1_catalog():
        letters = [Letter(a, inv) for inv in (False, True)
                   for a in p.quiver.arrow_names]
        for a, b in itertools.product(letters, repeat=2):
            rejected += not strings._composes(p, a, b)
        enumerate_strings(p, 4)
    assert rejected > 100 and built == []


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


def test_enumerate_matches_every_validated_letter_tuple():
    # The reference validates every tuple of letters with validate_word,
    # so enumerate_strings' successor table must admit exactly the pairs
    # that _check_pair does, in the same order.
    for _, p in table1_catalog():
        letters = [Letter(a, inv) for inv in (False, True)
                   for a in p.quiver.arrow_names]
        simples = [StringWord((), basepoint=v) for v in p.quiver.vertices]
        want = {w.sort_key(): w for w in simples}
        for length in (1, 2, 3):
            for word in itertools.product(letters, repeat=length):
                try:
                    validate_word(p, word)
                except StringError:
                    continue
                w = StringWord(word).canonical()
                want[w.sort_key()] = w
        got = enumerate_strings(p, 3)
        assert got == sorted(want.values(),
                             key=lambda w: (len(w), w.sort_key()))


def test_successor_table_is_kept_per_presentation(monkeypatch):
    # An equal presentation shares the table, which is read-only, and a
    # second enumeration tests no letter pair again.
    p = table1_catalog()[-1][1]
    table = strings._successors(p)
    assert strings._successors(parse_presentation(p.to_dsl())) is table
    with pytest.raises(TypeError):
        table[Letter("a")] = ()
    want = _enumerate_both_orientations(p, 3)
    calls = []
    monkeypatch.setattr(strings, "_composes",
                        lambda *args: calls.append(args))
    assert enumerate_strings(p, 3) == want
    assert calls == []


def _enumerate_both_orientations(p, max_len):
    """`enumerate_strings` as it was before it chose orientations while
    growing: every letter tuple, canonicalized into a dict."""
    found = {}
    for v in p.quiver.vertices:
        w = StringWord((), basepoint=v)
        found[w.sort_key()] = w
    letters = [Letter(a) for a in p.quiver.arrow_names] + \
              [Letter(a, inverse=True) for a in p.quiver.arrow_names]
    frontier = [(l,) for l in letters] if max_len >= 1 else []
    for length in range(1, max_len + 1):
        if length > 1:
            frontier = [t + (b,) for t in frontier for b in letters
                        if strings._composes(p, t[-1], b)]
        for t in frontier:
            w = StringWord(t).canonical()
            found[w.sort_key()] = w
    return sorted(found.values(), key=lambda w: (len(w), w.sort_key()))


def test_enumerate_matches_both_orientations_reference():
    for name, p in table1_catalog():
        for max_len in range(7):
            got = enumerate_strings(p, max_len)
            assert got == _enumerate_both_orientations(p, max_len), \
                (name, max_len)
            assert all(w.canonical() is w for w in got)


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
    assert m.walk == ("1", "1", "2", "2")
    assert m.local == (0, 1, 0, 1)
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


def test_string_entries_by_hand(lam0):
    assert string_entries(make_string(lam0, "b*c*a")) == [
        ("a", 0, 1), ("c", 1, 2), ("b", 2, 3)]
    # ~d*a: a sends z_0 to z_1, d sends z_2 back to z_1.
    assert string_entries(make_string(lam0, "~d*a")) == [
        ("a", 0, 1), ("d", 2, 1)]
    assert string_entries(make_string(lam0, "simple 2")) == []


@pytest.mark.parametrize("q", [2, 3, 5])
def test_string_entries_are_the_module_nonzeros(q):
    # Every nonzero of M[w]'s matrices is a 1, and placed on walk
    # positions through walk and local it is one of string_entries(w).
    words = 0
    for name, p in table1_catalog():
        for w in enumerate_strings(p, 4):
            for u in {w, w.reverse_inverse()}:
                m = string_module(p, u, q)
                position = {c: i for i, c in enumerate(zip(m.walk, m.local))}
                got = []
                for a, mat in m.action.items():
                    s, t = p.source(a), p.target(a)
                    for i, j in zip(*np.nonzero(mat)):
                        assert mat[i, j] == 1, (name, u.display(), a)
                        got.append((a, position[s, j], position[t, i]))
                assert sorted(got) == sorted(string_entries(u)), (
                    name, u.display())
                words += 1
    assert words > 800


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
    s1 = simple_module(lam0, "1")
    m = FinModule(presentation=lam0, q=2, dims=s1.dims,
                  action={**s1.action, "a": np.array([[1]])})
    assert any("nilpotent" in msg for msg in m.validate())


def test_every_mutation_of_a_module_raises(lam0):
    m = string_module(lam0, make_string(lam0, "b*c*a"))
    for name in ("presentation", "q", "dims", "action", "word"):
        with pytest.raises(FrozenInstanceError):
            setattr(m, name, getattr(m, name))
    with pytest.raises(FrozenInstanceError):
        m.q = 3
    with pytest.raises(TypeError):
        m.dims["1"] = 3
    with pytest.raises(TypeError):
        del m.dims["2"]
    with pytest.raises(TypeError):
        m.action["a"] = np.zeros((2, 2), dtype=np.int64)
    with pytest.raises(ValueError):
        m.action["a"][0, 0] = 1
    for name in ("sparse_action", "negated_action"):
        sparse = getattr(m, name)
        with pytest.raises(TypeError):
            sparse["a"] = ((2, 2), ())
        shape, entries = sparse["a"]
        with pytest.raises(AttributeError):
            entries.append((0, 0, 1))
        with pytest.raises(AttributeError):
            entries.clear()
        assert len(entries) == 1
    assert m.dims == {"1": 2, "2": 2} and m.action["a"][0, 0] == 0
    assert hom_dim(m, m) == 1 and ext1_dim(m, m) == 2


def test_editing_the_constructor_dicts_leaves_the_module_alone(lam0):
    s1 = simple_module(lam0, "1")
    dims, action = dict(s1.dims), dict(s1.action)
    m = FinModule(presentation=lam0, q=2, dims=dims, action=action)
    want = dict(m.action)
    dims["2"] = 1
    action["c"] = np.ones((1, 1), dtype=np.int64)
    del action["a"]
    assert m.dims == {"1": 1, "2": 0}
    assert m.action.keys() == want.keys()
    assert all(m.action[a] is want[a] for a in want)
    assert m.word is None and m.walk is None and m.local is None


def test_modules_compare_by_identity(lam0):
    for text in ("c", "b*c*a"):
        w = make_string(lam0, text)
        m, n = string_module(lam0, w), string_module(lam0, w)
        assert m == m and m != n and len({m, n}) == 2
        back = pickle.loads(pickle.dumps(m))
        assert back.word == w and back.dims == m.dims and back != m
        assert all(np.array_equal(back.action[a], m.action[a])
                   for a in m.action)


def _loop_module(T, q):
    """A module of one vertex and one loop, relation-free, acting by T."""
    p = Presentation(Quiver(("1",), (("x", "1", "1"),)), ())
    return FinModule(presentation=p, q=q, dims={"1": T.shape[0]},
                     action={"x": T})


def _nilpotent_by_n_products(T, q):
    P = np.eye(T.shape[0], dtype=np.int64)
    for _ in range(T.shape[0]):
        P = P @ T % q
    return not P.any()


@pytest.mark.parametrize("q", [2, 3])
def test_nilpotence_by_squaring_matches_n_products(q):
    """`validate`'s repeated squaring flags exactly the matrices T with
    T^N != 0, N being the total dimension."""
    rng = np.random.default_rng(q)
    cases = []
    for n in (0, 1, 2, 3, 5):
        jordan = np.eye(n, k=-1, dtype=np.int64)
        cases += [jordan, (jordan + np.eye(n, dtype=np.int64)) % q,
                  np.zeros((n, n), dtype=np.int64)]
        cases += [rng.integers(0, q, (n, n)) for _ in range(40)]
        # Strictly lower triangular, conjugated by a permutation: nilpotent.
        for _ in range(20):
            perm = np.eye(n, dtype=np.int64)[rng.permutation(n)]
            L = np.tril(rng.integers(0, q, (n, n)), k=-1)
            cases.append(perm @ L @ perm.T)
    seen = {True: 0, False: 0}
    for T in cases:
        want = _nilpotent_by_n_products(T, q)
        if len(T) > 1 and np.array_equal(T, np.eye(len(T), k=-1)):
            # The Jordan block of index N: T^(N-1) != 0 = T^N.
            assert np.linalg.matrix_power(T, len(T) - 1).any() and want
        problems = _loop_module(T, q).validate()
        assert (not any("nilpotent" in msg for msg in problems)) == want, T
        seen[want] += 1
    assert min(seen.values()) > 50, seen


def test_word_end_matches_linear_end_on_the_catalog():
    """Every catalog string up to length 8: the word test and the linear
    Hom reduction agree on End = k."""
    count = {True: 0, False: 0}
    for name, p in table1_catalog():
        for w in enumerate_strings(p, 8):
            want = end_is_trivial(string_module(p, w, 2))
            assert word_end_is_trivial(p, w) == want, (name, w.display())
            count[want] += 1
    assert sum(count.values()) == 5906 and min(count.values()) > 100, count


@pytest.mark.parametrize("q", [2, 3, 5])
def test_word_hom_matches_linear_hom_on_sampled_pairs(q):
    rng = random.Random(q)
    nonzero = 0
    for name, p in table1_catalog():
        words = enumerate_strings(p, 4)
        for _ in range(40):
            v, w = rng.choice(words), rng.choice(words)
            if rng.random() < 0.5:
                v = v.reverse_inverse()
            want = hom_dim(string_module(p, v, q), string_module(p, w, q))
            assert word_hom_dim(p, v, w) == want, (name, v.display(),
                                                   w.display())
            nonzero += want > 0
    assert nonzero > 100


def test_word_hom_counts_the_identity_and_the_graph_maps(lam0):
    w = make_string(lam0, "b*c*a")
    assert word_hom_dim(lam0, w, w) == 1 and word_end_is_trivial(lam0, w)
    # M[c*a] is z_0 -a-> z_1 -c-> z_2 at vertices 1, 1, 2: its top S_1 at
    # z_0 is its only trivial factor and its socle S_2 at z_2 its only
    # trivial image.  M[a] maps its top z_0 onto its socle z_1.
    s1, s2 = (make_string(lam0, f"simple {v}") for v in "12")
    ca = make_string(lam0, "c*a")
    assert word_hom_dim(lam0, ca, s1) == 1 and word_hom_dim(lam0, s1, ca) == 0
    assert word_hom_dim(lam0, s2, ca) == 1 and word_hom_dim(lam0, ca, s2) == 0
    a = make_string(lam0, "a")
    assert word_hom_dim(lam0, a, a) == 2 and not word_end_is_trivial(lam0, a)


def test_word_engine_shares_no_code_with_linear_engine():
    """word_hom_dim, word_end_is_trivial and every helper they reach stay
    off linalg and homext."""
    forbidden = {"LinearSystem", "hom_system", "hom_dim", "end_is_trivial",
                 "_reduce"}
    names, seen = set(), set()
    stack = [strings.word_hom_dim.__code__,
             strings.word_end_is_trivial.__code__]
    while stack:
        code = stack.pop()
        if code in seen:
            continue
        seen.add(code)
        names.update(code.co_names)
        stack.extend(c for c in code.co_consts
                     if isinstance(c, types.CodeType))
        for name in code.co_names:
            target = vars(strings).get(name)
            if isinstance(target, types.FunctionType):
                stack.append(target.__code__)
            assert getattr(target, "__module__", None) not in (
                "gentledef.linalg", "gentledef.homext"), name
    assert strings._segments.__code__ in seen
    assert strings._walk.__code__ in seen
    assert not names & forbidden, names & forbidden
