import dataclasses
import sys
import types

import numpy as np
import pytest

from gentledef import homext, udr
from gentledef.claims import paper_agreement, published_ring
from gentledef.homext import end_is_trivial, ext1_dim, modules_isomorphic
from gentledef.linalg import Presolved, rref
from gentledef.presentation import LAMBDA0, catalog_presentation, table1_catalog
from gentledef.strings import (
    FinModule,
    Letter,
    StringError,
    StringWord,
    enumerate_strings,
    make_string,
    string_entries,
    string_module,
    validate_word,
)
from gentledef.udr import (
    ConnectingLetter,
    SigmaStep,
    build_sequence,
    connecting_letters,
    universal_deformation_ring,
)
from test_homext import _counting_hom_reductions
from test_linalg import _nullspace, _system


@pytest.fixture(scope="module")
def lam0():
    return catalog_presentation(LAMBDA0)


def _mod(p, text, q=2):
    return string_module(p, make_string(p, text), q)


def _connector_map(p, text):
    w = make_string(p, text)
    return {c.letter.display(): c for c in connecting_letters(p, w)}


def test_simple_one_connector_is_the_loop(lam0):
    cons = _connector_map(lam0, "simple 1")
    assert sorted(cons) == ["a"]
    assert cons["a"].form == "direct"
    assert cons["a"].word.display() == "a"


def test_three_letter_word_has_two_infinite_connectors(lam0):
    cons = _connector_map(lam0, "b*c*a")
    assert sorted(cons) == ["d", "~c"]
    assert {c.form for c in cons.values()} == {"direct"}


def test_two_letter_word_connector_is_reflected(lam0):
    cons = _connector_map(lam0, "c*a")
    assert sorted(cons) == ["b"]
    assert cons["b"].form == "reflected"
    assert cons["b"].word.display() == "~a*~c*b*c*a"


def test_mirror_word_connector_is_reflected_on_the_other_side(lam0):
    cons = _connector_map(lam0, "a*d")
    assert sorted(cons) == ["b"]
    assert cons["b"].form == "reflected"
    assert cons["b"].word.display() == "a*d*b*~d*~a"


def test_single_letter_word_has_two_reflected_connectors(lam0):
    cons = _connector_map(lam0, "c")
    assert sorted(cons) == ["a", "b"]
    assert cons["b"].word.display() == "~c*b*c"
    assert cons["a"].word.display() == "c*a*~c"


def _full_word(p, letters):
    """The word of letters, validated in full, or None."""
    try:
        validate_word(p, letters)
    except StringError:
        return None
    return StringWord(letters)


def _reference_connecting_letters(p, w):
    """`connecting_letters` validating every candidate word in full."""
    if w.is_simple:
        start = end = w.basepoint
    else:
        start, end = w.letters[0].source(p), w.letters[-1].target(p)
    letters = [Letter(a, inv) for inv in (False, True)
               for a in p.quiver.arrow_names]
    tries = [(x, "direct", w.letters + (x,) + w.letters) for x in letters
             if x.source(p) == end and x.target(p) == start]
    if not w.is_simple:
        back = w.reverse_inverse().letters
        tries += [(x, "reflected", w.letters + (x,) + back) for x in letters
                  if x.source(p) == end and x.target(p) == end]
        tries += [(x, "reflected", back + (x,) + w.letters) for x in letters
                  if x.source(p) == start and x.target(p) == start]
    found, seen = [], set()
    for x, form, word in tries:
        word = _full_word(p, word)
        if word is not None and word.canonical().sort_key() not in seen:
            seen.add(word.canonical().sort_key())
            found.append((x, form, word))
    return found


def test_seam_checks_agree_with_full_validation(monkeypatch):
    """`connecting_letters` checks only the letter pairs at x, w having
    been validated once, and `build_sequence` validates only the
    connector's word; for every catalog word of length at most 4, in
    both orientations, the connectors agree with validating each whole
    word, and a direct connector's chain is (w x)^n w, infinite exactly
    when (w x)^n w validates in full for n = 2..4.  A reflected chain is
    finite.  A valid w makes `connecting_letters` build no StringError
    at all.  An invalid w has no connectors, and a hand-made one
    raises."""
    built = []
    real = StringError.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        real(self, *args, **kwargs)

    monkeypatch.setattr(StringError, "__init__", counted)
    kinds = {"Infinite": 0, "Finite": 0, "reflected": 0}
    for name, p in table1_catalog():
        for w in enumerate_strings(p, 4):
            for u in {w, w.reverse_inverse()}:
                built.clear()
                connectors = connecting_letters(p, u)
                assert not built, (name, u.display())
                got = [(c.letter, c.form, c.word) for c in connectors]
                assert got == _reference_connecting_letters(p, u), (
                    name, u.display())
                for c in connectors:
                    report = build_sequence(string_module(p, u), c)
                    context = (name, u.display(), c.letter.display())
                    if c.form == "reflected":
                        assert report.kind == "Finite", context
                        kinds["reflected"] += 1
                        continue
                    chain = u.letters + (c.letter,)
                    assert len(report.words) == {
                        "Infinite": udr.CHAIN_LENGTH + 1,
                        "Finite": 2}[report.kind], context
                    assert [v.letters for v in report.words] == [
                        chain * n + u.letters
                        for n in range(len(report.words))], context
                    for n in range(2, 5):
                        full = _full_word(p, chain * n + u.letters)
                        assert (full is not None) == (
                            report.kind == "Infinite"), (context, n)
                    kinds[report.kind] += 1
    assert kinds == {"Infinite": 521, "Finite": 6, "reflected": 228}, kinds
    p = catalog_presentation(LAMBDA0)
    # d*c lies in the ideal, but a would pass both seams of d*c*a*d*c.
    bad = StringWord((Letter("c"), Letter("d")))
    assert udr._composes(p, Letter("d"), Letter("a"))
    assert udr._composes(p, Letter("a"), Letter("c"))
    assert _reference_connecting_letters(p, bad) == []
    assert connecting_letters(p, bad) == []
    made = ConnectingLetter(Letter("a"), "direct",
                            StringWord(bad.letters + (Letter("a"),)
                                       + bad.letters))
    with pytest.raises(ValueError, match="does not connect"):
        build_sequence(string_module(p, bad), made)


def _chain(p, text, letter):
    """build_sequence from M[text] along the connecting letter shown as
    letter."""
    return build_sequence(string_module(p, make_string(p, text)),
                          _connector_map(p, text)[letter])


def _dense_sigma(step, p):
    """step.sigma as a 0/1 matrix on the total space of M[step.word]."""
    V = string_module(p, step.word)
    return _dense_map(step.sigma, V, V)


def test_sequence_simple_is_finite_with_square_zero_map(lam0):
    report = _chain(lam0, "simple 1", "a")
    assert report.kind == "Finite"
    assert report.n_value == 1
    assert [x.display() for x in report.words] == ["simple 1", "a"]
    step = report.steps[0]
    assert step.ok
    assert step.power_rank == 1
    sigma = _dense_sigma(step, lam0)
    assert not (sigma @ sigma % 2).any()


def test_sequence_long_word_is_infinite_with_verified_collapses(lam0):
    report = _chain(lam0, "b*c*a", "d")
    assert report.kind == "Infinite"
    assert report.n_value is None
    assert [len(x) for x in report.words] == [3, 7, 11, 15, 19]
    assert len(report.steps) == 4
    for step in report.steps:
        assert step.ok
        assert step.kernel_dim == 4
        assert step.power_rank == 4
        sigma = _dense_sigma(step, lam0)
        power = np.linalg.matrix_power(sigma, step.level + 1) % 2
        assert not power.any()


def test_sequence_reflected_collapse(lam0):
    report = _chain(lam0, "c*a", "b")
    assert report.kind == "Finite"
    assert report.steps[0].ok
    assert report.steps[0].kernel_dim == 3


def test_build_sequence_builds_only_the_chain_modules(lam0, monkeypatch):
    # The steps read the chain words on walk positions; only a finite
    # chain's last word gets a module, for the hypotheses.
    built = []
    real = udr.string_module

    def counted(p, w, q=2):
        built.append(w)
        return real(p, w, q)

    monkeypatch.setattr(udr, "string_module", counted)
    for text, letter, kind in (("simple 1", "a", "Finite"),
                               ("c*a", "b", "Finite"),
                               ("b*c*a", "d", "Infinite")):
        built.clear()
        report = _chain(lam0, text, letter)
        assert report.kind == kind
        if kind == "Finite":
            assert built == report.words[-1:] == [report.last_module.word]
        else:
            assert built == [] and report.last_module is None
    s1 = real(lam0, make_string(lam0, "simple 1"))
    loop = _connector_map(lam0, "simple 1")["a"]
    raw = FinModule(presentation=lam0, q=2, dims=s1.dims, action=s1.action)
    with pytest.raises(ValueError, match="string module"):
        build_sequence(raw, loop)
    wide = FinModule(presentation=lam0, q=2, dims={"1": 2, "2": 0},
                     action={a: np.zeros((0, 0), dtype=np.int64)
                             for a in s1.action}, word=s1.word)
    with pytest.raises(ValueError, match="string module"):
        build_sequence(wide, loop)


def test_udr_rebuilds_no_chain_module(lam0, monkeypatch):
    # The hypotheses read each finite chain's last module off its report.
    built = []
    real = udr.string_module

    def counted(p, w, q=2):
        built.append((sys._getframe(1).f_code.co_name, w))
        return real(p, w, q)

    monkeypatch.setattr(udr, "string_module", counted)
    for text in ("simple 1", "c*a", "a*d"):
        built.clear()
        d = udr.universal_deformation_ring(
            real(lam0, make_string(lam0, text)), 1)
        assert d.evidence["hypotheses"], text
        chain = {w for caller, w in built if caller == "build_sequence"}
        rebuilt = {w for caller, w in built if caller != "build_sequence"}
        assert chain and not rebuilt & chain, text


def test_sequence_rejects_non_connector(lam0):
    # A connector of another word: its chain word does not join two
    # copies of V's word, or (simple 2's loop b) not at V's vertex.
    for text, other, letter in (("simple 1", "simple 2", "b"),
                                ("simple 1", "c*a", "b"),
                                ("simple 1", "b*c*a", "d"),
                                ("c*a", "simple 1", "a"),
                                ("b*c*a", "c*a", "b")):
        V = string_module(lam0, make_string(lam0, text))
        with pytest.raises(ValueError, match="does not connect"):
            build_sequence(V, _connector_map(lam0, other)[letter])
    # c*a's own connector under the other form.
    V = string_module(lam0, make_string(lam0, "c*a"))
    own = _connector_map(lam0, "c*a")["b"]
    build_sequence(V, own)
    with pytest.raises(ValueError, match="does not connect"):
        build_sequence(V, dataclasses.replace(own, form="direct"))
    # A direct join of c*a around d whose word is no string: d*c lies in
    # the ideal.
    w = make_string(lam0, "c*a")
    d = ConnectingLetter(Letter("d"), "direct",
                         StringWord(w.letters + (Letter("d"),) + w.letters))
    with pytest.raises(ValueError, match="does not connect"):
        build_sequence(V, d)


def test_udr_simple_modules_are_dual_numbers(lam0):
    for v in ("1", "2"):
        d = universal_deformation_ring(_mod(lam0, f"simple {v}"))
        assert d.ring == "k[[t]]/(t^2)"
        assert d.tangent_dim == 1
        assert d.paper_agreement == "agrees"
        assert d.evidence["census"]["census"] == [[1, 1], [2, 2], [3, 2]]
        assert d.evidence["census"]["matches"] == ["k[[t]]/(t^2)"]


def test_udr_two_letter_word_disagrees_with_published_table(lam0):
    d = universal_deformation_ring(_mod(lam0, "c*a"))
    assert d.ring == "k[[t]]/(t^2)"
    assert d.tangent_dim == 1
    assert d.paper_agreement == "disagrees"
    hyp = d.evidence["hypotheses"]["~a*~c*b*c*a"]
    assert hyp == {"hom_dim": 1, "ext1_dim": 0}


def test_each_hypothesis_pair_reduces_one_hom_system(lam0, monkeypatch):
    # hom_dim(v_last, V) and then ext1_dim(v_last, V) share one reduction.
    reduced = _counting_hom_reductions(monkeypatch)
    d = universal_deformation_ring(_mod(lam0, "c*a"), n_max=1)
    hyps = d.evidence["hypotheses"]
    pairs = [(m, n) for m, n in reduced if m is not n]
    assert len(pairs) == len(hyps) >= 1
    assert all(n.word.display() == "c*a" for _, n in pairs)
    assert len({id(m) for m, _ in pairs}) == len(pairs)


def test_udr_all_four_two_letter_words_close_the_same_way(lam0):
    for text in ("a*d", "d*b", "b*c"):
        d = universal_deformation_ring(_mod(lam0, text))
        assert d.ring == "k[[t]]/(t^2)"
        assert d.paper_agreement == "disagrees"


def test_udr_one_letter_word_is_undetermined(lam0):
    d = universal_deformation_ring(_mod(lam0, "c"))
    assert d.ring == "undetermined"
    assert d.tangent_dim == 2
    assert d.paper_agreement == "disagrees"
    assert d.evidence["census"]["census"] == [[1, 1], [2, 4], [3, 4]]
    assert d.evidence["census"]["matches"] == []


def test_udr_three_letter_word_is_undetermined(lam0):
    d = universal_deformation_ring(_mod(lam0, "b*c*a"))
    assert d.ring == "undetermined"
    assert d.tangent_dim == 2
    assert d.paper_agreement == "disagrees"
    assert d.evidence["census"]["census"] == [[1, 1], [2, 4], [3, 12]]
    assert d.evidence["census"]["matches"] == []


def test_udr_power_series_case():
    p = catalog_presentation("qiv.1")
    d = universal_deformation_ring(_mod(p, "simple 1"))
    assert d.ring == "k[[t]]"
    assert d.tangent_dim == 1
    assert d.paper_agreement == "agrees"
    assert d.evidence["census"]["matches"] == ["k[[t]]"]


def test_udr_rigid_module_is_the_field():
    p = catalog_presentation("qiv.1")
    d = universal_deformation_ring(_mod(p, "simple 2"))
    assert d.ring == "k"
    assert d.tangent_dim == 0
    assert d.paper_agreement == "agrees"


def test_udr_rejects_nontrivial_endomorphisms(lam0):
    with pytest.raises(ValueError) as err:
        universal_deformation_ring(_mod(lam0, "a"))
    assert str(err.value) == (
        "universal deformation ring not guaranteed for End(V) != k")


def test_udr_json_shape(lam0):
    d = universal_deformation_ring(_mod(lam0, "simple 1"))
    out = d.as_dict()
    assert set(out) == {"ring", "tangent_dim", "evidence", "paper_agreement"}
    assert out["ring"] == "k[[t]]/(t^2)"
    assert out["evidence"]["chosen"]["letter"] == "a"


def test_udr_field_independence(lam0):
    for q in (2, 3, 5):
        d = universal_deformation_ring(_mod(lam0, "c*a", q))
        assert d.ring == "k[[t]]/(t^2)"
        assert d.evidence["census"]["census"][1] == [2, q]


def test_published_ring_lookup(lam0):
    assert published_ring(lam0, make_string(lam0, "b*c*a")) == "k[[t]]"
    assert published_ring(lam0, make_string(lam0, "~a*~c*~b")) == "k[[t]]"
    assert published_ring(lam0, make_string(lam0, "c*a*~c")) is None
    other = catalog_presentation("qiv.1")
    assert published_ring(other, make_string(other, "simple 1")) is None


def test_paper_agreement_trichotomy_cases():
    p = catalog_presentation("qiv.1")
    w = make_string(p, "simple 1")
    assert paper_agreement(p, w, "k[[t]]", 1) == "agrees"
    # A certified ring outside the trichotomy contradicts it.
    assert paper_agreement(p, w, "k[[x,y]]/(xy)", 2) == "disagrees"
    assert paper_agreement(p, w, "k[[t]]/(t^3)", 1) == "disagrees"
    assert paper_agreement(p, w, "undetermined", 2) == "disagrees"
    assert paper_agreement(p, w, "undetermined", 1) == "not-stated"


def test_paper_agreement_census_fallback(lam0):
    w = make_string(lam0, "simple 1")
    verdict = paper_agreement(lam0, w, "undetermined", 1,
                              census_unique="k[[t]]/(t^2)")
    assert verdict == "agrees"
    verdict = paper_agreement(lam0, w, "undetermined", 1, census_unique="k")
    assert verdict == "disagrees"
    assert paper_agreement(lam0, w, "undetermined", 1) == "not-stated"


def _reference_submodule(V, cols):
    """The span of the columns of cols as a module, or None, by row
    reduction: with `modules_isomorphic`, the reference for
    `udr._kernel_is_copy`."""
    p, q = V.presentation, V.q
    off = V.vertex_offsets()
    local_bases = {}
    split_rank = 0
    for v in p.quiver.vertices:
        R, pivots = rref(cols[off[v]:off[v] + V.dims[v], :].T, q)
        local_bases[v] = R[:len(pivots)]
        split_rank += len(pivots)
    if split_rank != len(rref(cols.T, q)[1]):
        return None
    dims = {v: local_bases[v].shape[0] for v in p.quiver.vertices}
    action = {}
    for a in p.quiver.arrow_names:
        s, t = p.source(a), p.target(a)
        imaged = V.action[a] @ local_bases[s].T % q
        if imaged.size == 0:
            action[a] = np.zeros((dims[t], dims[s]), dtype=np.int64)
            continue
        X, ok = Presolved(_system(local_bases[t].T, q)).solve_many(imaged)
        if not ok.all():
            return None
        action[a] = X
    sub = FinModule(presentation=p, q=q, dims=dims, action=action)
    return sub if not sub.validate() else None


def _walk_coordinates(V):
    """The total-space coordinate of each walk position z_i of V."""
    off = V.vertex_offsets()
    return [off[v] + l for v, l in zip(V.walk, V.local)]


def _dense_map(dst, X, Y):
    """The 0/1 matrix E: X -> Y in total-space coordinates of an index
    map dst on walk positions: E[y, x] = 1 where position i of X sits at
    coordinate x and dst[i], a position of Y, at coordinate y."""
    x_coords, y_coords = _walk_coordinates(X), _walk_coordinates(Y)
    E = np.zeros((Y.total_dim, X.total_dim), dtype=np.int64)
    for i, d in enumerate(dst):
        if d >= 0:
            E[y_coords[d], x_coords[i]] = 1
    return E


def _reference_step(v0, V, level, form, seen):
    """The collapse-map check on dense matrices of the modules v0 and
    V = M[word] that `string_module` builds, with spans from the
    textbook nullspace and rref.  Its sigma is the accepted candidate's
    dense matrix S."""
    q, D, word = v0.q, v0.total_dim, V.word
    chain, copy_of = udr._word_walk(V.presentation, word), udr._module_walk(v0)
    step = SigmaStep(level=level, word=word, sigma=None)
    for dst in udr._sigma_candidates(V.total_dim, D, form):
        S = _dense_map(dst, V, V)
        assert not (S.sum(axis=1) > 1).any(), (word.display(), dst)
        ker = _nullspace(S, q)
        P = np.linalg.matrix_power(S, level) % q
        R, pivots = rref(P.T, q)
        # Every candidate's kernel, accepted or not, so that coordinate
        # sets the arrows do not keep stable are compared too.
        sub = _reference_submodule(V, ker.T)
        copy = sub is not None and modules_isomorphic(sub, v0)
        assert udr._kernel_is_copy(copy_of, chain, dst) == copy, (
            word.display(), level, dst)
        seen["unstable coordinate set"] |= sub is None
        seen["copy"] |= copy
        if not _reference_is_hom(V, V, S)[0] or ker.shape[0] != D:
            seen["rejected candidate"] = True
            continue
        step.sigma = S
        step.kernel_dim = D
        step.kernel_is_v0 = copy
        step.power_rank = len(rref(P, q)[1])
        img = _reference_submodule(V, R[:len(pivots)].T)
        step.image_power_is_v0 = (step.power_rank == D and img is not None
                                  and modules_isomorphic(img, v0))
        step.nilpotent = not (P @ S % q).any()
        break
    return step


def _assert_same_step(got, want, V, context):
    assert (got.sigma is None) == (want.sigma is None), context
    if want.sigma is not None:
        assert len(got.sigma) == len(V.walk), context
        assert got.sigma.count(-1) == got.kernel_dim, context
        assert np.array_equal(_dense_map(got.sigma, V, V), want.sigma), \
            context
    for key in ("kernel_dim", "kernel_is_v0", "image_power_is_v0",
                "power_rank", "nilpotent"):
        assert getattr(got, key) == getattr(want, key), (context, key)


@pytest.mark.parametrize("q", [2, 3])
def test_sigma_steps_match_row_reduction_reference(q):
    """Collapse maps read as index maps on the chain words' walk positions
    give the SigmaStep fields that dense matrices of the chain modules
    built by `string_module` give when their kernel and image spans are
    row-reduced and their module property is checked by per-vertex
    blocks.  An accepted sigma has one entry per walk position of its
    word, kernel_dim of them -1, and its dense view is the reference's
    matrix.

    Every chain step of the catalog passes its checks, so each step is
    also checked against a decoy: another word of the same length, whose
    module has the dimension of v0 but is not isomorphic to it.  On
    every candidate, accepted or not, `udr._kernel_is_copy` must agree
    with the row-reduced kernel span and `modules_isomorphic`.
    """
    seen = dict.fromkeys(["rejected candidate", "failed kernel or image",
                          "unstable coordinate set", "copy", "reflected",
                          "Infinite"], False)
    steps = 0
    for name, p in table1_catalog():
        words = enumerate_strings(p, 3)
        for w in words:
            v0 = string_module(p, w, q)
            if not end_is_trivial(v0):
                continue
            decoys = [string_module(p, u, q) for u in words
                      if len(u) == len(w) and u != w][:1]
            for c in connecting_letters(p, w):
                report = build_sequence(v0, c)
                seen["reflected"] |= c.form == "reflected"
                seen["Infinite"] |= report.kind == "Infinite"
                for step in report.steps:
                    V = string_module(p, step.word, q)
                    context = (name, w.display(), c.letter.display(),
                               step.level)
                    args = (V, step.level, c.form)
                    _assert_same_step(
                        step, _reference_step(v0, *args, seen), V, context)
                    for decoy in decoys:
                        want = _reference_step(decoy, *args, seen)
                        got = udr._verify_sigma(
                            udr._module_walk(decoy), udr._word_walk(p, V.word),
                            step.level, c.form, step.word)
                        _assert_same_step(got, want, V, context + ("decoy",))
                        seen["failed kernel or image"] |= (
                            want.sigma is not None and not (
                                want.kernel_is_v0
                                and want.image_power_is_v0))
                    steps += 1
    assert all(seen.values()), seen
    assert steps > 100


def _reference_is_hom(X, Y, E):
    """Whether the dense (dim Y) x (dim X) matrix E is a module map
    X -> Y, and for each arrow whether E's diagonal blocks intertwine
    its actions, from per-vertex blocks: the reference for
    `udr._is_homomorphism`."""
    p, q = X.presentation, X.q
    x_off, y_off = X.vertex_offsets(), Y.vertex_offsets()
    xb = {v: slice(x_off[v], x_off[v] + X.dims[v]) for v in p.quiver.vertices}
    yb = {v: slice(y_off[v], y_off[v] + Y.dims[v]) for v in p.quiver.vertices}
    crosses = any(E[yb[u], xb[v]].any()
                  for u in p.quiver.vertices for v in p.quiver.vertices
                  if u != v)
    commutes = []
    for a in p.quiver.arrow_names:
        s, t = p.source(a), p.target(a)
        lhs = E[yb[t], xb[t]] @ X.action[a]
        rhs = Y.action[a] @ E[yb[s], xb[s]]
        commutes.append(not ((lhs - rhs) % q).any())
    return not crosses and all(commutes), crosses, commutes


def _random_partial_permutation(rng, total, groups):
    """A random injective index map on range(total), -1 where it kills,
    that maps each position into its own group (groups is a list of
    index arrays)."""
    dst = np.full(total, -1, dtype=np.int64)
    for idx in groups:
        kept = idx[rng.random(len(idx)) < 0.7]
        dst[kept] = rng.permutation(idx)[:len(kept)]
    return dst.tolist()


@pytest.mark.parametrize("q", [2, 3])
def test_module_endo_matches_block_reference(q):
    """`udr._is_homomorphism` on index maps of walk positions agrees with
    per-vertex blocks and per-arrow intertwining of the dense matrices of
    the modules that `string_module` builds, whether the entries are read
    off the word or from the module's matrices.  Endomorphisms of chain
    modules V: the collapse-map candidates, the identity and random
    partial permutations.  Maps v0 -> V from v0 = M[w]: z_j sent to each
    run of dim v0 consecutive walk positions of V, in walk order and
    reversed, and random injections that keep the vertices."""
    rng = np.random.default_rng(q)
    seen = dict.fromkeys(["endomorphism", "crosses vertices",
                          "commutes with some arrows only",
                          "embedding", "vertex-keeping non-embedding"], False)
    maps = embeddings = 0
    for _, p in table1_catalog():
        for w in enumerate_strings(p, 2):
            v0 = string_module(p, w, q)
            sources = (udr._word_walk(p, w), udr._module_walk(v0))
            for c in connecting_letters(p, w):
                V = string_module(p, c.word, q)
                targets = (udr._word_walk(p, c.word), udr._module_walk(V))
                total = V.total_dim
                walk = np.array(V.walk)
                by_vertex = [np.flatnonzero(walk == v)
                             for v in p.quiver.vertices]
                candidates = udr._sigma_candidates(total, total // 2, c.form)
                candidates.append(list(range(total)))
                for _ in range(3):
                    candidates.append(_random_partial_permutation(
                        rng, total, [np.arange(total)]))
                    candidates.append(_random_partial_permutation(
                        rng, total, by_vertex))
                for dst in candidates:
                    want, crosses, commutes = _reference_is_hom(
                        V, V, _dense_map(dst, V, V))
                    assert all(udr._is_homomorphism(X, X, dst) == want
                               for X in targets), (
                        w.display(), c.letter.display(), dst)
                    seen["endomorphism"] |= want
                    seen["crosses vertices"] |= crosses
                    seen["commutes with some arrows only"] |= (
                        not crosses and any(commutes) and not all(commutes))
                    maps += 1
                D = v0.total_dim
                injections = []
                for start in range(total - D + 1):
                    run = list(range(start, start + D))
                    injections += [run, run[::-1]]
                own = np.array(v0.walk)
                for _ in range(3):
                    e = np.full(D, -1)
                    for v, group in zip(p.quiver.vertices, by_vertex):
                        mine = np.flatnonzero(own == v)
                        e[mine] = rng.choice(group, len(mine), replace=False)
                    injections.append(e.tolist())
                for e in injections:
                    want, crosses, _ = _reference_is_hom(
                        v0, V, _dense_map(e, v0, V))
                    assert all(udr._is_homomorphism(X, Y, e) == want
                               for X in sources for Y in targets), (
                        w.display(), c.letter.display(), e)
                    seen["embedding"] |= want
                    seen["vertex-keeping non-embedding"] |= (
                        not crosses and not want)
                    embeddings += 1
    assert all(seen.values()), seen
    assert maps > 500 and embeddings > 500


def _tangent_one_chains(q):
    """(v0, decoy, connector) for every tangent-1 catalog word of length
    at most 3; the decoy is a module of another word of the same length,
    so of the same dimension and not a copy of v0."""
    for _, p in table1_catalog():
        words = enumerate_strings(p, 3)
        for w in words:
            v0 = string_module(p, w, q)
            if not end_is_trivial(v0) or ext1_dim(v0, v0) != 1:
                continue
            decoy = next(string_module(p, u, q) for u in words
                         if len(u) == len(w) and u != w)
            for c in connecting_letters(p, w):
                yield v0, decoy, c


def test_one_span_check_per_accepted_collapse_map(monkeypatch):
    """Over every tangent-1 catalog word of length at most 3 at q = 2,
    each step whose collapse map is accepted checks one span, by index
    maps alone: no check searches a Hom basis, and none on a decoy v0
    reports a copy."""
    q = 2
    spans, searches = [], []
    real_copy, real_basis = udr._kernel_is_copy, homext.hom_basis

    def counted_copy(v0, V_ell, dst):
        spans.append(dst)
        return real_copy(v0, V_ell, dst)

    def counted_basis(m, n):
        searches.append((m, n))
        return real_basis(m, n)

    monkeypatch.setattr(udr, "_kernel_is_copy", counted_copy)
    monkeypatch.setattr(homext, "hom_basis", counted_basis)
    accepted = decoy_steps = 0
    for v0, decoy, c in _tangent_one_chains(q):
        context = (v0.word.display(), c.letter.display())
        spans.clear()
        searches.clear()
        report = build_sequence(v0, c)
        steps = sum(step.sigma is not None for step in report.steps)
        assert len(spans) == steps and not searches, context
        accepted += steps
        for step in report.steps:
            spans.clear()
            got = udr._verify_sigma(
                udr._module_walk(decoy),
                udr._word_walk(v0.presentation, step.word),
                step.level, c.form, step.word)
            assert len(spans) == (got.sigma is not None), context
            assert not got.kernel_is_v0 and not searches, context
            decoy_steps += 1
    assert accepted > 100 and decoy_steps > 100


def test_one_v0_validation_per_chain_and_no_module_for_equal_spans(
        monkeypatch):
    """Over every tangent-1 catalog word of length at most 3 at q = 2, a
    chain makes at most one v0 validation, in fact none (a copy check
    that holds embeds v0 in a chain module, so v0 is a module), and
    builds no module but a finite chain's last one: a chain step or a
    span, equal to v0's entrywise or not, gets no module of its own.  A
    step on a decoy v0 builds and validates nothing either."""
    q = 2
    built, validations = [], []
    real_init, real_validate = FinModule.__post_init__, FinModule.validate

    def counted_init(self):
        built.append(self.word)
        real_init(self)

    def counted_validate(self):
        validations.append(self)
        return real_validate(self)

    monkeypatch.setattr(FinModule, "__post_init__", counted_init)
    monkeypatch.setattr(FinModule, "validate", counted_validate)
    chains = decoy_steps = 0
    for v0, decoy, c in _tangent_one_chains(q):
        context = (v0.word.display(), c.letter.display())
        built.clear()
        validations.clear()
        report = build_sequence(v0, c)
        last = report.words[-1:] if report.kind == "Finite" else []
        assert built == last and not validations, context
        chains += 1
        for step in report.steps:
            args = (udr._module_walk(decoy),
                    udr._word_walk(v0.presentation, step.word))
            built.clear()
            udr._verify_sigma(*args, step.level, c.form, step.word)
            assert not (built or validations), context
            decoy_steps += 1
    assert chains > 20 and decoy_steps > 100


def _altered(v0, change):
    """v0's word and dims with action matrices edited by change(action)."""
    action = {a: mat.copy() for a, mat in v0.action.items()}
    change(action)
    return FinModule(presentation=v0.presentation, q=v0.q, dims=v0.dims,
                     action=action, word=v0.word)


@pytest.mark.parametrize("q", [2, 3])
def test_altered_v0_is_never_a_kernel_copy(q):
    """A v0 that carries the word w but not the matrices of M[w] is never
    reported as the kernel of a collapse map: neither one that breaks a
    relation (so is no module) nor one with a letter's entry zeroed (a
    module, M[w] split in two, so not M[w]).  The chain validates no v0,
    so this is what keeps an invalid v0 from passing."""
    kinds = dict.fromkeys(["breaks a relation", "splits M[w]"], 0)
    for _, p in table1_catalog():
        for w in enumerate_strings(p, 3):
            if w.is_simple:
                continue
            v0 = string_module(p, w, q)
            if not end_is_trivial(v0) or ext1_dim(v0, v0) != 1:
                continue
            letter = w.letters[0]

            def split(action):
                action[letter.arrow][action[letter.arrow] != 0] = 0

            alterations = [("splits M[w]", _altered(v0, split))]
            assert not alterations[0][1].validate(), w.display()
            for beta, alpha in p.relations:
                s, m, t = p.source(alpha), p.target(alpha), p.target(beta)
                if not (v0.dims[s] and v0.dims[m] and v0.dims[t]):
                    continue

                def entangle(action, beta=beta, alpha=alpha):
                    action[alpha][0, 0] = action[beta][0, 0] = 1
                    action[beta][0, 1:] = action[alpha][1:, 0] = 0

                broken = _altered(v0, entangle)
                if any(problem.startswith("relation")
                       for problem in broken.validate()):
                    alterations.append(("breaks a relation", broken))
                    break
            for c in connecting_letters(p, w):
                report = build_sequence(v0, c)
                if not any(step.kernel_is_v0 for step in report.steps):
                    continue
                for kind, bad in alterations:
                    altered = build_sequence(bad, c)
                    assert altered.words == report.words
                    assert not any(step.kernel_is_v0
                                   for step in altered.steps), (
                        kind, w.display(), c.letter.display())
                    kinds[kind] += 1
    assert all(n > 10 for n in kinds.values()), kinds


def _reachable(fn):
    """The names that the code reachable from fn mentions, and that code:
    fn's own, its nested functions', and that of every function it names
    in its module or as a method or property of FinModule."""
    names, seen = set(), set()
    stack = [(fn.__code__, fn.__globals__)]
    while stack:
        code, scope = stack.pop()
        if code in seen:
            continue
        seen.add(code)
        names.update(code.co_names)
        stack.extend((c, scope) for c in code.co_consts
                     if isinstance(c, types.CodeType))
        for name in code.co_names:
            for target in (scope.get(name), vars(FinModule).get(name)):
                target = getattr(target, "fget", None) \
                    or getattr(target, "func", None) or target
                if isinstance(target, types.FunctionType):
                    stack.append((target.__code__, target.__globals__))
    return names, seen


def test_collapse_map_check_reaches_no_hom_engine():
    """No code reachable from `udr.build_sequence` names the Hom engine,
    the linear solver or module validation, and none reachable from
    `udr._verify_sigma`, the check of one chain step, builds a module or
    names numpy: the chain words' entries come from
    `strings.string_entries`, v0's from its `sparse_action`, and the
    accepted map stays an index map."""
    forbidden = {"hom_basis", "modules_isomorphic", "LinearSystem",
                 "_reduce", "validate"}
    names, seen = _reachable(udr.build_sequence)
    for helper in (udr._module_walk, udr._word_walk, string_entries,
                   FinModule.sparse_action.func, udr._verify_sigma):
        assert helper.__code__ in seen, helper
    assert not names & forbidden, names & forbidden
    names, seen = _reachable(udr._verify_sigma)
    for helper in (udr._is_homomorphism, udr._kernel_is_copy):
        assert helper.__code__ in seen, helper
    step_forbidden = forbidden | {"string_module", "FinModule", "np"}
    assert not names & step_forbidden, names & step_forbidden
