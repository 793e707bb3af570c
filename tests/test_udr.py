import numpy as np
import pytest

from gentledef import udr
from gentledef.claims import paper_agreement, published_ring
from gentledef.homext import end_is_trivial, modules_isomorphic
from gentledef.linalg import Presolved, nullspace, rank, rref
from gentledef.presentation import LAMBDA0, catalog_presentation, table1_catalog
from gentledef.strings import (
    FinModule,
    Letter,
    enumerate_strings,
    make_string,
    string_module,
)
from gentledef.udr import (
    SigmaStep,
    build_sequence,
    connecting_letters,
    universal_deformation_ring,
)


@pytest.fixture(scope="module")
def lam0():
    return catalog_presentation(LAMBDA0)


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


def test_sequence_simple_is_finite_with_square_zero_map(lam0):
    w = make_string(lam0, "simple 1")
    report = build_sequence(lam0, w, Letter("a"))
    assert report.kind == "Finite"
    assert report.n_value == 1
    assert [x.display() for x in report.words] == ["simple 1", "a"]
    step = report.steps[0]
    assert step.ok
    assert step.power_rank == 1
    sigma = step.sigma
    assert not (sigma @ sigma % 2).any()


def test_sequence_long_word_is_infinite_with_verified_collapses(lam0):
    w = make_string(lam0, "b*c*a")
    report = build_sequence(lam0, w, Letter("d"), n_max=4)
    assert report.kind == "Infinite"
    assert report.n_value is None
    assert [len(x) for x in report.words] == [3, 7, 11, 15, 19]
    assert len(report.steps) == 4
    for step in report.steps:
        assert step.ok
        assert step.kernel_dim == 4
        assert step.power_rank == 4
        sigma = step.sigma
        power = np.linalg.matrix_power(sigma, step.level + 1) % 2
        assert not power.any()


def test_sequence_reflected_collapse(lam0):
    w = make_string(lam0, "c*a")
    report = build_sequence(lam0, w, Letter("b"))
    assert report.kind == "Finite"
    assert report.steps[0].ok
    assert report.steps[0].kernel_dim == 3


def test_sequence_rejects_non_connector(lam0):
    w = make_string(lam0, "simple 1")
    with pytest.raises(ValueError):
        build_sequence(lam0, w, Letter("c"))


def test_udr_simple_modules_are_dual_numbers(lam0):
    for v in ("1", "2"):
        d = universal_deformation_ring(lam0, make_string(lam0, f"simple {v}"))
        assert d.ring == "k[[t]]/(t^2)"
        assert d.tangent_dim == 1
        assert d.paper_agreement == "agrees"
        assert d.evidence["census"]["census"] == [[1, 1], [2, 2], [3, 2]]
        assert d.evidence["census"]["matches"] == ["k[[t]]/(t^2)"]


def test_udr_two_letter_word_disagrees_with_published_table(lam0):
    d = universal_deformation_ring(lam0, make_string(lam0, "c*a"))
    assert d.ring == "k[[t]]/(t^2)"
    assert d.tangent_dim == 1
    assert d.paper_agreement == "disagrees"
    hyp = d.evidence["hypotheses"]["~a*~c*b*c*a"]
    assert hyp == {"hom_dim": 1, "ext1_dim": 0}


def test_udr_all_four_two_letter_words_close_the_same_way(lam0):
    for text in ("a*d", "d*b", "b*c"):
        d = universal_deformation_ring(lam0, make_string(lam0, text))
        assert d.ring == "k[[t]]/(t^2)"
        assert d.paper_agreement == "disagrees"


def test_udr_one_letter_word_is_undetermined(lam0):
    d = universal_deformation_ring(lam0, make_string(lam0, "c"))
    assert d.ring == "undetermined"
    assert d.tangent_dim == 2
    assert d.paper_agreement == "disagrees"
    assert d.evidence["census"]["census"] == [[1, 1], [2, 4], [3, 4]]
    assert d.evidence["census"]["matches"] == []


def test_udr_three_letter_word_is_undetermined(lam0):
    d = universal_deformation_ring(lam0, make_string(lam0, "b*c*a"))
    assert d.ring == "undetermined"
    assert d.tangent_dim == 2
    assert d.paper_agreement == "disagrees"
    assert d.evidence["census"]["census"] == [[1, 1], [2, 4], [3, 12]]
    assert d.evidence["census"]["matches"] == []


def test_udr_power_series_case():
    p = catalog_presentation("qiv.1")
    d = universal_deformation_ring(p, make_string(p, "simple 1"))
    assert d.ring == "k[[t]]"
    assert d.tangent_dim == 1
    assert d.paper_agreement == "agrees"
    assert d.evidence["census"]["matches"] == ["k[[t]]"]


def test_udr_rigid_module_is_the_field():
    p = catalog_presentation("qiv.1")
    d = universal_deformation_ring(p, make_string(p, "simple 2"))
    assert d.ring == "k"
    assert d.tangent_dim == 0
    assert d.paper_agreement == "agrees"


def test_udr_rejects_nontrivial_endomorphisms(lam0):
    with pytest.raises(ValueError) as err:
        universal_deformation_ring(lam0, make_string(lam0, "a"))
    assert str(err.value) == (
        "universal deformation ring not guaranteed for End(V) != k")


def test_udr_json_shape(lam0):
    d = universal_deformation_ring(lam0, make_string(lam0, "simple 1"))
    out = d.as_dict()
    assert set(out) == {"ring", "tangent_dim", "evidence", "paper_agreement"}
    assert out["ring"] == "k[[t]]/(t^2)"
    assert out["evidence"]["chosen"]["letter"] == "a"


def test_udr_field_independence(lam0):
    for q in (2, 3, 5):
        d = universal_deformation_ring(lam0, make_string(lam0, "c*a"), q=q)
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
    reduction: the reference for `udr._coordinate_submodule`."""
    p, q = V.presentation, V.q
    off = V.vertex_offsets()
    local_bases = {}
    split_rank = 0
    for v in p.quiver.vertices:
        R, pivots = rref(cols[off[v]:off[v] + V.dims[v], :].T, q)
        local_bases[v] = R[:len(pivots)]
        split_rank += len(pivots)
    if split_rank != rank(cols.T, q):
        return None
    dims = {v: local_bases[v].shape[0] for v in p.quiver.vertices}
    action = {}
    for a in p.quiver.arrow_names:
        s, t = p.source(a), p.target(a)
        imaged = V.action[a] @ local_bases[s].T % q
        if imaged.size == 0:
            action[a] = np.zeros((dims[t], dims[s]), dtype=np.int64)
            continue
        X, ok = Presolved(local_bases[t].T, q).solve_many(imaged)
        if not ok.all():
            return None
        action[a] = X
    sub = FinModule(presentation=p, q=q, dims=dims, action=action,
                    provenance="submodule")
    return sub if not sub.validate() else None


def _same_submodule(got, want):
    if got is None or want is None:
        return got is want
    return got.dims == want.dims and all(
        np.array_equal(got.action[a], want.action[a]) for a in want.action)


def _reference_step(v0, V, level, form, word, seen):
    """The collapse-map check with spans from nullspace and rref."""
    q, D = v0.q, v0.total_dim
    step = SigmaStep(level=level, word=word, sigma=None)
    arrows = udr._arrow_total_matrices(V)
    for S in udr._sigma_candidates(V, D, form):
        ker = nullspace(S, q)
        P = np.linalg.matrix_power(S, level) % q
        R, pivots = rref(P.T, q)
        # Every candidate's spans, accepted or not, so that coordinate
        # sets the arrows do not keep stable are compared too.
        for cols, keep in [(ker.T, ~S.any(axis=0)),
                           (R[:len(pivots)].T, P.any(axis=1))]:
            want = _reference_submodule(V, cols)
            got = udr._coordinate_submodule(V, keep)
            assert _same_submodule(got, want), (word.display(), level)
            seen["unstable coordinate set"] |= want is None
        if not udr._is_module_endo(V, S, arrows) or ker.shape[0] != D:
            seen["rejected candidate"] = True
            continue
        step.sigma = S
        step.kernel_dim = D
        sub = _reference_submodule(V, ker.T)
        step.kernel_is_v0 = sub is not None and modules_isomorphic(sub, v0)
        step.power_rank = rank(P, q)
        img = _reference_submodule(V, R[:len(pivots)].T)
        step.image_power_is_v0 = (step.power_rank == D and img is not None
                                  and modules_isomorphic(img, v0))
        step.nilpotent = not (P @ S % q).any()
        break
    return step


def _assert_same_step(got, want, context):
    assert (got.sigma is None) == (want.sigma is None), context
    if want.sigma is not None:
        assert np.array_equal(got.sigma, want.sigma), context
    for key in ("kernel_dim", "kernel_is_v0", "image_power_is_v0",
                "power_rank", "nilpotent"):
        assert getattr(got, key) == getattr(want, key), (context, key)


@pytest.mark.parametrize("q", [2, 3])
def test_sigma_steps_match_row_reduction_reference(q):
    """Collapse maps read on walk coordinates give the SigmaStep fields
    that row-reducing their kernel and image spans gives.

    Every chain step of the catalog passes its checks, so each step is
    also checked against a decoy: another word of the same length, whose
    module has the dimension of v0 but is not isomorphic to it.
    """
    seen = dict.fromkeys(["rejected candidate", "failed kernel or image",
                          "unstable coordinate set", "reflected", "Infinite"],
                         False)
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
                report = build_sequence(p, w, c, n_max=4, q=q)
                seen["reflected"] |= c.form == "reflected"
                seen["Infinite"] |= report.kind == "Infinite"
                for step in report.steps:
                    V = string_module(p, step.word, q)
                    context = (name, w.display(), c.letter.display(),
                               step.level)
                    args = (V, step.level, c.form, step.word)
                    _assert_same_step(
                        step, _reference_step(v0, *args, seen), context)
                    for decoy in decoys:
                        want = _reference_step(decoy, *args, seen)
                        _assert_same_step(udr._verify_sigma(decoy, *args),
                                          want, context + ("decoy",))
                        seen["failed kernel or image"] |= (
                            want.sigma is not None and not (
                                want.kernel_is_v0
                                and want.image_power_is_v0))
                    steps += 1
    assert all(seen.values()), seen
    assert steps > 100
