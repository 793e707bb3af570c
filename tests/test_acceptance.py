"""Acceptance harness: one criterion per test, one printed verdict each.

Verdict lines are printed with capture suspended so they stay visible
in the pytest output, with the computed values on the line.

C2 checks the rings the published table names for the worked example.
Where the table names k[[t]] but the mathematics rules it out (k[[t]]
needs the tangent space Ext^1(M, M) to be a line, and two arrow
extensions of M by itself span a plane), C2 certifies that plane from
the walks alone, with neither Ext engine nor the census, and then
asserts that the program refutes the published ring: it reports the
certified tangent dimension and a census of q^tangent lifts at level 2,
names no k[[t]], and records a disagreement.
"""

import time

import numpy as np

from gentledef.homext import (
    brute_force_ext,
    classify_trivial_end,
    end_is_trivial,
    ext1_dim,
    hom_dim,
)
from gentledef.lifts import count_deformations
from gentledef.presentation import (
    LAMBDA0,
    catalog_presentation,
    radical_series,
    table1_catalog,
)
from gentledef.strings import (
    enumerate_strings,
    make_string,
    simple_module,
    string_module,
)
from gentledef.sweep import sweep_catalog
from gentledef.udr import (
    build_sequence,
    connecting_letters,
    universal_deformation_ring,
)

TRICHOTOMY = {"k", "k[[t]]/(t^2)", "k[[t]]"}


def _verdict(capsys, n: int, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE C{n}: {'PASS' if ok else 'FAIL'} {detail}"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


def test_criterion_1_trivial_end_classification(capsys):
    t0 = time.time()
    p = catalog_presentation(LAMBDA0)
    got = sorted(w.display() for w in classify_trivial_end(p, 3))
    elapsed = time.time() - t0
    expected = sorted(["simple 1", "simple 2", "c", "d", "c*a", "d*b",
                       "b*c", "a*d", "b*c*a", "a*d*b"])
    ok = got == expected and elapsed < 10
    _verdict(capsys, 1, ok, f"{len(got)} trivial-end modules in {elapsed:.2f}s"
             + ("" if got == expected else f", got {got}"))


def _walk_actions(V) -> dict[str, np.ndarray]:
    """Each arrow's action on the walk basis z_0, z_1, ... of a string module."""
    p = V.presentation
    off = V.vertex_offsets()
    coords = [off[v] + i for v, i in zip(V.walk, V.local)]
    out = {}
    for a, mat in V.action.items():
        T = np.zeros((V.total_dim, V.total_dim), dtype=np.int64)
        r, c = off[p.target(a)], off[p.source(a)]
        T[r:r + mat.shape[0], c:c + mat.shape[1]] = mat
        out[a] = T[np.ix_(coords, coords)]
    return out


def _rank(mat: np.ndarray) -> int:
    """Rank over any field of a matrix with <= 1 nonzero per row and column."""
    nonzero = mat != 0
    assert (nonzero.sum(axis=0) <= 1).all() and (nonzero.sum(axis=1) <= 1).all()
    return int(nonzero.sum())


def _is_extension_of(E, M) -> bool:
    """Whether the walk of E is two copies of the walk of M, one of them
    spanning a submodule with the action of M and the other the quotient."""
    m = len(M.walk)
    if E.walk != M.walk * 2:
        return False
    low, high = list(range(m)), list(range(m, 2 * m))
    acts, want = _walk_actions(E), _walk_actions(M)
    return any(
        all(not acts[a][np.ix_(quot, sub)].any()
            and (acts[a][np.ix_(sub, sub)] == want[a]).all()
            and (acts[a][np.ix_(quot, quot)] == want[a]).all()
            for a in want)
        for sub, quot in ((low, high), (high, low)))


def _tangent_lower_bound(p, word: str, middles: list[str], q: int) -> int:
    """A lower bound on dim Ext^1(M, M), M = M[word], from middle terms.

    Each middle word must give an extension 0 -> M -> E -> M -> 0.  Arrow
    ranks are isomorphism invariants, so E does not split when its ranks
    differ from those of M + M.  All nonzero multiples of one class have
    isomorphic middle terms, so two non-split extensions whose ranks
    differ are independent classes.
    """
    M = string_module(p, make_string(p, word), q)
    split = tuple(2 * _rank(A) for A in _walk_actions(M).values())
    nonsplit = set()
    for text in middles:
        E = string_module(p, make_string(p, text), q)
        ranks = tuple(_rank(A) for A in _walk_actions(E).values())
        if _is_extension_of(E, M) and ranks != split:
            nonsplit.add(ranks)
    return min(len(nonsplit), 2)


def test_criterion_2_named_ring_reproduction(capsys):
    t0 = time.time()
    q = 2
    p = catalog_presentation(LAMBDA0)
    reproduced = {
        "simple 1": ("k[[t]]/(t^2)", [[1, 1], [2, 2], [3, 2]]),
        "simple 2": ("k[[t]]/(t^2)", [[1, 1], [2, 2], [3, 2]]),
    }
    # Published k[[t]]; the middle terms are the arrow extensions of M
    # by itself, glued by d and by ~c (by c and by ~d for a*d*b).
    refuted = {
        "b*c*a": ("k[[t]]", ["b*c*a*d*b*c*a", "b*c*a*~c*b*c*a"]),
        "a*d*b": ("k[[t]]", ["a*d*b*c*a*d*b", "a*d*b*~d*a*d*b"]),
    }
    problems, refutations = [], []
    for text, (ring, census) in reproduced.items():
        V = string_module(p, make_string(p, text), q)
        d = universal_deformation_ring(V)
        fp = d.evidence["census"]
        if (d.ring != ring or fp["census"] != census
                or fp["matches"] != [ring]):
            problems.append(f"{text}: ring {d.ring}, census {fp['census']}, "
                            f"matches {fp['matches']}")
    for text, (published, middles) in refuted.items():
        bound = _tangent_lower_bound(p, text, middles, q)
        V = string_module(p, make_string(p, text), q)
        d = universal_deformation_ring(V)
        fp = d.evidence["census"]
        line = (f"{text}: published {published}, computed {d.ring} with "
                f"tangent {d.tangent_dim} (certified >= {bound}), census "
                f"{fp['census']}, matches {fp['matches']}, "
                f"{d.paper_agreement}")
        refutations.append(line)
        if (bound != 2 or d.tangent_dim != bound or d.ring == published
                or published in fp["matches"]
                or fp["census"][:2] != [[1, 1], [2, q ** d.tangent_dim]]
                or d.paper_agreement != "disagrees"):
            problems.append(line)
    elapsed = time.time() - t0
    if elapsed >= 60:
        problems.append(f"took {elapsed:.1f}s")
    _verdict(capsys, 2, not problems,
             "; ".join(problems) if problems
             else "simples reproduced; published k[[t]] refuted: "
                  + "; ".join(refutations) + f"; {elapsed:.1f}s")


def test_criterion_3_tangent_oracle_equivalence(capsys):
    t0 = time.time()
    checked = 0
    mismatches = []
    for name, p in table1_catalog():
        for w in enumerate_strings(p, 3):
            V = string_module(p, w)
            if V.total_dim > 4 or not end_is_trivial(V):
                continue
            ext_lin = ext1_dim(V, V)
            ext_oracle = brute_force_ext(V, V)
            count = count_deformations(V, 2)
            checked += 1
            if count != 2 ** ext_lin or ext_oracle != ext_lin:
                mismatches.append(
                    f"{name} {w.display()}: {count} deformations, "
                    f"ext {ext_lin}, oracle {ext_oracle}")
    elapsed = time.time() - t0
    ok = not mismatches and checked > 0 and elapsed < 600
    _verdict(capsys, 3, ok, f"{checked} modules, {len(mismatches)} "
             f"mismatches, {elapsed:.1f}s")


def _connector(p, w, letter: str):
    """The connecting letter of w shown as letter."""
    return next(c for c in connecting_letters(p, w)
                if c.letter.display() == letter)


def _sigma_matrix(step) -> np.ndarray:
    """step.sigma, an index map on walk positions, as a 0/1 matrix on the
    walk basis of its chain word."""
    S = np.zeros((len(step.sigma),) * 2, dtype=np.int64)
    for i, d in enumerate(step.sigma):
        if d >= 0:
            S[d, i] = 1
    return S


def test_criterion_4_collapse_map_machinery(capsys):
    p = catalog_presentation(LAMBDA0)
    problems = []
    for vertex, letter in (("1", "a"), ("2", "b")):
        w = make_string(p, f"simple {vertex}")
        rep = build_sequence(string_module(p, w), _connector(p, w, letter))
        if rep.kind != "Finite" or rep.n_value != 1:
            problems.append(f"simple {vertex}: {rep.kind}(N={rep.n_value})")
            continue
        step = rep.steps[0]
        if not step.ok or step.power_rank != 1:
            problems.append(f"simple {vertex}: collapse map failed")
        elif (_sigma_matrix(step) @ _sigma_matrix(step) % 2).any():
            problems.append(f"simple {vertex}: square of sigma nonzero")
    s1 = simple_module(p, "1")
    ma = string_module(p, make_string(p, "a"))
    if hom_dim(ma, s1) != 1 or ext1_dim(ma, s1) != 0:
        problems.append(
            f"hom {hom_dim(ma, s1)}, ext {ext1_dim(ma, s1)} for the "
            f"chain over simple 1")
    w = make_string(p, "b*c*a")
    rep = build_sequence(string_module(p, w), _connector(p, w, "d"))
    if rep.kind != "Infinite" or len(rep.steps) != 4:
        problems.append(f"b*c*a: kind {rep.kind}, {len(rep.steps)} levels")
    else:
        for step in rep.steps:
            if not step.ok:
                problems.append(f"b*c*a level {step.level}: "
                                "kernel/image/nilpotence checks failed")
    _verdict(capsys, 4, not problems,
             "; ".join(problems) if problems
             else "collapse maps verified for the simples and the chain "
                  "words at n = 1..4")


def test_criterion_5_catalog_sweep_with_ledger(capsys):
    t0 = time.time()
    report = sweep_catalog(q=2, max_len=6, n_max=3)
    elapsed = time.time() - t0
    problems = []
    determined = {row.ring for row in report.rows
                  if row.ring != "undetermined"}
    if not determined <= TRICHOTOMY:
        problems.append(f"rings outside the trichotomy: "
                        f"{sorted(determined - TRICHOTOMY)}")
    for row in report.rows:
        if row.ring == "undetermined" and not row.error and not row.census:
            problems.append(f"{row.algebra} {row.word}: no census")
    ledger = {item["word"]: item for item in report.ledger
              if item["algebra"] == LAMBDA0}
    for word in ("c", "d", "c*a", "a*d", "d*b", "b*c"):
        item = ledger.get(word)
        if item is None:
            problems.append(f"ledger misses {word}")
        elif item["published"] != "k" or not item["computed"]:
            problems.append(f"ledger row {word} incomplete: {item}")
    if report.internal_errors:
        problems.append(f"{len(report.internal_errors)} internal errors")
    if elapsed >= 1800:
        problems.append(f"took {elapsed:.0f}s")
    _verdict(capsys, 5, not problems,
             "; ".join(problems) if problems
             else f"{len(report.rows)} rows, "
                  f"{report.summary['disagreements']} ledgered "
                  f"disagreements, {elapsed:.0f}s")


def test_criterion_6_radical_series_arms(capsys):
    p = catalog_presentation(LAMBDA0)
    arms1 = [arm["targets"] for arm in radical_series(p, "1", 8).arms]
    arms2 = [arm["targets"] for arm in radical_series(p, "2", 8).arms]
    want1 = ["S2", "S2", "S1", "S1", "S2", "S2", "S1", "S1"]
    want2 = ["S1", "S1", "S2", "S2", "S1", "S1", "S2", "S2"]
    ok = want1 in arms1 and want2 in arms2
    _verdict(capsys, 6, ok, "projective arms match the published picture"
             if ok else f"arms at 1: {arms1}; arms at 2: {arms2}")


def test_criterion_7_field_independence(capsys):
    p = catalog_presentation(LAMBDA0)
    words = enumerate_strings(p, 3)
    modules = {q: [string_module(p, w, q) for w in words]
               for q in (2, 3, 5)}
    pairs = 0
    mismatches = 0
    for i in range(len(words)):
        for j in range(len(words)):
            homs = {hom_dim(modules[q][i], modules[q][j]) for q in (2, 3, 5)}
            exts = {ext1_dim(modules[q][i], modules[q][j])
                    for q in (2, 3, 5)}
            pairs += 1
            if len(homs) != 1 or len(exts) != 1:
                mismatches += 1
    _verdict(capsys, 7, mismatches == 0,
             f"{pairs} pairs across q = 2, 3, 5, {mismatches} mismatches")
