"""Classification of universal deformation rings of string modules.

For a module V = M[beta] with trivial endomorphisms the procedure is:
tangent dimension 0 gives the base field; tangent dimension 1 triggers
a search for connecting letters x, with the infinite chain (beta x)^n
beta certifying power series and a finite chain plus the collapse-map
hypotheses certifying a truncation; anything else stays undetermined
and is reported with its lift census.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import claims
from .homext import (
    DEFAULT_BUDGET,
    end_is_trivial,
    ext1_dim,
    hom_dim,
    modules_isomorphic,
)
from .lifts import fingerprint
# Unused here: perfbench/tests/test_perfbench.py
# (test_wrappers_rebind_every_import_and_restore_the_originals) pins a
# traced `rref` binding in this module.
from .linalg import rref  # noqa: F401
from .presentation import Presentation
from .strings import (
    FinModule,
    Letter,
    StringError,
    StringWord,
    string_module,
    word_from_letters,
)


@dataclass(frozen=True)
class ConnectingLetter:
    """A letter x whose insertion between copies of beta forms a string.

    `form` is "direct" when the word beta*x*beta validates and
    "reflected" when only the variant with one copy reversed does;
    `word` is the resulting length-one chain word V_1.
    """

    letter: Letter
    form: str
    word: StringWord

    def as_dict(self) -> dict:
        return {"letter": self.letter.display(), "form": self.form,
                "word": self.word.display()}


@dataclass
class SigmaStep:
    """Verification record for one collapse map sigma_ell."""

    level: int
    word: StringWord
    sigma: np.ndarray | None
    kernel_dim: int = -1
    kernel_is_v0: bool = False
    image_power_is_v0: bool = False
    power_rank: int = -1
    nilpotent: bool = False

    @property
    def ok(self) -> bool:
        return (self.sigma is not None and self.kernel_is_v0
                and self.image_power_is_v0 and self.nilpotent)

    def as_dict(self) -> dict:
        return {"level": self.level, "word": self.word.display(),
                "kernel_dim": self.kernel_dim,
                "kernel_is_v0": self.kernel_is_v0,
                "image_power_is_v0": self.image_power_is_v0,
                "power_rank": self.power_rank,
                "nilpotent": self.nilpotent}


@dataclass
class SequenceReport:
    """The chain of modules grown from one connecting letter."""

    connector: ConnectingLetter
    kind: str
    n_value: int | None
    words: list[StringWord]
    steps: list[SigmaStep] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(step.ok for step in self.steps)

    def as_dict(self) -> dict:
        return {"connector": self.connector.as_dict(),
                "kind": self.kind,
                "N": self.n_value,
                "words": [w.display() for w in self.words],
                "steps": [s.as_dict() for s in self.steps],
                "ok": self.ok}


@dataclass
class UDRDescriptor:
    """Computed classification with evidence and the published comparison."""

    ring: str
    tangent_dim: int
    evidence: dict
    paper_agreement: str

    def as_dict(self) -> dict:
        return {"ring": self.ring, "tangent_dim": self.tangent_dim,
                "evidence": self.evidence,
                "paper_agreement": self.paper_agreement}


def _endpoints(p: Presentation, w: StringWord) -> tuple[str, str]:
    if w.is_simple:
        return w.basepoint, w.basepoint
    return w.letters[0].source(p), w.letters[-1].target(p)


def _try_word(p: Presentation, letters) -> StringWord | None:
    try:
        return word_from_letters(p, letters)
    except StringError:
        return None


def connecting_letters(p: Presentation, w: StringWord) -> list[ConnectingLetter]:
    """All letters x forming a chain word from w, one per word class.

    The direct form inserts x between two copies of w; the reflected
    forms insert it between w and its reversal.  When a letter and its
    inverse give reverse-inverse words only the direct-letter one is
    kept, and a direct-form connector shadows reflected ones for the
    same word class.
    """
    start, end = _endpoints(p, w)
    candidates = [Letter(a) for a in p.quiver.arrow_names] \
        + [Letter(a, inverse=True) for a in p.quiver.arrow_names]
    found: list[ConnectingLetter] = []
    seen = set()

    def consider(x: Letter, form: str, letters) -> None:
        word = _try_word(p, letters)
        if word is None:
            return
        key = word.canonical().sort_key()
        if key in seen:
            return
        seen.add(key)
        found.append(ConnectingLetter(letter=x, form=form, word=word))

    for x in candidates:
        if x.source(p) == end and x.target(p) == start:
            consider(x, "direct", w.letters + (x,) + w.letters)
    if not w.is_simple:
        back = w.reverse_inverse().letters
        for x in candidates:
            if x.source(p) == end and x.target(p) == end:
                consider(x, "reflected", w.letters + (x,) + back)
        for x in candidates:
            if x.source(p) == start and x.target(p) == start:
                consider(x, "reflected", back + (x,) + w.letters)
    return found


def _chain_word(p: Presentation, w: StringWord, x: Letter,
                n: int) -> StringWord | None:
    return _try_word(p, (w.letters + (x,)) * n + w.letters)


def _arrow_total_matrices(V: FinModule) -> dict[str, np.ndarray]:
    p, total = V.presentation, V.total_dim
    off = V.vertex_offsets()
    out = {}
    for a in p.quiver.arrow_names:
        mat = V.action[a]
        T = np.zeros((total, total), dtype=np.int64)
        r, c = off[p.target(a)], off[p.source(a)]
        T[r:r + mat.shape[0], c:c + mat.shape[1]] = mat
        out[a] = T
    return out


def _coords(V: FinModule) -> list[int]:
    """Total-space coordinate of each walk position z_i."""
    off = V.vertex_offsets()
    return [off[v] + l for v, l in zip(V.walk, V.local)]


def _is_module_endo(V: FinModule, sigma: np.ndarray,
                    arrows: dict[str, np.ndarray]) -> bool:
    """Whether sigma respects the vertices and commutes with
    `arrows = _arrow_total_matrices(V)`."""
    q = V.q
    off = V.vertex_offsets()
    for v in V.presentation.quiver.vertices:
        r = range(off[v], off[v] + V.dims[v])
        mask = np.ones(V.total_dim, dtype=bool)
        mask[list(r)] = False
        if sigma[np.ix_(mask, list(r))].any():
            return False
    for T in arrows.values():
        if ((sigma @ T - T @ sigma) % q).any():
            return False
    return True


def _coordinate_submodule(V: FinModule,
                          keep: np.ndarray) -> FinModule | None:
    """The span of the unit vectors at the total-space coordinates where
    the boolean mask keep is set, as a module, or None.

    Each vertex's basis is its kept coordinates in increasing order, so
    the action is read off as submatrices of V's.  None signals that the
    span is not stable under the arrow action or fails validation.
    """
    p = V.presentation
    off = V.vertex_offsets()
    local = {v: keep[off[v]:off[v] + V.dims[v]] for v in p.quiver.vertices}
    action = {}
    for a in p.quiver.arrow_names:
        s, t = p.source(a), p.target(a)
        cols = V.action[a][:, local[s]] % V.q
        if cols[~local[t]].any():
            return None
        action[a] = cols[local[t]]
    dims = {v: int(local[v].sum()) for v in p.quiver.vertices}
    sub = FinModule(presentation=p, q=V.q, dims=dims, action=action,
                    provenance="submodule")
    return sub if not sub.validate() else None


def _spans_copy_of(V: FinModule, keep: np.ndarray, v0: FinModule) -> bool:
    sub = _coordinate_submodule(V, keep)
    return sub is not None and modules_isomorphic(sub, v0)


def _sigma_candidates(V_ell: FinModule, D: int, form: str) -> list[np.ndarray]:
    total = V_ell.total_dim
    coords = _coords(V_ell)
    mats = []
    if form == "direct":
        for shift in (D, -D):
            S = np.zeros((total, total), dtype=np.int64)
            for i in range(total):
                j = i + shift
                if 0 <= j < total:
                    S[coords[j], coords[i]] = 1
            mats.append(S)
    else:
        for keep_low in (True, False):
            S = np.zeros((total, total), dtype=np.int64)
            for i in range(total):
                if (i < D) != keep_low:
                    continue
                S[coords[total - 1 - i], coords[i]] = 1
            mats.append(S)
    return mats


def _verify_sigma(v0: FinModule, V_ell: FinModule, level: int,
                  form: str, word: StringWord) -> SigmaStep:
    """Check the first candidate collapse map that is a module endomorphism
    with a kernel of dimension dim v0.

    Every candidate is a 0/1 partial permutation of walk coordinates, and
    so is each of its powers: its kernel is spanned by the unit vectors
    at its zero columns, and the image of sigma^level by those at the
    nonzero rows of that power.
    """
    q = v0.q
    D = v0.total_dim
    step = SigmaStep(level=level, word=word, sigma=None)
    arrows = _arrow_total_matrices(V_ell)
    for S in _sigma_candidates(V_ell, D, form):
        if ((S != 0) & (S != 1)).any() or (S.sum(axis=0) > 1).any() \
                or (S.sum(axis=1) > 1).any():
            raise AssertionError(
                "collapse map is not a partial permutation of coordinates")
        if not _is_module_endo(V_ell, S, arrows):
            continue
        kernel = ~S.any(axis=0)
        if kernel.sum() != D:
            continue
        step.sigma = S
        step.kernel_dim = D
        step.kernel_is_v0 = _spans_copy_of(V_ell, kernel, v0)
        P = np.eye(V_ell.total_dim, dtype=np.int64)
        for _ in range(level):
            P = P @ S % q
        image = P.any(axis=1)
        step.power_rank = int(image.sum())
        step.image_power_is_v0 = (step.power_rank == D
                                  and _spans_copy_of(V_ell, image, v0))
        step.nilpotent = not (P @ S % q).any()
        break
    return step


def build_sequence(p: Presentation, w: StringWord, x,
                   n_max: int = 4, q: int = 2) -> SequenceReport:
    """Grow the chain from w along x and verify each collapse map.

    x may be a ConnectingLetter or a bare Letter; a bare letter is
    resolved against connecting_letters(p, w), direct form first.
    """
    if n_max < 2:
        raise ValueError("n_max must be at least 2")
    if isinstance(x, Letter):
        matches = [c for c in connecting_letters(p, w)
                   if c.letter == x or c.letter == x.flip()]
        if not matches:
            raise ValueError(f"{x.display()} is not a connecting letter")
        connector = sorted(matches, key=lambda c: c.form != "direct")[0]
    else:
        connector = x
    v0 = string_module(p, w, q)
    words = [w, connector.word]
    if connector.form == "direct":
        second = _chain_word(p, w, connector.letter, 2)
        if second is not None:
            kind, n_value = "Infinite", None
            for n in range(2, n_max + 1):
                extended = _chain_word(p, w, connector.letter, n)
                if extended is None:
                    raise AssertionError(
                        f"chain broke at n = {n} after validating at n = 2")
                words.append(extended)
        else:
            kind, n_value = "Finite", 1
    else:
        kind, n_value = "Finite", 1
    report = SequenceReport(connector=connector, kind=kind,
                            n_value=n_value, words=words)
    for level in range(1, len(words)):
        V_ell = string_module(p, words[level], q)
        report.steps.append(
            _verify_sigma(v0, V_ell, level, connector.form, words[level]))
    return report


def universal_deformation_ring(p: Presentation, w: StringWord, q: int = 2,
                               n_max: int = 3,
                               budget: int = DEFAULT_BUDGET,
                               chain_check: int = 4) -> UDRDescriptor:
    """Decide which ring represents the deformations of M[w].

    Raises unless End(M[w]) = k.  The returned descriptor carries the
    computed ring, the tangent dimension, an evidence bundle (census,
    connecting letters, chain reports, hypothesis checks), and the
    comparison against the published classification.
    """
    V = string_module(p, w, q)
    if not end_is_trivial(V):
        raise ValueError(
            "universal deformation ring not guaranteed for End(V) != k")
    return _classify(p, w, V, n_max, budget, chain_check)


def _classify(p: Presentation, w: StringWord, V: FinModule, n_max: int,
              budget: int, chain_check: int = 4) -> UDRDescriptor:
    """`universal_deformation_ring` for V = M[w], already built and
    known to have End(V) = k."""
    q = V.q
    tangent = ext1_dim(V, V)
    connectors = connecting_letters(p, w)
    evidence: dict = {
        "tangent_dim": tangent,
        "connecting_letters": [c.as_dict() for c in connectors],
    }
    ring = "undetermined"
    if tangent == 0:
        ring = "k"
    elif tangent == 1:
        reports = [build_sequence(p, w, c, n_max=chain_check, q=q)
                   for c in connectors]
        evidence["sequences"] = [r.as_dict() for r in reports]
        infinite = [r for r in reports if r.kind == "Infinite" and r.ok]
        finite = [r for r in reports if r.kind == "Finite" and r.ok]
        if infinite:
            ring = "k[[t]]"
            evidence["chosen"] = infinite[0].connector.as_dict()
        else:
            for r in finite:
                v_last = string_module(p, r.words[-1], q)
                hyp = {"hom_dim": hom_dim(v_last, V),
                       "ext1_dim": ext1_dim(v_last, V)}
                evidence.setdefault("hypotheses", {})[
                    r.connector.word.display()] = hyp
                if hyp["hom_dim"] == 1 and hyp["ext1_dim"] == 0:
                    ring = f"k[[t]]/(t^{r.n_value + 1})"
                    evidence["chosen"] = r.connector.as_dict()
                    break
    census = fingerprint(p, V, q, n_max, budget=budget)
    evidence["census"] = census.as_dict()
    unique = census.matches[0] if len(census.matches) == 1 else None
    agreement = claims.paper_agreement(p, w, ring, tangent, unique)
    return UDRDescriptor(ring=ring, tangent_dim=tangent,
                         evidence=evidence, paper_agreement=agreement)
