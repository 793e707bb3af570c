"""Classification of universal deformation rings of string modules.

For a module V = M[beta] with trivial endomorphisms the procedure is:
tangent dimension 0 gives the base field; tangent dimension 1 triggers
a search for connecting letters x, with the infinite chain (beta x)^n
beta certifying power series and a finite chain plus the collapse-map
hypotheses certifying a truncation; anything else stays undetermined
and is reported with its lift census.  `_classify` and `build_sequence`
take V itself and read the presentation, q and beta from it.

Each collapse map sigma_ell of the chain is a partial permutation of
walk coordinates, and every check reads it as an index map: dst[c] is
the total-space coordinate that c goes to, or -1 where c is killed.
Its kernel and the image of its ell-th power are then coordinate sets,
and for every candidate they are the same set.  One span check per
step, that this set spans a copy of V, serves both hypotheses; a span
whose action is entrywise V's is answered by V's own validation, made
once per chain, and only any other span builds a module and searches a
Hom basis (`homext.modules_isomorphic`).  The accepted map alone is
kept as a dense 0/1 matrix, `SigmaStep.sigma`.
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

# The n up to which `build_sequence` grows and checks (beta x)^n beta.
CHAIN_LENGTH = 4


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
    # The module of words[-1], built for the last step; not in as_dict.
    last_module: FinModule | None = field(default=None, repr=False,
                                          compare=False)

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


def _total_entries(V: FinModule, a: str) -> list[tuple[int, int, int]]:
    """The nonzero entries of arrow a's action in total-space coordinates,
    as (row, column, residue mod q), read from `sparse_action`."""
    p, q = V.presentation, V.q
    off = V.vertex_offsets()
    t, s = off[p.target(a)], off[p.source(a)]
    return [(t + i, s + j, x % q) for i, j, x in V.sparse_action[a][1]
            if x % q]


def _is_module_endo(V: FinModule, dst: list[int]) -> bool:
    """Whether the partial permutation dst of total-space coordinates is
    a module endomorphism S of V.

    S respects the vertices when dst keeps the vertex of every coordinate
    it does not kill.  S commutes with an arrow's action T when S T and
    T S have the same nonzero entries: since dst is injective, an entry
    x = T[r, c] puts x at (dst[r], c) in S T and at (r, src[c]) in T S,
    src being dst's inverse, and no two entries land on the same place.
    """
    vertices = V.presentation.quiver.vertices
    label = [v for v in vertices for _ in range(V.dims[v])]
    src = [-1] * len(dst)
    for c, d in enumerate(dst):
        if d >= 0:
            if label[d] != label[c]:
                return False
            src[d] = c
    for a in V.presentation.quiver.arrow_names:
        left, right = {}, {}
        for r, c, x in _total_entries(V, a):
            if dst[r] >= 0:
                left[dst[r], c] = x
            if src[c] >= 0:
                right[r, src[c]] = x
        if left != right:
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
    sub = FinModule(presentation=p, q=V.q, dims=dims, action=action)
    return sub if not sub.validate() else None


def _spans_copy_of(V: FinModule, keep: list[bool], v0: FinModule,
                   v0_valid: bool) -> bool:
    """Whether the unit vectors at the total-space coordinates where keep
    is set span a submodule of V isomorphic to v0.

    The span's action is read from V's nonzeros, each vertex's basis
    being its kept coordinates in increasing order; an arrow that leads
    a kept coordinate out of the span makes it unstable, and the answer
    False.  A span whose dims and action equal v0's entrywise mod q is a
    copy exactly when it validates, and `FinModule.validate` reads only
    the presentation, q, dims and action, so the caller's v0_valid
    (whether v0 validates) is the answer.  Any other span is built by
    `_coordinate_submodule` and compared by `modules_isomorphic`.
    """
    p, q = V.presentation, V.q
    off = V.vertex_offsets()
    index, dims = {}, {}
    for v in p.quiver.vertices:
        kept = [c for c in range(off[v], off[v] + V.dims[v]) if keep[c]]
        index.update((c, i) for i, c in enumerate(kept))
        dims[v] = len(kept)
    same = dims == v0.dims
    for a in p.quiver.arrow_names:
        entries = {}
        for r, c, x in _total_entries(V, a):
            if keep[c]:
                if not keep[r]:
                    return False
                entries[index[r], index[c]] = x
        if same:
            shape, nonzeros = v0.sparse_action[a]
            same = (shape == (dims[p.target(a)], dims[p.source(a)])
                    and entries == {(i, j): x % q for i, j, x in nonzeros
                                    if x % q})
    if same:
        return v0_valid
    sub = _coordinate_submodule(V, np.array(keep, dtype=bool))
    return sub is not None and modules_isomorphic(sub, v0)


def _sigma_candidates(V_ell: FinModule, D: int, form: str) -> list[list[int]]:
    """The collapse-map candidates of V_ell as index maps on total-space
    coordinates: dst[c] is the coordinate c goes to, or -1.

    A direct chain gives the shifts of the walk positions by +D and -D;
    a reflected one the reflections i -> total - 1 - i of its first D
    positions and of the others, the rest being killed.
    """
    total, off = V_ell.total_dim, V_ell.vertex_offsets()
    coords = [off[v] + l for v, l in zip(V_ell.walk, V_ell.local)]
    maps = []
    if form == "direct":
        for shift in (D, -D):
            dst = [-1] * total
            for i in range(max(0, -shift), min(total, total - shift)):
                dst[coords[i]] = coords[i + shift]
            maps.append(dst)
    else:
        for keep_low in (True, False):
            dst = [-1] * total
            for i in range(total):
                if (i < D) == keep_low:
                    dst[coords[i]] = coords[total - 1 - i]
            maps.append(dst)
    return maps


def _verify_sigma(v0: FinModule, V_ell: FinModule, level: int,
                  form: str, word: StringWord, v0_valid: bool) -> SigmaStep:
    """Check the first candidate collapse map that is a module endomorphism
    with a kernel of dimension dim v0; v0_valid is whether v0 validates.

    Every candidate is an index map dst on walk coordinates, injective
    where it is defined, and so is each of its powers, dst composed with
    itself: its kernel is spanned by the unit vectors at the coordinates
    where dst is -1, and the image of sigma^level by those that
    dst^level reaches, one per coordinate where it is defined, which is
    its rank.  sigma is nilpotent of index at most level + 1 when
    dst^(level + 1) is nowhere defined.  V_level has (level + 1) * D
    walk positions, D = dim v0, and both candidate shapes of
    `_sigma_candidates` make that image the kernel's coordinate set: a
    shift by +D (-D) kills the last (first) D positions and its
    level-th power lands on them, and a reflection (level 1, 2D
    positions) sends one half onto the other and kills that other half.
    So one span check serves both hypotheses, and a power of rank D
    whose image is any other set is an error.  Only the accepted
    candidate is built as the dense 0/1 matrix `SigmaStep.sigma`.
    """
    D = v0.total_dim
    step = SigmaStep(level=level, word=word, sigma=None)
    for dst in _sigma_candidates(V_ell, D, form):
        domain = [c for c, d in enumerate(dst) if d >= 0]
        image = [dst[c] for c in domain]
        if len(set(image)) != len(image):
            raise AssertionError(
                "collapse map is not a partial permutation of coordinates")
        if not _is_module_endo(V_ell, dst):
            continue
        kernel = [d < 0 for d in dst]
        if sum(kernel) != D:
            continue
        total = len(dst)
        step.sigma = np.zeros((total, total), dtype=np.int64)
        step.sigma[image, domain] = 1
        step.kernel_dim = D
        power = list(range(total))
        for _ in range(level):
            power = [dst[c] if c >= 0 else -1 for c in power]
        reached = [False] * total
        for c in power:
            if c >= 0:
                reached[c] = True
        step.power_rank = sum(reached)
        if step.power_rank == D and reached != kernel:
            raise AssertionError(
                "image of the collapse map's power is not its kernel")
        step.kernel_is_v0 = _spans_copy_of(V_ell, kernel, v0, v0_valid)
        step.image_power_is_v0 = step.power_rank == D and step.kernel_is_v0
        step.nilpotent = all(c < 0 or dst[c] < 0 for c in power)
        break
    return step


def build_sequence(V: FinModule, x) -> SequenceReport:
    """Grow the chain from the string module V = M[w] along x, up to
    n = CHAIN_LENGTH for an infinite chain, and verify each collapse map.

    x may be a ConnectingLetter or a bare Letter; a bare letter is
    resolved against connecting_letters(p, w), direct form first.  V is
    validated once, for every step's span check, and never rebuilt; the
    last chain module is kept as `last_module`, for `_classify`.
    """
    p, q, w = V.presentation, V.q, V.word
    if w is None:
        raise ValueError("build_sequence needs a string module")
    if isinstance(x, Letter):
        matches = [c for c in connecting_letters(p, w)
                   if c.letter == x or c.letter == x.flip()]
        if not matches:
            raise ValueError(f"{x.display()} is not a connecting letter")
        connector = sorted(matches, key=lambda c: c.form != "direct")[0]
    else:
        connector = x
    v0_valid = not V.validate()
    words = [w, connector.word]
    if connector.form == "direct":
        second = _chain_word(p, w, connector.letter, 2)
        if second is not None:
            kind, n_value = "Infinite", None
            for n in range(2, CHAIN_LENGTH + 1):
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
            _verify_sigma(V, V_ell, level, connector.form, words[level],
                          v0_valid))
    report.last_module = V_ell
    return report


def universal_deformation_ring(p: Presentation, w: StringWord, q: int = 2,
                               n_max: int = 3,
                               budget: int = DEFAULT_BUDGET) -> UDRDescriptor:
    """Decide which ring represents the deformations of M[w] over F_q.

    Raises unless End(M[w]) = k; q must be prime and n_max, the deepest
    census level F_q[t]/(t^n_max), positive.  The returned descriptor
    carries the computed ring, the tangent dimension, an evidence bundle
    (census, connecting letters, chain reports, hypothesis checks), and
    the comparison against the published classification.
    """
    V = string_module(p, w, q)
    if not end_is_trivial(V):
        raise ValueError(
            "universal deformation ring not guaranteed for End(V) != k")
    return _classify(V, n_max, budget)


def _classify(V: FinModule, n_max: int, budget: int) -> UDRDescriptor:
    """`universal_deformation_ring` for a string module V known to have
    End(V) = k, so ext1_dim(V, V) reuses that test's Hom reduction."""
    p, w = V.presentation, V.word
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
        reports = [build_sequence(V, c) for c in connectors]
        evidence["sequences"] = [r.as_dict() for r in reports]
        infinite = [r for r in reports if r.kind == "Infinite" and r.ok]
        finite = [r for r in reports if r.kind == "Finite" and r.ok]
        if infinite:
            ring = "k[[t]]"
            evidence["chosen"] = infinite[0].connector.as_dict()
        else:
            for r in finite:
                hyp = {"hom_dim": hom_dim(r.last_module, V),
                       "ext1_dim": ext1_dim(r.last_module, V)}
                evidence.setdefault("hypotheses", {})[
                    r.connector.word.display()] = hyp
                if hyp["hom_dim"] == 1 and hyp["ext1_dim"] == 0:
                    ring = f"k[[t]]/(t^{r.n_value + 1})"
                    evidence["chosen"] = r.connector.as_dict()
                    break
    census = fingerprint(V, n_max, budget=budget)
    evidence["census"] = census.as_dict()
    unique = census.matches[0] if len(census.matches) == 1 else None
    agreement = claims.paper_agreement(p, w, ring, tangent, unique)
    return UDRDescriptor(ring=ring, tangent_dim=tangent,
                         evidence=evidence, paper_agreement=agreement)
