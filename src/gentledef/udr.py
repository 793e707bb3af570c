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
and for every candidate they are the same run of dim v0 consecutive
walk positions.  One test, `_is_homomorphism` on index maps, answers
both questions of a step: whether sigma_ell is a module endomorphism,
and whether v0 maps onto that run, z_j going to its j-th position in
walk order or in reversed walk order.  The second suffices because a
run that spans a submodule spans M[u] for its substring u, and
M[u] = M[w] only for u in {w, w^-1} (Butler-Ringel 1987).  No module is
built or validated and no Hom basis is searched.  The accepted map
alone is kept as a dense 0/1 matrix, `SigmaStep.sigma`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import claims
from .homext import DEFAULT_BUDGET, end_is_trivial, ext1_dim, hom_dim
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
    """Verification record for one collapse map sigma_ell.

    kernel_is_v0 says that v0 maps isomorphically onto sigma's kernel,
    and image_power_is_v0 that sigma^ell has rank dim v0 besides, since
    its image is then the kernel's coordinate set.
    """

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


def _is_homomorphism(X: FinModule, Y: FinModule, dst: list[int]) -> bool:
    """Whether the injective partial index map dst from X's total-space
    coordinates to Y's, -1 where it kills, is a module map E: X -> Y.

    E respects the vertices when dst keeps the vertex of every coordinate
    it does not kill.  E intertwines an arrow's actions T_X and T_Y when
    E T_X and T_Y E have the same nonzero entries: since dst is
    injective, an entry x = T_X[r, c] puts x at (dst[r], c) in E T_X and
    an entry y = T_Y[r, c] puts y at (r, src[c]) in T_Y E, src being
    dst's inverse, and no two entries land on the same place.
    """
    vertices = X.presentation.quiver.vertices
    x_label = [v for v in vertices for _ in range(X.dims[v])]
    y_label = [v for v in vertices for _ in range(Y.dims[v])]
    src = [-1] * Y.total_dim
    for c, d in enumerate(dst):
        if d >= 0:
            if y_label[d] != x_label[c]:
                return False
            src[d] = c
    for a in X.presentation.quiver.arrow_names:
        left = {(dst[r], c): x for r, c, x in _total_entries(X, a)
                if dst[r] >= 0}
        right = {(r, src[c]): y for r, c, y in _total_entries(Y, a)
                 if src[c] >= 0}
        if left != right:
            return False
    return True


def _walk_coordinates(V: FinModule) -> list[int]:
    """The total-space coordinate of each z_i of the string module V."""
    off = V.vertex_offsets()
    return [off[v] + l for v, l in zip(V.walk, V.local)]


def _kernel_is_copy(v0: FinModule, V_ell: FinModule, dst: list[int]) -> bool:
    """Whether the coordinates that dst kills span a copy of v0 in V_ell:
    whether the map e sending v0's z_j to the j-th killed walk position,
    in walk order or in reversed walk order, is a homomorphism, and so a
    monomorphism onto the killed span.  The module docstring says why no
    other e need be tried.
    """
    killed = [c for c in _walk_coordinates(V_ell) if dst[c] < 0]
    z = _walk_coordinates(v0)
    if len(killed) != len(z):
        return False
    # position[k] is the walk position j of v0's coordinate k = z[j].
    position = sorted(range(len(z)), key=z.__getitem__)
    return any(_is_homomorphism(v0, V_ell, [order[j] for j in position])
               for order in (killed, killed[::-1]))


def _sigma_candidates(V_ell: FinModule, D: int, form: str) -> list[list[int]]:
    """The collapse-map candidates of V_ell as index maps on total-space
    coordinates: dst[c] is the coordinate c goes to, or -1.

    A direct chain gives the shifts of the walk positions by +D and -D;
    a reflected one the reflections i -> total - 1 - i of its first D
    positions and of the others, the rest being killed.
    """
    total, coords = V_ell.total_dim, _walk_coordinates(V_ell)
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
                  form: str, word: StringWord) -> SigmaStep:
    """Check the first candidate collapse map that is a module endomorphism
    with a kernel of dimension dim v0.

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
    So one copy check, `_kernel_is_copy`, serves both hypotheses, and a
    power of rank D whose image is any other set is an error.  Only the
    accepted candidate is built as the dense 0/1 matrix `SigmaStep.sigma`.
    """
    D = v0.total_dim
    step = SigmaStep(level=level, word=word, sigma=None)
    for dst in _sigma_candidates(V_ell, D, form):
        domain = [c for c, d in enumerate(dst) if d >= 0]
        image = [dst[c] for c in domain]
        if len(set(image)) != len(image):
            raise AssertionError(
                "collapse map is not a partial permutation of coordinates")
        if not _is_homomorphism(V_ell, V_ell, dst):
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
        step.kernel_is_v0 = _kernel_is_copy(v0, V_ell, dst)
        step.image_power_is_v0 = step.power_rank == D and step.kernel_is_v0
        step.nilpotent = all(c < 0 or dst[c] < 0 for c in power)
        break
    return step


def build_sequence(V: FinModule, x) -> SequenceReport:
    """Grow the chain from the string module V = M[w] along x, up to
    n = CHAIN_LENGTH for an infinite chain, and verify each collapse map.

    x may be a ConnectingLetter or a bare Letter; a bare letter is
    resolved against connecting_letters(p, w), direct form first.  V is
    neither rebuilt nor validated: a copy check that holds maps V
    isomorphically onto a submodule of a chain module, so V is then a
    module.  The last chain module is kept as `last_module`, for
    `_classify`.
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
    words = [w, connector.word]
    kind, n_value = "Finite", 1
    if connector.form == "direct":
        second = _chain_word(p, w, connector.letter, 2)
        if second is not None:
            kind, n_value = "Infinite", None
            words.append(second)
            for n in range(3, CHAIN_LENGTH + 1):
                extended = _chain_word(p, w, connector.letter, n)
                if extended is None:
                    raise AssertionError(
                        f"chain broke at n = {n} after validating at n = 2")
                words.append(extended)
    report = SequenceReport(connector=connector, kind=kind,
                            n_value=n_value, words=words)
    for level in range(1, len(words)):
        V_ell = string_module(p, words[level], q)
        report.steps.append(
            _verify_sigma(V, V_ell, level, connector.form, words[level]))
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
