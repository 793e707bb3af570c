"""Classification of universal deformation rings of string modules.

For a module V = M[beta] with trivial endomorphisms the procedure is:
tangent dimension 0 gives the base field; tangent dimension 1 triggers
a search for connecting letters x, with the infinite chain (beta x)^n
beta certifying power series and a finite chain plus the collapse-map
hypotheses certifying a truncation; anything else stays undetermined
and is reported with its lift census.  `_classify` and `build_sequence`
take V itself and read the presentation, q and beta from it.

The chain is read on walk positions, not built as modules.  A string
module is fixed by its word (Butler-Ringel 1987), so each chain word's
entries come from `strings.string_entries`, (arrow, from, to) for each
letter, and V's own entries from its matrices, so that an altered V is
still rejected.  Each collapse map sigma_ell of the chain is a partial
permutation of walk positions, and every check reads it as an index
map: dst[i] is the position that i goes to, or -1 where i is killed.
Its kernel and the image of its ell-th power are then position sets,
and for every candidate they are the same run of dim v0 consecutive
walk positions.  One test, `_is_homomorphism` on index maps and entry
sets, answers both questions of a step: whether sigma_ell is a module
endomorphism, and whether v0 maps onto that run, z_j going to its j-th
position in walk order or in reversed walk order.  The second suffices
because a run that spans a submodule spans M[u] for its substring u,
and M[u] = M[w] only for u in {w, w^-1}.  No module is built for a
chain step and no Hom basis is searched.  The accepted map is kept as
that index map, `SigmaStep.sigma`, and a finite chain's last word alone
gets a module, for the hypotheses.

The chain's shape has one owner, `_join_slots`, and one join rule,
`_may_join`: `connecting_letters` finds connectors by them, and
`build_sequence` accepts no other and builds the chain words by
repetition, with no validation but the connector's word.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

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
    _composes,
    _walk,
    string_entries,
    string_module,
    validate_word,
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

    sigma is the accepted index map on the walk positions of `word`:
    position i goes to sigma[i], or is killed where sigma[i] is -1; None
    when no candidate was accepted.  kernel_is_v0 says that v0 maps
    isomorphically onto sigma's kernel, and image_power_is_v0 that
    sigma^ell has rank dim v0 besides, since its image is then the
    kernel's position set.
    """

    level: int
    word: StringWord
    sigma: tuple[int, ...] | None
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
    # The module of words[-1] for a finite chain, None for an infinite
    # one; for the hypotheses, not in as_dict.
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


def _is_string(p: Presentation, letters: tuple[Letter, ...]) -> bool:
    try:
        validate_word(p, letters)
    except StringError:
        return False
    return True


def _join_slots(w: StringWord) -> list[tuple[str, tuple, tuple]]:
    """The slots (form, left, right) of w, a connector x making the chain
    word left + (x,) + right: the direct slot (w, w) and, for a w with
    letters, the reflected slots (w, w^-1) and (w^-1, w)."""
    slots = [("direct", w.letters, w.letters)]
    if not w.is_simple:
        back = w.reverse_inverse().letters
        slots += [("reflected", w.letters, back),
                  ("reflected", back, w.letters)]
    return slots


def _may_join(p: Presentation, w: StringWord, x: Letter,
              left: tuple[Letter, ...], right: tuple[Letter, ...]) -> bool:
    """Whether x may stand in the slot (left, right) of w: for a simple w,
    x is a loop at its vertex; otherwise both new letter pairs compose."""
    if w.is_simple:
        return x.source(p) == x.target(p) == w.basepoint
    return _composes(p, left[-1], x) and _composes(p, x, right[0])


def connecting_letters(p: Presentation, w: StringWord) -> list[ConnectingLetter]:
    """All letters x forming a chain word from w, one per word class.

    The slots of `_join_slots` are walked in order, and every letter in
    each, direct letters first.  A word class is kept for the first
    letter that gives it: a direct letter before its inverse, and a
    direct-form connector before reflected ones.  w is validated once
    (an invalid w has none), and its reversal is a string with it;
    `_may_join` then checks only the two new pairs at x, none for a
    simple w.
    """
    if not _is_string(p, w.letters):
        return []
    letters = [Letter(a, inv) for inv in (False, True)
               for a in p.quiver.arrow_names]
    found: list[ConnectingLetter] = []
    seen = set()
    for form, left, right in _join_slots(w):
        for x in letters:
            if not _may_join(p, w, x, left, right):
                continue
            word = StringWord(left + (x,) + right)
            key = word.canonical().sort_key()
            if key not in seen:
                seen.add(key)
                found.append(ConnectingLetter(letter=x, form=form, word=word))
    return found


class _Walk(NamedTuple):
    """A string module on walk positions: the vertex of each z_i and the
    nonzero entries of the arrows' actions as {(arrow, from, to): value},
    z_from going to z_to."""

    vertex: tuple[str, ...]
    entries: dict[tuple[str, int, int], int]


def _word_walk(p: Presentation, w: StringWord) -> _Walk:
    """M[w] on walk positions, read off the word by `string_entries`."""
    return _Walk(tuple(_walk(p, w)[0]), dict.fromkeys(string_entries(w), 1))


def _module_walk(V: FinModule) -> _Walk:
    """The string module V on walk positions, its entries read from its
    matrices: each nonzero of `sparse_action` mod q, placed through
    `walk` and `local`."""
    p, q = V.presentation, V.q
    position = {c: i for i, c in enumerate(zip(V.walk, V.local))}
    entries = {}
    for a, (_, nonzeros) in V.sparse_action.items():
        s, t = p.source(a), p.target(a)
        for i, j, x in nonzeros:
            if x % q:
                entries[a, position[s, j], position[t, i]] = x % q
    return _Walk(V.walk, entries)


def _is_homomorphism(X: _Walk, Y: _Walk, dst: list[int]) -> bool:
    """Whether the injective partial index map dst from X's walk
    positions to Y's, -1 where it kills, is a module map E: X -> Y.

    E respects the vertices when dst keeps the vertex of every position
    it does not kill.  E intertwines the arrows' actions T_X and T_Y
    when E T_X and T_Y E have the same nonzero entries: since dst is
    injective, an entry x of T_X sending z_s to z_t puts x at
    (s, dst[t]) in E T_X, and an entry y of T_Y sending z_s to z_t puts
    y at (src[s], t) in T_Y E, src being dst's inverse, and no two
    entries land on the same place.
    """
    src = [-1] * len(Y.vertex)
    for c, d in enumerate(dst):
        if d >= 0:
            if Y.vertex[d] != X.vertex[c]:
                return False
            src[d] = c
    left = {(a, s, dst[t]): x for (a, s, t), x in X.entries.items()
            if dst[t] >= 0}
    right = {(a, src[s], t): y for (a, s, t), y in Y.entries.items()
             if src[s] >= 0}
    return left == right


def _kernel_is_copy(v0: _Walk, V_ell: _Walk, dst: list[int]) -> bool:
    """Whether the positions that dst kills span a copy of v0 in V_ell:
    whether the map e sending v0's z_j to the j-th killed position, in
    walk order or in reversed walk order, is a homomorphism, and so a
    monomorphism onto the killed span.  The module docstring says why no
    other e need be tried.
    """
    killed = [i for i, d in enumerate(dst) if d < 0]
    if len(killed) != len(v0.vertex):
        return False
    return any(_is_homomorphism(v0, V_ell, order)
               for order in (killed, killed[::-1]))


def _sigma_candidates(total: int, D: int, form: str) -> list[list[int]]:
    """The collapse-map candidates of a chain module with total walk
    positions, as index maps: dst[i] is the position i goes to, or -1.

    A direct chain gives the shifts of the walk positions by +D and -D;
    a reflected one the reflections i -> total - 1 - i of its first D
    positions and of the others, the rest being killed.
    """
    if form == "direct":
        return [[i + shift if 0 <= i + shift < total else -1
                 for i in range(total)] for shift in (D, -D)]
    return [[total - 1 - i if (i < D) == keep_low else -1
             for i in range(total)] for keep_low in (True, False)]


def _verify_sigma(v0: _Walk, V_ell: _Walk, level: int,
                  form: str, word: StringWord) -> SigmaStep:
    """Check the first candidate collapse map that is a module endomorphism
    with a kernel of dimension dim v0.

    Every candidate is an index map dst on walk positions, injective
    where it is defined, and so is each of its powers, dst composed with
    itself: its kernel is spanned by the z_i where dst is -1, and the
    image of sigma^level by those that dst^level reaches, one per
    position where it is defined, which is its rank.  sigma is nilpotent
    of index at most level + 1 when dst^(level + 1) is nowhere defined.
    V_level has (level + 1) * D walk positions, D = dim v0, and both
    candidate shapes of `_sigma_candidates` make that image the kernel's
    position set: a shift by +D (-D) kills the last (first) D positions
    and its level-th power lands on them, and a reflection (level 1, 2D
    positions) sends one half onto the other and kills that other half.
    So one copy check, `_kernel_is_copy`, serves both hypotheses, and a
    power of rank D whose image is any other set is an error.  The
    accepted candidate is kept as `SigmaStep.sigma`.
    """
    D, total = len(v0.vertex), len(V_ell.vertex)
    step = SigmaStep(level=level, word=word, sigma=None)
    for dst in _sigma_candidates(total, D, form):
        image = [d for d in dst if d >= 0]
        if len(set(image)) != len(image):
            raise AssertionError(
                "collapse map is not a partial permutation of positions")
        if not _is_homomorphism(V_ell, V_ell, dst):
            continue
        kernel = [d < 0 for d in dst]
        if sum(kernel) != D:
            continue
        step.sigma = tuple(dst)
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


def build_sequence(V: FinModule,
                   connector: ConnectingLetter) -> SequenceReport:
    """Grow the chain from the string module V = M[w] along connector, up
    to n = CHAIN_LENGTH for an infinite chain, and verify each collapse
    map.

    The connector is accepted only if its word is left + (x,) + right
    for a slot of `_join_slots` of its form where `_may_join` holds, and
    that word is a string; otherwise ValueError says that x does not
    connect w.  The chain is infinite exactly when the connector is
    direct and either w has letters or x x composes: each (w x)^n w is
    then a string, since the relations are quadratic and all its letter
    pairs occur in w x w or are (x, x), and is built by repetition.
    Otherwise the chain is finite: w and the connector's word.

    V is neither rebuilt nor validated: a copy check that holds maps V
    isomorphically onto a submodule of a chain module, so V is then a
    module.  No chain word gets a module, but a finite chain's last one,
    kept as `last_module` for `_classify`'s hypotheses; an infinite
    chain's `last_module` is None.
    """
    p, q, w = V.presentation, V.q, V.word
    if w is None or any(V.walk.count(v) != n for v, n in V.dims.items()):
        raise ValueError("build_sequence needs a string module")
    x, word = connector.letter, connector.word.letters
    if not (_is_string(p, word) and any(
            form == connector.form and left + (x,) + right == word
            and _may_join(p, w, x, left, right)
            for form, left, right in _join_slots(w))):
        raise ValueError(f"{x.display()} does not connect {w.display()}")
    infinite = connector.form == "direct" and (
        not w.is_simple or _composes(p, x, x))
    words = [w, connector.word]
    if infinite:
        words += [StringWord((w.letters + (x,)) * n + w.letters)
                  for n in range(2, CHAIN_LENGTH + 1)]
    report = SequenceReport(connector=connector,
                            kind="Infinite" if infinite else "Finite",
                            n_value=None if infinite else 1, words=words)
    v0 = _module_walk(V)
    for level in range(1, len(words)):
        report.steps.append(_verify_sigma(
            v0, _word_walk(p, words[level]), level, connector.form,
            words[level]))
    if not infinite:
        report.last_module = string_module(p, words[-1], q)
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
