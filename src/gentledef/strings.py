"""Strings over a gentle presentation and their modules.

A string is a reduced walk of arrows and inverse arrows.  Letters are
stored in application order (first-applied first); the display form
"b*c*a" lists them product-style with the rightmost applied first, so
its letter sequence is [a, c, b].  A module M[w] and the module of the
reversed-inverted walk are isomorphic, and the lexicographically
smaller of the two words is the canonical representative.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cache, cached_property
from operator import itemgetter
from types import MappingProxyType

import numpy as np

from .linalg import _nonzeros, is_prime
from .presentation import Presentation


class StringError(ValueError):
    """Invalid string word; `position` is 1-based in application order."""

    def __init__(self, message, position=None):
        self.position = position
        super().__init__(message)


@dataclass(frozen=True)
class Letter:
    arrow: str
    inverse: bool = False

    def flip(self) -> "Letter":
        return Letter(self.arrow, not self.inverse)

    def source(self, p: Presentation) -> str:
        return p.target(self.arrow) if self.inverse else p.source(self.arrow)

    def target(self, p: Presentation) -> str:
        return p.source(self.arrow) if self.inverse else p.target(self.arrow)

    def display(self) -> str:
        return ("~" if self.inverse else "") + self.arrow

    def sort_key(self):
        return (1 if self.inverse else 0, self.arrow)


@dataclass(frozen=True)
class StringWord:
    """A validated string; empty words carry the basepoint of a simple."""

    letters: tuple[Letter, ...]
    basepoint: str | None = None

    @property
    def is_simple(self) -> bool:
        return not self.letters

    def __len__(self) -> int:
        return len(self.letters)

    def display(self) -> str:
        if self.is_simple:
            return f"simple {self.basepoint}"
        return "*".join(l.display() for l in reversed(self.letters))

    def reverse_inverse(self) -> "StringWord":
        if self.is_simple:
            return self
        return StringWord(tuple(l.flip() for l in reversed(self.letters)))

    def sort_key(self):
        if self.is_simple:
            return (0, str(self.basepoint), ())
        return (1, "", tuple(l.sort_key() for l in self.letters))

    def canonical(self) -> "StringWord":
        if self.is_simple:
            return self
        other = self.reverse_inverse()
        return self if self.sort_key() <= other.sort_key() else other


def _pair_problem(p: Presentation, a: Letter, b: Letter) -> str | None:
    """Why letter b may not follow letter a, as a message, or None when
    it may: the one rule for adjacent letters."""
    if b.source(p) != a.target(p):
        return f"letters {a.display()} then {b.display()} do not compose"
    if b.arrow == a.arrow and b.inverse != a.inverse:
        return f"letter {b.display()} cancels {a.display()}"
    rels = p.relation_set
    if not a.inverse and not b.inverse:
        if (b.arrow, a.arrow) in rels:
            return f"path {b.arrow}*{a.arrow} lies in the ideal"
    elif a.inverse and b.inverse:
        if (a.arrow, b.arrow) in rels:
            return f"reversed path {a.arrow}*{b.arrow} lies in the ideal"
    return None


def _check_pair(p: Presentation, a: Letter, b: Letter, pos: int) -> None:
    """Validate adjacent letters a then b; pos is a's 1-based position."""
    problem = _pair_problem(p, a, b)
    if problem is not None:
        raise StringError(problem, position=pos)


def _composes(p: Presentation, a: Letter, b: Letter) -> bool:
    """Whether letter b may follow letter a, by `_pair_problem`."""
    return _pair_problem(p, a, b) is None


def validate_word(p: Presentation, letters: tuple[Letter, ...]) -> None:
    names = set(p.quiver.arrow_names)
    for i, letter in enumerate(letters, start=1):
        if letter.arrow not in names:
            raise StringError(f"unknown arrow {letter.arrow!r}", position=i)
    for i in range(len(letters) - 1):
        _check_pair(p, letters[i], letters[i + 1], i + 1)


def make_string(p: Presentation, text: str) -> StringWord:
    """Parse and validate a word.

    Accepts "x*y*z" (rightmost applied first), "~x" for inverse
    letters, and "simple <vertex>" for the empty word at a vertex.
    """
    text = text.strip()
    parts = text.split()
    if parts[:1] == ["simple"]:
        if len(parts) != 2:
            raise StringError("expected 'simple <vertex>'")
        if parts[1] not in p.quiver.vertices:
            raise StringError(f"unknown vertex {parts[1]!r}")
        return StringWord((), basepoint=parts[1])
    tokens = [t.strip() for t in text.split("*")]
    if not all(tokens):
        raise StringError(f"malformed word {text!r}")
    letters = []
    for tok in reversed(tokens):
        if tok.startswith("~"):
            letters.append(Letter(tok[1:], inverse=True))
        else:
            letters.append(Letter(tok))
    letters = tuple(letters)
    validate_word(p, letters)
    return StringWord(letters)


@cache
def _successors(p: Presentation) -> Mapping[Letter, tuple[Letter, ...]]:
    """Every letter over p, direct ones first, with the letters that may
    follow it; built once per process for each presentation."""
    letters = [Letter(a, inv) for inv in (False, True)
               for a in p.quiver.arrow_names]
    return MappingProxyType({a: tuple(b for b in letters
                                      if _composes(p, a, b))
                             for a in letters})


def enumerate_strings(p: Presentation, max_len: int) -> list[StringWord]:
    """All valid words of length <= max_len, one per isomorphism class.

    Deterministic: sorted by (length, simples first, letter keys).
    Includes the empty word at every vertex.  Letter tuples grow one
    letter at a time, each carrying its `sort_key` tuple and that of its
    reverse-inverse, so the canonical orientation is chosen by comparing
    two tuples and a `StringWord` is built only for it, once per class.
    Which letter may follow which is read from `_successors(p)`.
    """
    if max_len < 0:
        raise ValueError("max_len must be >= 0")
    out = sorted((StringWord((), basepoint=v) for v in p.quiver.vertices),
                 key=StringWord.sort_key)
    follow = _successors(p)
    letters = list(follow)
    key = {a: a.sort_key() for a in letters}
    back = {a: a.flip().sort_key() for a in letters}
    frontier = [((a,), (key[a],), (back[a],)) for a in letters]
    for length in range(1, max_len + 1):
        if length > 1:
            frontier = [(t + (b,), k + (key[b],), (back[b],) + r)
                        for t, k, r in frontier for b in follow[t[-1]]]
        out += [StringWord(t) for k, t in
                sorted(((k, t) for t, k, r in frontier if k < r),
                       key=itemgetter(0))]
    return out


@dataclass(frozen=True, eq=False)
class FinModule:
    """A finite-dimensional representation over F_q, immutable once built.

    q must be prime.  dims maps each vertex to its fiber dimension;
    action maps each arrow to a (dim target) x (dim source) matrix.  Both
    are read-only mappings over copies of the dicts passed in, and the
    matrices are made read-only, so every mutation raises and nothing
    read from a module goes stale.  Equality is identity.  `word` is the
    string of a module built by `string_module`, else None; `walk` is
    then the vertex of each basis element z_i and `local` its index
    inside that vertex's fiber, both tuples computed once per module.
    `sparse_action` holds each arrow's nonzeros as `linalg._nonzeros`
    makes them, and `negated_action` the same entries negated, its side
    of `homext.cochain_system` in even degree; both are read-only
    mappings of tuples, each built on first read.
    `_hom` is `homext.hom_dim`'s one-entry memo with this module as the
    source.
    """

    presentation: Presentation
    q: int
    dims: Mapping[str, int]
    action: Mapping[str, np.ndarray]
    word: StringWord | None = None
    _hom: tuple | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if not is_prime(self.q):
            raise ValueError(f"q must be prime, got {self.q}")
        for mat in self.action.values():
            mat.flags.writeable = False
        object.__setattr__(self, "dims", MappingProxyType(dict(self.dims)))
        object.__setattr__(self, "action",
                           MappingProxyType(dict(self.action)))

    def __reduce__(self):
        return FinModule, (self.presentation, self.q, dict(self.dims),
                           dict(self.action), self.word)

    @cached_property
    def sparse_action(self) -> Mapping[str, tuple[tuple[int, int], tuple]]:
        """`linalg._nonzeros` of each arrow's matrix, read once."""
        return MappingProxyType({a: _nonzeros(mat)
                                 for a, mat in self.action.items()})

    @cached_property
    def negated_action(self) -> Mapping[str, tuple[tuple[int, int], tuple]]:
        """`sparse_action` with every entry negated, read once."""
        return MappingProxyType({
            a: (shape, tuple((i, j, -v) for i, j, v in entries))
            for a, (shape, entries) in self.sparse_action.items()})

    @cached_property
    def _coordinates(self) -> tuple:
        """`_walk` of the word as a pair of tuples, read once."""
        if self.word is None:
            return None, None
        walk, local = _walk(self.presentation, self.word)
        return tuple(walk), tuple(local)

    @property
    def walk(self) -> tuple[str, ...] | None:
        return self._coordinates[0]

    @property
    def local(self) -> tuple[int, ...] | None:
        return self._coordinates[1]

    @property
    def total_dim(self) -> int:
        return sum(self.dims.values())

    def vertex_offsets(self) -> dict[str, int]:
        off, total = {}, 0
        for v in self.presentation.quiver.vertices:
            off[v] = total
            total += self.dims[v]
        return off

    def total_action_matrices(self) -> np.ndarray:
        """Every arrow's action as an endomorphism of the total space,
        stacked in arrow order: an (arrows, total, total) array."""
        p, off = self.presentation, self.vertex_offsets()
        out = np.zeros((len(p.quiver.arrow_names), self.total_dim,
                        self.total_dim), dtype=np.int64)
        for T, a in zip(out, p.quiver.arrow_names):
            mat = self.action[a]
            r, c = off[p.target(a)], off[p.source(a)]
            T[r:r + mat.shape[0], c:c + mat.shape[1]] = mat
        return out

    def validate(self) -> list[str]:
        """Relation annihilation and nilpotence of the total action."""
        problems = []
        p = self.presentation
        for a in p.quiver.arrow_names:
            mat = self.action.get(a)
            if mat is None:
                problems.append(f"arrow {a}: no action matrix")
                continue
            want = (self.dims[p.target(a)], self.dims[p.source(a)])
            if mat.shape != want:
                problems.append(f"arrow {a}: shape {mat.shape}, want {want}")
        if problems:
            return problems
        for beta, alpha in p.relations:
            prod = self.action[beta] @ self.action[alpha] % self.q
            if prod.size and prod.any():
                problems.append(f"relation {beta}*{alpha} does not annihilate")
        # An N x N matrix T is nilpotent iff T^N = 0, so iff T^M = 0 for
        # any M >= N; M = 2^ceil(log2 N) takes ceil(log2 N) squarings.
        P = self.total_action_matrices().sum(axis=0) % self.q
        for _ in range(max(self.total_dim - 1, 0).bit_length()):
            P = P @ P % self.q
        if P.any():
            problems.append("total arrow action is not nilpotent")
        return problems


def _walk(p: Presentation, w: StringWord) -> tuple[list[str], list[int]]:
    """The vertex of each z_i of M[w] and its index in that fiber."""
    if w.is_simple:
        walk = [w.basepoint]
    else:
        walk = [w.letters[0].source(p)]
        for letter in w.letters:
            walk.append(letter.target(p))
    seen = dict.fromkeys(p.quiver.vertices, 0)
    local = []
    for v in walk:
        local.append(seen[v])
        seen[v] += 1
    return walk, local


def string_entries(w: StringWord) -> list[tuple[str, int, int]]:
    """The nonzero entries of M[w] on walk positions, each equal to 1,
    read off the word: (arrow, from, to) says that the arrow sends z_from
    to z_to.  A direct letter alpha at position i contributes
    (alpha, i - 1, i), an inverse letter (alpha, i, i - 1)."""
    return [(l.arrow, i, i - 1) if l.inverse else (l.arrow, i - 1, i)
            for i, l in enumerate(w.letters, start=1)]


def string_module(p: Presentation, w: StringWord, q: int = 2) -> FinModule:
    """The module of a walk: basis z_0..z_n threaded along the letters,
    with the entries of `string_entries`."""
    walk, local = _walk(p, w)
    dims = {v: walk.count(v) for v in p.quiver.vertices}
    action = {
        a: np.zeros((dims[p.target(a)], dims[p.source(a)]), dtype=np.int64)
        for a in p.quiver.arrow_names
    }
    for a, source, target in string_entries(w):
        action[a][local[target], local[source]] = 1
    return FinModule(presentation=p, q=q, dims=dims, action=action, word=w)


def simple_module(p: Presentation, vertex: str, q: int = 2) -> FinModule:
    return string_module(p, StringWord((), basepoint=str(vertex)), q=q)


def _segments(p: Presentation, w: StringWord):
    """Every image or factor substring of w: (image, factor, key) for
    each segment [a, b] of the walk z_0..z_n that is either, shortest
    first.

    The segment spans z_a..z_b and letters a+1..b.  It is an image
    substring (its span is a submodule of M[w]) when letter a, if any,
    is direct and letter b+1, if any, is inverse, and a factor substring
    (its span is a quotient) in the opposite case; only [0, n] is both.
    key is (vertex,) for a trivial segment and, for a non-trivial one,
    the smaller of the codes of the substring and of its reverse-inverse,
    one character per letter, so two substrings match, as equal or
    mutually reverse-inverse strings, exactly when their keys are equal.
    """
    walk, n = _walk(p, w)[0], len(w)
    arrows = p.quiver.arrow_names
    inverse = [l.inverse for l in w.letters]
    # Letter k of arrow i is 2i + inverse, so flipping it is k ^ 1.
    code = [2 * arrows.index(l.arrow) + l.inverse for l in w.letters]
    fwd = "".join(map(chr, code))
    back = "".join(chr(k ^ 1) for k in reversed(code))
    for length in range(n + 1):
        for a in range(n + 1 - length):
            b = a + length
            left = None if a == 0 else inverse[a - 1]
            right = None if b == n else inverse[b]
            image = left is not True and right is not False
            factor = left is not False and right is not True
            if image or factor:
                key = (walk[a],) if a == b else min(fwd[a:b],
                                                    back[n - b:n - a])
                yield image, factor, key


def word_hom_dim(p: Presentation, v: StringWord, w: StringWord) -> int:
    """dim Hom(M[v], M[w]) over any field, read off the two words.

    One basis map per pair of a factor substring of v and an image
    substring of w that match (Crawley-Boevey, J. Algebra 126, 1989;
    Krause, J. Algebra 137, 1991).  No module is built and no linear
    system solved, so this is a derivation independent of `homext`.
    """
    images = Counter(key for image, _, key in _segments(p, w) if image)
    return sum(images[key] for _, factor, key in _segments(p, v) if factor)


def word_end_is_trivial(p: Presentation, w: StringWord) -> bool:
    """Whether End(M[w]) = k, by `word_hom_dim`'s count: the whole word,
    the one segment that is both factor and image and the only substring
    of its length, gives the identity, and End = k exactly when no other
    factor substring matches an image substring.  Stops at the first
    such match; a simple module, one segment, passes at once.
    """
    images, factors = set(), set()
    for image, _, key in _segments(p, w):
        if key in (factors if image else images):
            return False
        (images if image else factors).add(key)
    return True
