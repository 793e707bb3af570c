"""Strings over a gentle presentation and their modules.

A string is a reduced walk of arrows and inverse arrows.  Letters are
stored in application order (first-applied first); the display form
"b*c*a" lists them product-style with the rightmost applied first, so
its letter sequence is [a, c, b].  A module M[w] and the module of the
reversed-inverted walk are isomorphic, and the lexicographically
smaller of the two words is the canonical representative.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .presentation import Presentation


class StringError(ValueError):
    """Invalid string word; `position` is 1-based in application order."""

    def __init__(self, message, position=None):
        self.position = position
        super().__init__(message)


class NonComposableError(StringError):
    pass


class NotReducedError(StringError):
    pass


class HitsRelationError(StringError):
    pass


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


def _check_pair(p: Presentation, a: Letter, b: Letter, pos: int) -> None:
    """Validate adjacent letters a then b; pos is a's 1-based position."""
    if b.source(p) != a.target(p):
        raise NonComposableError(
            f"letters {a.display()} then {b.display()} do not compose",
            position=pos)
    if b == a.flip():
        raise NotReducedError(
            f"letter {b.display()} cancels {a.display()}", position=pos)
    rels = p.relation_set
    if not a.inverse and not b.inverse:
        if (b.arrow, a.arrow) in rels:
            raise HitsRelationError(
                f"path {b.arrow}*{a.arrow} lies in the ideal", position=pos)
    elif a.inverse and b.inverse:
        if (a.arrow, b.arrow) in rels:
            raise HitsRelationError(
                f"reversed path {a.arrow}*{b.arrow} lies in the ideal",
                position=pos)


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
    if text.startswith("simple"):
        parts = text.split()
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


def word_from_letters(p: Presentation, letters, basepoint=None) -> StringWord:
    letters = tuple(letters)
    if not letters:
        if basepoint is None:
            raise StringError("empty word needs a basepoint")
        return StringWord((), basepoint=str(basepoint))
    validate_word(p, letters)
    return StringWord(letters)


def enumerate_strings(p: Presentation, max_len: int) -> list[StringWord]:
    """All valid words of length <= max_len, one per isomorphism class.

    Deterministic: sorted by (length, simples first, letter keys).
    Includes the empty word at every vertex.
    """
    if max_len < 0:
        raise ValueError("max_len must be >= 0")
    found = {}
    for v in p.quiver.vertices:
        w = StringWord((), basepoint=v)
        found[w.sort_key()] = w

    frontier: list[tuple[Letter, ...]] = []
    all_letters = [Letter(a) for a in p.quiver.arrow_names] + \
                  [Letter(a, inverse=True) for a in p.quiver.arrow_names]
    if max_len >= 1:
        frontier = [(l,) for l in all_letters]
        for letters in frontier:
            w = StringWord(letters).canonical()
            found[w.sort_key()] = w
    length = 1
    while length < max_len and frontier:
        new = []
        for letters in frontier:
            last = letters[-1]
            for nxt in all_letters:
                try:
                    _check_pair(p, last, nxt, len(letters))
                except StringError:
                    continue
                ext = letters + (nxt,)
                new.append(ext)
                w = StringWord(ext).canonical()
                found[w.sort_key()] = w
        frontier = new
        length += 1
    return sorted(found.values(), key=lambda w: (len(w), w.sort_key()))


@dataclass
class FinModule:
    """A finite-dimensional representation over F_q.

    dims maps each vertex to its fiber dimension; action maps each
    arrow to a (dim target) x (dim source) matrix.  For modules built
    from a walk, `walk` records the vertex of each basis element z_i
    and `local` its index inside that vertex's fiber.
    """

    presentation: Presentation
    q: int
    dims: dict[str, int]
    action: dict[str, np.ndarray]
    provenance: str = "raw"
    walk: list[str] | None = None
    local: list[int] | None = None

    @property
    def total_dim(self) -> int:
        return sum(self.dims.values())

    def vertex_offsets(self) -> dict[str, int]:
        off, total = {}, 0
        for v in self.presentation.quiver.vertices:
            off[v] = total
            total += self.dims[v]
        return off

    def total_action_matrix(self) -> np.ndarray:
        """All arrow actions packed into one endomorphism of the total space."""
        n = self.total_dim
        off = self.vertex_offsets()
        T = np.zeros((n, n), dtype=np.int64)
        p = self.presentation
        for a, mat in self.action.items():
            r, c = off[p.target(a)], off[p.source(a)]
            T[r:r + mat.shape[0], c:c + mat.shape[1]] += mat
        return T % self.q

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
        T = self.total_action_matrix()
        P = np.eye(self.total_dim, dtype=np.int64)
        for _ in range(self.total_dim):
            P = P @ T % self.q
        if P.any():
            problems.append("total arrow action is not nilpotent")
        return problems


def string_module(p: Presentation, w: StringWord, q: int = 2) -> FinModule:
    """The module of a walk: basis z_0..z_n threaded along the letters.

    A direct letter alpha at position i contributes alpha: z_{i-1} -> z_i,
    an inverse letter the reverse.
    """
    if w.is_simple:
        walk = [w.basepoint]
    else:
        walk = [w.letters[0].source(p)]
        for letter in w.letters:
            walk.append(letter.target(p))
    dims = {v: 0 for v in p.quiver.vertices}
    local = []
    for v in walk:
        local.append(dims[v])
        dims[v] += 1
    action = {
        a: np.zeros((dims[p.target(a)], dims[p.source(a)]), dtype=np.int64)
        for a in p.quiver.arrow_names
    }
    for i, letter in enumerate(w.letters, start=1):
        if letter.inverse:
            action[letter.arrow][local[i - 1], local[i]] = 1
        else:
            action[letter.arrow][local[i], local[i - 1]] = 1
    return FinModule(presentation=p, q=q, dims=dims, action=action,
                     provenance=w.display(), walk=walk, local=local)


def simple_module(p: Presentation, vertex: str, q: int = 2) -> FinModule:
    return string_module(p, StringWord((), basepoint=str(vertex)), q=q)
