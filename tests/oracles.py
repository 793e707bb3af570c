"""Exhaustive oracles for the lift census, kept out of the package.

No command, sweep or benchmark runs these: the tests check
`lifts.count_deformations` against them.  They share `lifts._lift_walk`
and its level equations, fanned out by every cocycle through `_span`,
but no coset or torsor argument.  `count_deformations_by_orbits` merges
the lifts into conjugation classes, each generator applied by row and
column operations to one block of lifts at a time, copied into a reused
buffer of at most `_ORBIT_BLOCK` entries, so no second copy of the walk
is held; and `Lift.validate` checks each lift from `enumerate_lifts` by
whole matrix-polynomial products, not by `_level_rhs`.  The private
package names imported here are listed in `test_source.py`.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from gentledef.homext import (DEFAULT_BUDGET, BudgetExceededError,
                              end_is_trivial, ext_system)
from gentledef.lifts import CoeffRing, _lift_walk, _span
from gentledef.strings import FinModule


@dataclass
class Lift:
    """Arrow actions over a CoeffRing; coeffs[a] has shape (n, rows, cols)."""

    module: FinModule
    ring: CoeffRing
    coeffs: dict[str, np.ndarray]

    def validate(self) -> list[str]:
        problems = []
        p = self.module.presentation
        q, n = self.ring.q, self.ring.n
        for a in p.quiver.arrow_names:
            if ((self.coeffs[a][0] - self.module.action[a]) % q).any():
                problems.append(f"arrow {a}: constant term differs from V")
        for beta, alpha in p.relations:
            if _poly_matmul(self.coeffs[beta], self.coeffs[alpha], q).any():
                problems.append(
                    f"relation {beta}*{alpha} fails over F_{q}[t]/(t^{n})")
        return problems


def _poly_matmul(A: np.ndarray, B: np.ndarray, q: int) -> np.ndarray:
    """Truncated product of matrix polynomials.

    The level is axis -3 of both factors and the axes before it
    broadcast, so one call multiplies a whole batch of lifts; levels
    where A vanishes throughout are skipped.
    """
    n = A.shape[-3]
    batch = np.broadcast_shapes(A.shape[:-3], B.shape[:-3])
    out = np.zeros(batch + (n, A.shape[-2], B.shape[-1]), dtype=np.int64)
    for i in range(n):
        Ai = A[..., i, :, :]
        if Ai.any():
            out[..., i:, :, :] += Ai[..., None, :, :] @ B[..., :n - i, :, :]
    return out % q


def _every_cocycle(V: FinModule, Z: np.ndarray, budget: int) -> np.ndarray:
    """The oracles' fan for `_lift_walk`: every level-one cocycle."""
    return _span(Z, V.q, budget)


def enumerate_lifts(V: FinModule, n: int,
                    budget: int = DEFAULT_BUDGET) -> list[Lift]:
    """Every action tuple over F_q[t]/(t^n) reducing to V and killing the
    relations, q being V's: the orbit oracle's lifts, each checkable by
    `Lift.validate`."""
    ring = CoeffRing(V.q, n)
    C = _lift_walk(V, n, _every_cocycle, budget)[0]
    blocks = ext_system(V, V).unpack(C)
    return [Lift(module=V, ring=ring,
                 coeffs={a: b[i].copy() for a, b in blocks.items()})
            for i in range(C.shape[0])]


def _unit_generators(V: FinModule, ring: CoeffRing):
    """Congruent-to-identity conjugations that generate the whole group.

    Yields (v, i, j, k, c) for U = I + c t^k E_ij at vertex v: one per
    vertex, matrix entry, level >= 1, and nonzero scalar; the filtration
    argument shows these generate every vertex map U with U = I mod t.
    """
    for v in V.presentation.quiver.vertices:
        for i, j in itertools.product(range(V.dims[v]), repeat=2):
            for k in range(1, ring.n):
                for c in range(1, ring.q):
                    yield v, i, j, k, c


def _conjugate(V: FinModule, blocks: dict[str, np.ndarray], gen,
               q: int) -> None:
    """U A U^-1 in place for every lift, for gen = (v, i, j, k, c).

    blocks are the lift rows unpacked by `ext_system(V, V)`, (lifts, n,
    r, s) each.  Only the arrow blocks at v change.  U A: row i at level
    l gains c times row j at level l - k, every level at once from the
    rows before the change.  A U^-1 is the B with B U = A: column j at
    level l loses c times B's column i at level l - k, levels ascending
    so that each reads a level of B already final; for i = j this sums
    the series of (1 + c t^k)^-1.
    """
    v, i, j, k, c = gen
    p = V.presentation
    for a, A in blocks.items():
        if A.size == 0:
            continue
        n = A.shape[1]
        if p.target(a) == v:
            A[:, k:, i] = (A[:, k:, i] + c * A[:, :n - k, j]) % q
        if p.source(a) == v:
            for l in range(k, n):
                A[:, l, :, j] = (A[:, l, :, j] - c * A[:, l - k, :, i]) % q


# _pack_keys' weight matrices by (width, q), each built once per process.
_KEY_WEIGHTS: dict[tuple[int, int], np.ndarray] = {}


def _field_bits(q: int) -> int:
    """Bits per packed entry: room for one residue mod q."""
    return (q - 1).bit_length()


def _pack_keys(rows: np.ndarray, q: int) -> np.ndarray:
    """Rows of residues mod q as packed int64 keys, one row of words each.

    Entry j is the field at bit bits * (j % per_word) of word
    j // per_word, where per_word = 63 // bits, so every word is
    nonnegative and two rows are equal exactly when their keys are; a
    row of width 0 is one zero word.  The keys are one integer product
    of the rows with the matrix of field weights, which holds
    2^(bits * (j % per_word)) at (j, j // per_word).
    """
    width = rows.shape[1]
    weights = _KEY_WEIGHTS.get((width, q))
    if weights is None:
        bits = _field_bits(q)
        per_word = 63 // bits
        j = np.arange(width)
        weights = np.zeros((width, max(1, -(-width // per_word))),
                           dtype=np.int64)
        weights[j, j // per_word] = 1 << (bits * (j % per_word))
        weights.flags.writeable = False
        _KEY_WEIGHTS[width, q] = weights
    return rows @ weights


def _row_keys(C: np.ndarray, q: int) -> np.ndarray:
    """One void key per lift row: its levels above 0, packed."""
    keys = _pack_keys(C[:, 1:].reshape(C.shape[0], -1), q)
    return keys.view(np.dtype((np.void, 8 * keys.shape[1]))).ravel()


# _orbit_count conjugates the lifts in blocks of at most this many int64
# entries (512 KB), at least one lift each.
_ORBIT_BLOCK = 2 ** 16


def _orbit_count(V: FinModule, ring: CoeffRing, C: np.ndarray) -> int:
    """Conjugation classes of the lift rows C.

    Each generator moves every lift to the lift whose key its conjugate
    has, found by `searchsorted` among the sorted keys.  The lifts are
    keyed and conjugated in blocks of whole rows: a block is copied
    into one buffer of at most `_ORBIT_BLOCK` entries, unpacked once,
    conjugated in place and keyed, and fills its part of the move.
    Classes merge by array union-find: label[x] <= x leads to the least
    lift of x's class.  Where a lift and its image have different
    roots, the larger root is hooked under the smaller and labels jump
    to their labels' labels until fixed, until every lift shares its
    image's root.
    """
    count, q = C.shape[0], ring.q
    step = max(1, _ORBIT_BLOCK // max(C[0].size, 1))
    spans = [(s, min(s + step, count)) for s in range(0, count, step)]
    keys = np.concatenate([_row_keys(C[s:e], q) for s, e in spans])
    order = np.argsort(keys)
    ordered = keys[order]
    label = np.arange(count)
    move = np.empty_like(label)
    D = np.empty((min(step, count),) + C.shape[1:], dtype=C.dtype)
    blocks = ext_system(V, V).unpack(D)
    for gen in _unit_generators(V, ring):
        for s, e in spans:
            D[:e - s] = C[s:e]
            _conjugate(V, {a: A[:e - s] for a, A in blocks.items()}, gen, q)
            moved = _row_keys(D[:e - s], q)
            pos = np.minimum(np.searchsorted(ordered, moved), count - 1)
            if (ordered[pos] != moved).any():
                raise AssertionError(
                    "conjugation left the enumerated set; enumeration bug")
            move[s:e] = order[pos]
        roots = label[move]
        while (label != roots).any():
            np.minimum.at(label, np.maximum(label, roots),
                          np.minimum(label, roots))
            while (label != label[label]).any():
                label = label[label]
            roots = label[move]
    return int(np.count_nonzero(label == np.arange(count)))


def count_deformations_by_orbits(V: FinModule, n: int,
                                 budget: int = DEFAULT_BUDGET) -> int:
    """`lifts.count_deformations` by partitioning every lift under the
    unit generators' conjugations."""
    ring = CoeffRing(V.q, n)
    if not end_is_trivial(V):
        raise ValueError("deformation counts require End(V) = k")
    if n == 1:
        return 1
    C = _lift_walk(V, n, _every_cocycle, budget)[0]
    squares = sum(V.dims[v] ** 2 for v in V.presentation.quiver.vertices)
    cost = C.shape[0] * max((ring.q - 1) * (ring.n - 1) * squares, 1)
    if cost > 32 * budget:
        raise BudgetExceededError(
            f"orbit pass needs {cost} conjugations, over budget {budget}")
    return _orbit_count(V, ring, C)
