"""Lifting modules to F_q[t]/(t^n) and counting deformations.

A lift replaces each arrow matrix by a polynomial in t whose constant
term is the original matrix, subject to the relations holding over the
truncated polynomial ring.  The t^k coefficients satisfy an affine
system whose homogeneous part is independent of k: the cocycle equations
of Ext^1(V, V), taken from `homext.ext_system`.  Deformations are lifts
up to conjugation by invertible vertex maps congruent to the identity
mod t; at level one these move a lift by the coboundaries, read from
`homext.hom_system`.

One walk, `_lift_walk`, solves each held lift's next level and fans
every solvable one out by fixed level-one directions.  Deformations are
counted by walking the obstruction tree, with one direction per
coboundary coset, so each row is one class.  The oracles share the walk
but no coset or torsor argument: `count_deformations_by_orbits` fans out
by every cocycle and counts conjugation classes by union-find, and
`Lift.validate` checks each lift from `enumerate_lifts` by whole
matrix-polynomial products, not by `_level_rhs`.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field

import numpy as np

from .homext import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    _arrow_layout,
    _mixed_radix,
    end_is_trivial,
    ext_system,
    hom_system,
)
from .linalg import Presolved, is_prime, nullspace, rank, rref
from .presentation import Presentation
from .strings import FinModule


@dataclass(frozen=True)
class CoeffRing:
    """The test ring F_q[t]/(t^n); n = 1 is the base field."""

    q: int
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be positive")
        if not is_prime(self.q):
            raise ValueError("q must be prime")

    def label(self) -> str:
        return f"F_{self.q}[t]/(t^{self.n})"


@dataclass
class Lift:
    """Arrow actions over a CoeffRing; coeffs[a] has shape (n, rows, cols).

    `validate` checks the relations by whole matrix-polynomial products,
    an oracle for the lift walk's level equations.
    """

    module: FinModule
    ring: CoeffRing
    coeffs: dict[str, np.ndarray]

    def validate(self) -> list[str]:
        problems = []
        p = self.module.presentation
        q = self.ring.q
        for a in p.quiver.arrow_names:
            if ((self.coeffs[a][0] - self.module.action[a]) % q).any():
                problems.append(f"arrow {a}: constant term differs from V")
        for beta, alpha in p.relations:
            if _poly_matmul(self.coeffs[beta], self.coeffs[alpha], q).any():
                problems.append(
                    f"relation {beta}*{alpha} fails over {self.ring.label()}")
        return problems


@dataclass
class LiftCensus:
    """Deformation counts per level with the ring descriptors they match."""

    q: int
    census: list[tuple[int, int]]
    matches: list[str]
    reduction_surjective: dict[int, bool] = field(default_factory=dict)

    def as_dict(self) -> dict:
        out = {"q": self.q,
               "census": [[n, c] for n, c in self.census],
               "matches": list(self.matches)}
        if self.reduction_surjective:
            out["reduction_surjective"] = {
                str(n): bool(v) for n, v in self.reduction_surjective.items()}
        return out


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


def _slice(C: np.ndarray, level: int, off: int, shape: tuple[int, int]):
    r, c = shape
    return C[:, level, off:off + r * c].reshape(C.shape[0], r, c)


def _level_rhs(V: FinModule, C: np.ndarray, k: int) -> np.ndarray:
    """Right-hand sides -(sum of cross terms) for level k, one column per lift.

    Rows follow `ext_system(V, V)`: one block per relation b*a, holding
    -sum_{0<i<k} f_b[i] f_a[k-i] flattened row-major.
    """
    p, q = V.presentation, V.q
    slots = {a: (off, shape) for a, off, shape in _arrow_layout(V, V)[0]}
    blocks = []
    for beta, alpha in p.relations:
        (boff, bshape), (aoff, ashape) = slots[beta], slots[alpha]
        acc = np.zeros((C.shape[0], bshape[0], ashape[1]), dtype=np.int64)
        for i in range(1, k):
            acc += (_slice(C, i, boff, bshape)
                    @ _slice(C, k - i, aoff, ashape))
        blocks.append((-acc % q).reshape(C.shape[0], -1))
    if not blocks:
        return np.zeros((0, C.shape[0]), dtype=np.int64)
    return np.concatenate(blocks, axis=1).T


def _span(basis: np.ndarray, q: int, budget: int) -> np.ndarray:
    """Every F_q-combination of the rows of basis, one per row.

    Raises before building more than `budget` rows.
    """
    d = basis.shape[0]
    if q ** d > budget:
        raise BudgetExceededError(
            f"{q}^{d} fan-out rows exceed budget {budget}")
    return _mixed_radix(q ** d, d, q) @ basis % q


def _every_cocycle(V: FinModule, M: np.ndarray, budget: int) -> np.ndarray:
    """Every level-one cocycle, as flat rows: the orbit oracle's fan."""
    return _span(nullspace(M, V.q), V.q, budget)


def _lift_walk(V: FinModule, n: int, fan,
               budget: int) -> tuple[np.ndarray, list[int], dict[int, bool]]:
    """Lifts of V to F_q[t]/(t^n), one coefficient level at a time.

    The rows at level k have shape (n, width of arrow tuple), zero from
    level k on.  Level k's unknowns solve the cocycle equations
    M = `ext_system(V, V)` with right-hand side `_level_rhs`; a row whose
    system is solvable gets one solution plus each row of
    `fan(V, M, budget)`, and the others are dropped.  Returns the rows at
    level n, the row count per level and, for k >= 2, whether every row
    at level k - 1 extended.  The parent and child levels held at once
    may have at most `budget` entries, so they take at most 8 * budget
    bytes; the child level is filled in place.
    """
    q = V.q
    layout, width = _arrow_layout(V, V)
    C = np.zeros((1, n, width), dtype=np.int64)
    for a, off, shape in layout:
        C[0, 0, off:off + shape[0] * shape[1]] = V.action[a].reshape(-1)
    counts, extended = [1], {}
    if n == 1:
        return C, counts, extended
    M = ext_system(V, V).matrix()
    reps = fan(V, M, budget)
    pre = Presolved(M, q)
    for k in range(1, n):
        X, ok = pre.solve_many(_level_rhs(V, C, k))
        extended[k + 1] = bool(ok.all())
        parents = int(ok.sum())
        held = C.shape[0] + parents * reps.shape[0]
        if held * n * max(width, 1) > budget:
            raise BudgetExceededError(
                f"levels {k} and {k + 1} of the lift walk would hold "
                f"{held} rows, over budget {budget}")
        C = np.repeat(C, np.where(ok, reps.shape[0], 0), axis=0)
        level = C.reshape(parents, reps.shape[0], n, width)[:, :, k]
        np.add(X.T[ok][:, None], reps, out=level)
        level %= q
        counts.append(C.shape[0])
    return C, counts, extended


def _rows_to_lift(V: FinModule, ring: CoeffRing, row: np.ndarray) -> Lift:
    layout, _ = _arrow_layout(V, V)
    coeffs = {}
    for a, off, (r, c) in layout:
        coeffs[a] = row[:, off:off + r * c].reshape(ring.n, r, c).copy()
    return Lift(module=V, ring=ring, coeffs=coeffs)


def enumerate_lifts(p: Presentation, V: FinModule, ring: CoeffRing,
                    budget: int = DEFAULT_BUDGET) -> list[Lift]:
    """Every action tuple over the ring reducing to V and killing the relations.

    An oracle: the orbit oracle's lifts, each checkable by `Lift.validate`.
    """
    if p != V.presentation:
        raise ValueError("module does not live over this presentation")
    if ring.q != V.q:
        raise ValueError("ring and module use different q")
    C = _lift_walk(V, ring.n, _every_cocycle, budget)[0]
    return [_rows_to_lift(V, ring, C[i]) for i in range(C.shape[0])]


def _poly_inverse(U: np.ndarray, q: int) -> np.ndarray:
    """Inverse of a matrix polynomial whose constant term is the identity."""
    n, d = U.shape[0], U.shape[1]
    X = np.zeros_like(U)
    X[0] = np.eye(d, dtype=np.int64)
    for k in range(1, n):
        acc = np.zeros((d, d), dtype=np.int64)
        for i in range(1, k + 1):
            acc += U[i] @ X[k - i]
        X[k] = -acc % q
    return X


def _unit_generators(V: FinModule, ring: CoeffRing):
    """Congruent-to-identity conjugations that generate the whole group.

    One generator per vertex, matrix entry, level >= 1, and nonzero
    scalar; the filtration argument shows these generate every vertex
    map U with U = I mod t.
    """
    q, n = ring.q, ring.n
    gens = []
    for v in V.presentation.quiver.vertices:
        d = V.dims[v]
        for i, j in itertools.product(range(d), repeat=2):
            for k in range(1, n):
                for c in range(1, q):
                    U = np.zeros((n, d, d), dtype=np.int64)
                    U[0] = np.eye(d, dtype=np.int64)
                    U[k, i, j] = (U[k, i, j] + c) % q
                    gens.append((v, U))
    return gens


def _generator_count(V: FinModule, ring: CoeffRing) -> int:
    squares = sum(V.dims[v] ** 2 for v in V.presentation.quiver.vertices)
    return (ring.q - 1) * (ring.n - 1) * squares


class _Orbits:
    """Union-find partition of enumerated lifts under unit conjugation."""

    def __init__(self, V: FinModule, ring: CoeffRing, C: np.ndarray):
        self.V = V
        self.ring = ring
        self.C = C
        self.layout = _arrow_layout(V, V)[0]
        self.index = {self._key_of_row(C[i]): i for i in range(C.shape[0])}
        self.parent = np.arange(C.shape[0], dtype=np.int64)
        self._partition()

    def _key_of_row(self, row: np.ndarray) -> bytes:
        return row[1:].tobytes()

    def _find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def _union(self, x: int, y: int) -> None:
        rx, ry = self._find(x), self._find(y)
        if rx != ry:
            self.parent[max(rx, ry)] = min(rx, ry)

    def _partition(self) -> None:
        p, q, n = self.V.presentation, self.ring.q, self.ring.n
        C = self.C
        L = C.shape[0]
        for v, U in _unit_generators(self.V, self.ring):
            Uinv = _poly_inverse(U, q)
            D = C.copy()
            for a, off, (r, c) in self.layout:
                if r * c == 0:
                    continue
                A = C[:, :, off:off + r * c].reshape(L, n, r, c)
                if p.target(a) == v:
                    A = _poly_matmul(U, A, q)
                if p.source(a) == v:
                    A = _poly_matmul(A, Uinv, q)
                D[:, :, off:off + r * c] = A.reshape(L, n, r * c)
            for l in range(L):
                other = self.index.get(self._key_of_row(D[l]))
                if other is None:
                    raise AssertionError(
                        "conjugation left the enumerated set; enumeration bug")
                self._union(l, other)

    def roots(self) -> np.ndarray:
        return np.array([self._find(i) for i in range(self.C.shape[0])])

    def class_count(self) -> int:
        return np.unique(self.roots()).size


def _tangent_line_reps(V: FinModule, M: np.ndarray, budget: int) -> np.ndarray:
    """One level-one coefficient per conjugation coset: the tree's fan."""
    q = V.q
    Z = nullspace(M, q)
    z = Z.shape[0]
    if z == 0:
        return _span(Z, q, budget)
    # Row j is the coboundary of the j-th unit vertex map (up to sign).
    B = hom_system(V, V).matrix().T
    if rank(np.concatenate([Z, B]), q) != z:
        raise AssertionError("conjugation directions escape the cocycle space")
    coords, ok = Presolved(Z.T, q).solve_many(B.T)
    if not ok.all():
        raise AssertionError("coboundary coordinates unsolvable")
    _, pivots = rref(coords.T, q)
    return _span(Z[[j for j in range(z) if j not in pivots]], q, budget)


def _tree_census(V: FinModule, n_max: int,
                 budget: int) -> tuple[list[int], dict[int, bool]]:
    """Class counts for n = 1..n_max by walking the obstruction tree.

    Requires End(V) = k, so the classes over F_q[t]/(t^(n+1)) above one
    class over F_q[t]/(t^n) are none or a torsor under Ext^1(V, V).  The
    walk keeps one representative per class and fans each solvable one
    out by the tangent coset representatives.  Returns the counts and,
    for n >= 2, whether every class at level n - 1 lifts.
    """
    if not end_is_trivial(V):
        raise ValueError("deformation counts require End(V) = k")
    _, counts, surjective = _lift_walk(V, n_max, _tangent_line_reps, budget)
    return counts, surjective


def count_deformations(p: Presentation, V: FinModule, ring: CoeffRing,
                       budget: int = DEFAULT_BUDGET) -> int:
    """Number of isomorphism classes of lifts of V over the ring.

    V must have trivial endomorphisms, so isomorphism of lifts reduces
    to conjugation by vertex maps congruent to the identity mod t.  The
    count is the last level of the obstruction-tree walk.
    """
    if ring.q != V.q:
        raise ValueError("ring and module use different q")
    return _tree_census(V, ring.n, budget)[0][-1]


def count_deformations_by_orbits(p: Presentation, V: FinModule,
                                 ring: CoeffRing,
                                 budget: int = DEFAULT_BUDGET) -> int:
    """The same count by partitioning every lift under conjugation.

    The count oracle for `count_deformations`: it shares the lift walk
    and its level equations but no coset or torsor argument, fanning out
    by every cocycle and counting union-find classes of all the lifts.
    """
    if not end_is_trivial(V):
        raise ValueError("deformation counts require End(V) = k")
    if ring.q != V.q:
        raise ValueError("ring and module use different q")
    if ring.n == 1:
        return 1
    C = _lift_walk(V, ring.n, _every_cocycle, budget)[0]
    cost = C.shape[0] * max(_generator_count(V, ring), 1)
    if cost > 32 * budget:
        raise BudgetExceededError(
            f"orbit pass needs {cost} conjugations, over budget {budget}")
    return _Orbits(V, ring, C).class_count()


_TRUNCATED = re.compile(r"^k\[\[?t\]\]?/\(t\^(\d+)\)$")


def count_ring_morphisms(descriptor: str, ring: CoeffRing) -> int:
    """Local k-algebra morphisms from the named ring into F_q[t]/(t^n).

    Counted by enumerating images of t among the maximal-ideal elements
    rather than via a closed form.
    """
    q, n = ring.q, ring.n
    if descriptor == "k":
        return 1
    free = n - 1
    # Each image of t is a 1x1 matrix polynomial with zero constant term.
    images = np.zeros((q ** free, n, 1, 1), dtype=np.int64)
    if free:
        images[:, 1:, 0, 0] = _mixed_radix(q ** free, free, q)
    if descriptor == "k[[t]]":
        return images.shape[0]
    m = _TRUNCATED.match(descriptor)
    if m is None:
        raise ValueError(f"unsupported ring descriptor {descriptor!r}")
    power = int(m.group(1))
    acc = images
    for _ in range(power - 1):
        acc = _poly_matmul(acc, images, q)
    return int((~acc.any(axis=(1, 2, 3))).sum())


def fingerprint(p: Presentation, V: FinModule, q: int, n_max: int,
                budget: int = DEFAULT_BUDGET) -> LiftCensus:
    """Deformation census for n = 1..n_max matched against candidate rings.

    One obstruction-tree walk gives every level's count and, for each
    n >= 2, whether reduction from level n to level n - 1 is surjective
    on deformations.
    """
    if q != V.q:
        raise ValueError("module was built over a different q")
    counts, reduction = _tree_census(V, n_max, budget)
    census = list(enumerate(counts, start=1))
    matches = []
    for label in ["k", "k[[t]]/(t^2)", "k[[t]]"]:
        expected = [count_ring_morphisms(label, CoeffRing(q, n))
                    for n in range(1, n_max + 1)]
        if expected == counts:
            matches.append(label)
    return LiftCensus(q=q, census=census, matches=matches,
                      reduction_surjective=reduction)
