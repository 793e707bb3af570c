"""Lifting modules to F_q[t]/(t^n) and counting deformations.

A lift replaces each arrow matrix by a polynomial in t whose constant
term is the original matrix, subject to the relations holding over the
truncated polynomial ring.  The t^k coefficients satisfy an affine
system whose homogeneous part is independent of k: the cocycle
equations of Ext^1(V, V), d^1 of `homext.cochain_system`, read as
`homext.ext_system`, which also lays out each of a lift's n coefficient
levels: `LinearSystem.unpack` views them by arrow, and each level's
cross terms are summed over the equations the system records.
Deformations are lifts up to conjugation by invertible vertex maps
congruent to the identity mod t; at level one these move a lift by the
coboundaries, the image of d^0, read from `homext.hom_system`.

One walk, `_lift_walk`, reduces the cocycle equations once, as a
`linalg.Presolved` of the sparse system, solves each held lift's next
level against that reduction and fans every solvable one out by fixed
level-one directions drawn from its nullspace, the cocycles.
Deformations are counted by walking the obstruction tree, with one
direction per coboundary coset, so each row is one class.  That walk
is the package's one census engine.  The exhaustive oracles it is
checked against live in the test suite, `tests/oracles.py`: they fan
the same walk out by every cocycle, through its `fan` argument, and
share no coset or torsor argument.

The entry points `count_deformations(V, n)` and `fingerprint(V, n_max)`
take the module and a level only: V fixes its presentation and its
field F_q, and so the test rings F_q[t]/(t^n).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .homext import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    _mixed_radix,
    end_is_trivial,
    ext_system,
    hom_system,
)
from .linalg import LinearSystem, Presolved, is_prime, rref
from .strings import FinModule

# The rings a census is matched against, in the order matches are listed.
CANDIDATE_RINGS = ("k", "k[[t]]/(t^2)", "k[[t]]")


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


def _level_rhs(system: LinearSystem, C: np.ndarray, k: int) -> np.ndarray:
    """Right-hand sides -(sum of cross terms) for level k, one column per lift.

    system is ext_system(V, V), which lays out each level of C; C is
    unpacked once.  Equation (first, x, y), for the relation y*x, fills
    the rows from first on with -sum_{0<i<k} Y[i] @ X[k-i], row-major.
    """
    blocks = system.unpack(C)
    rhs = np.zeros((C.shape[0], system.height), dtype=np.int64)
    for first, x, y in system.equations:
        X, Y = blocks[x], blocks[y]
        size = Y.shape[-2] * X.shape[-1]
        acc = (Y[:, 1:k] @ X[:, k - 1:0:-1]).sum(axis=1)
        rhs[:, first:first + size] = -acc.reshape(C.shape[0], size)
    return rhs.T % system.q


def _span(basis: np.ndarray, q: int, budget: int) -> np.ndarray:
    """Every F_q-combination of the rows of basis, one per row.

    Raises before building more than `budget` rows.
    """
    d = basis.shape[0]
    if q ** d > budget:
        raise BudgetExceededError(
            f"{q}^{d} fan-out rows exceed budget {budget}")
    return _mixed_radix(q ** d, d, q) @ basis % q


def _lift_walk(V: FinModule, n: int, fan,
               budget: int) -> tuple[np.ndarray, list[int], dict[int, bool]]:
    """Lifts of V to F_q[t]/(t^n), one coefficient level at a time.

    The cocycle equations `ext_system(V, V)` are built once.  The rows at
    level k have shape (n, system width), zero from level k on; level 0
    holds V's actions, written through `unpack`.  For n >= 2 they are
    reduced once, by `Presolved`, which gives both their solutions and
    their nullspace Z, the cocycle basis.  Level k's unknowns solve those
    equations with right-hand side `_level_rhs`; a row whose system is
    solvable gets one solution plus each row of `fan(V, Z, budget)`, and
    the others are dropped.  Level 1 has no cross terms, so its one row
    extends by the solution 0 without a solve.  Returns the rows at
    level n, the row count per level and, for k >= 2, whether every row
    at level k - 1 extended.  The parent and child levels held at once
    may have at most `budget` entries, so they take at most 8 * budget
    bytes; the child level is filled in place.  A level n < 1 is
    rejected here, for every census entry point and oracle.
    """
    if n < 1:
        raise ValueError("n must be positive")
    q, system = V.q, ext_system(V, V)
    width = system.width
    C = np.zeros((1, n, width), dtype=np.int64)
    for a, block in system.unpack(C[0, 0]).items():
        block[...] = V.action[a]
    counts, extended = [1], {}
    if n == 1:
        return C, counts, extended
    pre = Presolved(system)
    reps = fan(V, pre.nullspace, budget)
    for k in range(1, n):
        if k == 1:
            X, ok = np.zeros((width, 1), dtype=np.int64), np.ones(1, bool)
        else:
            X, ok = pre.solve_many(_level_rhs(system, C, k))
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


def _tangent_line_reps(V: FinModule, Z: np.ndarray, budget: int) -> np.ndarray:
    """One level-one coefficient per conjugation coset: the tree's fan.

    The pivot columns of rref([B; Z].T) past B's rows pick the cocycles
    of the basis Z that extend a basis of the coboundaries B; they span
    a complement of B in Z.
    """
    q = V.q
    # Row j is the coboundary of the j-th unit vertex map (up to sign).
    B = hom_system(V, V).matrix().T
    _, pivots = rref(np.concatenate([B, Z]).T, q)
    if len(pivots) != Z.shape[0]:
        raise AssertionError("conjugation directions escape the cocycle space")
    rows = [col - B.shape[0] for col in pivots if col >= B.shape[0]]
    return _span(Z[rows], q, budget)


def _tree_census(V: FinModule, n: int,
                 budget: int) -> tuple[list[int], dict[int, bool]]:
    """Class counts at levels 1..n by walking the obstruction tree.

    Requires End(V) = k, so the classes over F_q[t]/(t^(n+1)) above one
    class over F_q[t]/(t^n) are none or a torsor under Ext^1(V, V).  The
    walk keeps one representative per class and fans each solvable one
    out by the tangent coset representatives.  Returns the counts and,
    for n >= 2, whether every class at level n - 1 lifts.
    """
    if not end_is_trivial(V):
        raise ValueError("deformation counts require End(V) = k")
    _, counts, surjective = _lift_walk(V, n, _tangent_line_reps, budget)
    return counts, surjective


def count_deformations(V: FinModule, n: int,
                       budget: int = DEFAULT_BUDGET) -> int:
    """Number of isomorphism classes of lifts of V over F_q[t]/(t^n).

    V must have trivial endomorphisms, so isomorphism of lifts reduces
    to conjugation by vertex maps congruent to the identity mod t.  The
    count is the last level of the obstruction-tree walk.
    """
    return _tree_census(V, n, budget)[0][-1]


def count_ring_morphisms(descriptor: str, q: int, n: int) -> int:
    """Local k-algebra morphisms from the named ring into F_q[t]/(t^n).

    A local morphism from k[[t]]/(t^e) is fixed by the image u of t, any
    element of the maximal ideal with u^e = 0.  An element of valuation
    w >= 1 has e-th power of valuation e·w, which vanishes in
    F_q[t]/(t^n) exactly when w >= n/e.  So u ranges over the ideal
    (t^v), v = max(1, ceil(n/e)), which has q^(n - v) elements.  k is
    e = 1, so v = n and the count is 1; k[[t]] puts no condition on u,
    so v = 1.  The truncations k[[t]]/(t^e) and k[t]/(t^e) need e >= 1:
    the zero ring k[[t]]/(t^0) has no local morphisms and is rejected,
    as are a q that is not prime and a level n < 1.
    """
    if not is_prime(q):
        raise ValueError("q must be prime")
    if n < 1:
        raise ValueError("n must be positive")
    m = re.fullmatch(r"k(?:\[\[t\]\]|\[t\])/\(t\^(\d+)\)", descriptor)
    if descriptor == "k":
        v = n
    elif descriptor == "k[[t]]":
        v = 1
    elif m is not None and int(m.group(1)) >= 1:
        v = max(1, -(-n // int(m.group(1))))
    else:
        raise ValueError(f"unsupported ring descriptor {descriptor!r}")
    return q ** (n - v)


@cache
def _candidate_censuses(q: int, n_max: int) -> tuple:
    """(label, census) for each of `CANDIDATE_RINGS`, in order, where the
    census is the tuple of `count_ring_morphisms` into F_q[t]/(t^n) for
    n = 1..n_max; built once per process for each (q, n_max)."""
    return tuple((label, tuple(count_ring_morphisms(label, q, n)
                               for n in range(1, n_max + 1)))
                 for label in CANDIDATE_RINGS)


def fingerprint(V: FinModule, n_max: int,
                budget: int = DEFAULT_BUDGET) -> LiftCensus:
    """Deformation census of V for n = 1..n_max matched against
    `CANDIDATE_RINGS`, over F_q[t]/(t^n) with V's q.

    One obstruction-tree walk gives every level's count and, for each
    n >= 2, whether reduction from level n to level n - 1 is surjective
    on deformations.  The candidates' censuses are the closed forms of
    `count_ring_morphisms`, tabled once per process for each (q, n_max),
    so the walk's budget bounds everything the census holds.
    """
    counts, reduction = _tree_census(V, n_max, budget)
    matches = [label for label, census in _candidate_censuses(V.q, n_max)
               if tuple(counts) == census]
    return LiftCensus(q=V.q, census=list(enumerate(counts, start=1)),
                      matches=matches, reduction_surjective=reduction)
