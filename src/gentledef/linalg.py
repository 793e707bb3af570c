"""Exact linear algebra over the prime fields F_q.

Everything here works on plain numpy int64 arrays whose entries are
reduced mod q.  No floating point is involved anywhere, so ranks and
nullspaces are exact.  q must be prime (inverses via Fermat).
"""

from __future__ import annotations

import math

import numpy as np


def is_prime(q: int) -> bool:
    """Trial division; the field sizes used here are small."""
    return q >= 2 and all(q % d for d in range(2, math.isqrt(q) + 1))


def _inv_mod(a: int, q: int) -> int:
    return pow(int(a) % q, q - 2, q)


def as_field(A, q: int) -> np.ndarray:
    """Coerce to an int64 array with entries reduced into [0, q)."""
    return np.asarray(A, dtype=np.int64) % q


def rref(A, q: int):
    """Reduced row echelon form over F_q.

    Returns (R, pivot_cols) where R is a new array and pivot_cols lists
    the pivot column of each nonzero row in order.  Each pivot column is
    cleared from every other row with one vectorised row update; left of
    the pivot the pivot row is already zero, so only columns from the
    pivot on are touched.
    """
    R = as_field(A, q)
    m, n = R.shape
    pivots = []
    row = 0
    for col in range(n):
        if row == m:
            break
        nz = R[row:, col].nonzero()[0]
        if nz.size == 0:
            continue
        piv = row + nz[0]
        if piv != row:
            R[[row, piv]] = R[[piv, row]]
        if R[row, col] != 1:
            R[row, col:] = R[row, col:] * _inv_mod(R[row, col], q) % q
        others = R[:, col].nonzero()[0]
        if others.size > 1:
            others = others[others != row]
            R[others, col:] = (R[others, col:]
                               - R[others, col, None] * R[row, col:]) % q
        pivots.append(col)
        row += 1
    return R, pivots


def rank(A, q: int) -> int:
    A = as_field(A, q)
    if A.size == 0:
        return 0
    _, pivots = rref(A, q)
    return len(pivots)


def nullspace(A, q: int) -> np.ndarray:
    """Basis of the right nullspace, one vector per ROW of the result.

    The result has shape (nullity, n); for a full-rank square matrix it
    is an empty (0, n) array.
    """
    A = as_field(A, q)
    m, n = A.shape
    if n == 0:
        return np.zeros((0, 0), dtype=np.int64)
    if m == 0:
        return np.eye(n, dtype=np.int64)
    R, pivots = rref(A, q)
    free = [c for c in range(n) if c not in pivots]
    basis = np.zeros((len(free), n), dtype=np.int64)
    for i, fc in enumerate(free):
        basis[i, fc] = 1
        for r, pc in enumerate(pivots):
            basis[i, pc] = (-R[r, fc]) % q
    return basis


def solve(A, b, q: int):
    """One solution x of A x = b over F_q, or None if inconsistent.

    The reference that `Presolved.solve_many` is tested against.
    """
    A = as_field(A, q)
    b = as_field(b, q).reshape(-1)
    m, n = A.shape
    aug = np.concatenate([A, b.reshape(m, 1)], axis=1)
    R, pivots = rref(aug, q)
    if n in pivots:
        return None
    x = np.zeros(n, dtype=np.int64)
    for r, pc in enumerate(pivots):
        x[pc] = R[r, n]
    return x


class Presolved:
    """A once-reduced matrix for solving A x = b against many b.

    Row-reducing [A | I] yields E with E @ A in echelon form; a system
    is consistent iff E @ b vanishes on the rows below the last pivot
    of A, and then the pivot rows of E @ b read off one solution.
    """

    def __init__(self, A, q: int):
        A = as_field(A, q)
        m, n = A.shape
        self.q = q
        self.n_cols = n
        aug = np.concatenate([A, np.eye(m, dtype=np.int64)], axis=1)
        R, pivots = rref(aug, q)
        self.pivots = [p for p in pivots if p < n]
        self.E = R[:, n:]
        self.n_pivot_rows = len(self.pivots)

    def solve_many(self, B) -> tuple[np.ndarray, np.ndarray]:
        """Solves A x = b for every column b of B.

        Returns (X, ok): column j of X solves column j of B whenever
        ok[j]; columns with ok[j] False are inconsistent (X zero there).
        """
        B = as_field(B, self.q)
        C = self.E @ B % self.q
        ok = ~C[self.n_pivot_rows:].any(axis=0)
        X = np.zeros((self.n_cols, B.shape[1]), dtype=np.int64)
        for r, pc in enumerate(self.pivots):
            X[pc] = C[r]
        X[:, ~ok] = 0
        return X, ok


class LinearSystem:
    """Linear equations in several unknown matrices over F_q.

    Unknowns are named matrices of fixed shape; each equation is a sum
    of terms A @ X @ B (A, B known) set equal to zero.
    Unknowns and equations are flattened row-major: the equation's rows
    are the entries of A @ X @ B, and each term places the coefficient
    A[i, k] * B[l, j] of X[k, l] in row (i, j) by one broadcast product,
    reducing mod q once per equation.
    """

    def __init__(self, q: int):
        self.q = q
        self._shapes: dict[str, tuple[int, int]] = {}
        self._offsets: dict[str, int] = {}
        self._width = 0
        self._rows: list[np.ndarray] = []

    def add_unknown(self, name: str, shape: tuple[int, int]) -> None:
        if name in self._shapes:
            raise ValueError(f"unknown {name!r} already declared")
        self._shapes[name] = shape
        self._offsets[name] = self._width
        self._width += shape[0] * shape[1]

    @property
    def width(self) -> int:
        return self._width

    def add_equation(self, terms) -> None:
        """terms: iterable of (A, name, B) whose sum is set to zero.

        Every term's A @ X @ B must share one output shape.
        """
        block = None
        for A, name, B in terms:
            A = np.asarray(A, dtype=np.int64)
            B = np.asarray(B, dtype=np.int64)
            rows, cols = self._shapes[name]
            if A.shape[1] != rows or B.shape[0] != cols:
                raise ValueError(f"term shape mismatch on {name!r}")
            shape = (A.shape[0], B.shape[1])
            if block is None:
                block = np.zeros((*shape, self._width), dtype=np.int64)
            elif shape != block.shape[:2]:
                raise ValueError("terms have mismatched output shapes")
            off = self._offsets[name]
            # Entry (i, j, k, l) is A[i, k] * B[l, j]: the coefficient of
            # X[k, l] in (A @ X @ B)[i, j].
            piece = A[:, None, :, None] * B.T[None, :, None, :]
            block[:, :, off:off + rows * cols] += piece.reshape(
                *shape, rows * cols)
        if block is None:
            raise ValueError("equation needs at least one term")
        rows_out = block.shape[0] * block.shape[1]
        self._rows.append(block.reshape(rows_out, self._width) % self.q)

    def matrix(self) -> np.ndarray:
        if not self._rows:
            return np.zeros((0, self._width), dtype=np.int64)
        return np.concatenate(self._rows, axis=0)

    def _unpack(self, vec: np.ndarray) -> dict[str, np.ndarray]:
        out = {}
        for name, (r, c) in self._shapes.items():
            off = self._offsets[name]
            out[name] = vec[off:off + r * c].reshape(r, c).copy()
        return out

    def nullspace_dim(self) -> int:
        return self._width - rank(self.matrix(), self.q)

    def nullspace_basis(self) -> list[dict[str, np.ndarray]]:
        return [self._unpack(v) for v in nullspace(self.matrix(), self.q)]
